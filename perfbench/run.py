"""The repository's benchmark: run one workload and print its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hpcg-32 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload runs in its own single-threaded process
(``perfbench/harness.py``) with a hermetic environment: every
``REPRO_*`` variable is cleared, ``REPRO_TUNE_CACHE`` points at a fresh
empty directory, and the BLAS/OpenMP/numba pools get one thread.
``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a separate traced run.
Every metric is printed by name with its unit, then the last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``solve_s`` and ``gflops`` are printed beside the end-to-end metrics
but are not in the JSON: raw solve times drift with the host's speed,
and ``speedup_vs_ref`` is the bounded solve metric.  ``fail_rate``
(failed ÷ attempted solves) is printed too; it is the JSON's
``failed``/``attempted`` and is not a bounded metric, because it reads
0 on a correct program.

The workloads, the per-layer metrics and what each should move are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, Optional, Sequence

from workloads import END_TO_END, PER_LAYER, UNBOUNDED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

#: A workload process that outlives this is killed: the run fails.
CHILD_TIMEOUT_S = 170

#: Temporary files of a run live here, inside the checkout.
SCRATCH_DIR = ".perfbench_tmp"


def child_env(src: str, tune_cache: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update({
        "PYTHONPATH": src,
        "REPRO_TUNE_CACHE": tune_cache,
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMBA_NUM_THREADS": "1",
    })
    return env


def run_workload(name: str, args, root: str) -> Optional[dict]:
    """Run one workload in its own process; its report, or None on failure."""
    scratch = os.path.join(root, SCRATCH_DIR)
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        tune_cache = os.path.join(tmp, "tune")
        os.mkdir(tune_cache)
        cmd = [sys.executable, os.path.join(HERE, "harness.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--toy"] if args.toy else []
        cmd += ["--perturb"] if args.perturb else []
        try:
            proc = subprocess.run(
                cmd, cwd=root, env=child_env(os.path.join(root, "src"),
                                             tune_cache),
                stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} ran past {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload {name} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"error: workload {name} printed no report", file=sys.stderr)
        return None


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(report: dict, trace: int) -> None:
    """The human-readable block, then the JSON result line."""
    units = PER_LAYER if trace else END_TO_END
    prov = report["provenance"]
    samples = report["samples"]
    size = report["size"]
    print(f"== {report['workload']}: nx={size['nx']} iters={size['iters']} "
          f"mg_levels={size['mg_levels']}"
          + (f" nprocs={size['nprocs']}" if size["nprocs"] else "")
          + f" | seed {report['seed']} | trace {trace}")
    print("substrates: " + ", ".join(
        f"L{i}={s}" for i, s in enumerate(prov["substrates"])))
    print(f"host: {prov['cpu_model']}; nproc {prov['nproc']} "
          f"({prov['cpus_usable']} usable, pinned to cpu "
          f"{prov['pinned_cpu']}); numba "
          f"{'imports' if prov['numba'] else 'absent'}; python "
          f"{prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}")
    print(f"triad arrays {prov['triad_bytes'] / 2**20:.1f} MiB vs "
          f"last-level cache {prov['llc_bytes'] / 2**20:.1f} MiB; "
          f"byte counts are {prov['byte_counts']}")
    print(f"hermetic: REPRO_* set = {prov['repro_env']}, "
          f"tune cache empty = {prov['tune_cache_empty']}")
    print(f"samples: {samples['setups']} set-ups, {samples['solves']} "
          f"untraced + {samples['traced_solves']} traced solves, "
          f"{samples['ref_brackets']} reference brackets")
    metrics = {}
    for name, unit in units.items():
        value = report["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<26} {_fmt(value):>14} {unit}")
    if not trace:
        for name, unit in UNBOUNDED.items():
            print(f"  {name:<26} {_fmt(report['metrics'][name]):>14} {unit}"
                  " (not bounded: raw time drifts with the host)")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'fail_rate':<26} {_fmt(failed / attempted if attempted else 1.0):>14}"
          f" fraction ({failed} failed of {attempted} solves)")
    for error in report["errors"]:
        print(f"  failed check: {error}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep solving, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="self-test sizes (perfbench/selftest.py)")
    parser.add_argument("--perturb", action="store_true",
                        help="self-test: corrupt one residual history")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: src/repro not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        report = run_workload(name, args, root)
        if report is None:
            status = 1
            continue
        print_report(report, args.trace)
    return status


if __name__ == "__main__":
    sys.exit(main())
