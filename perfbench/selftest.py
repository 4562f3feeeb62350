"""Self-test of the benchmark at toy size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks, for every workload with and without tracing, that the result
line has exactly the contract's keys, that every metric is printed with
its unit (and matches ``BENCHMARK.json`` when that file is present),
and that the outputs pass their correctness checks.  Then checks that a
perturbed residual history is counted as a failed solve, not a crash,
and that ``run.py`` refuses to run where ``src/repro`` is missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import List

from workloads import END_TO_END, PER_LAYER, UNBOUNDED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run(workload: str, trace: int, *extra: str, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--toy", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)


def check_result(proc, workload: str, trace: int, problems: List[str]):
    tag = f"{workload} trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()}")
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    units = PER_LAYER if trace else END_TO_END
    if {k: v["unit"] for k, v in result["metrics"].items()} != units:
        problems.append(f"{tag}: metrics/units differ from workloads.py")
    printed = dict(units) if trace else {**units, **UNBOUNDED}
    for name, unit in printed.items():
        if not any(line.split()[:3:2] == [name, unit]
                   for line in lines[:-1]):
            problems.append(f"{tag}: {name} not printed with unit {unit}")
    if not any(line.split()[:1] == ["fail_rate"] for line in lines):
        problems.append(f"{tag}: fail_rate not printed")
    if result["attempted"] < 1:
        problems.append(f"{tag}: no solve attempted")
    return result


def check_benchmark_json(problems: List[str]) -> None:
    path = "BENCHMARK.json"
    if not os.path.isfile(path):
        return
    with open(path) as fh:
        spec = json.load(fh)
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != units:
            problems.append(f"BENCHMARK.json {key} differs from workloads.py")


def main() -> int:
    problems: List[str] = []
    check_benchmark_json(problems)
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            result = check_result(run(workload, trace), workload, trace,
                                  problems)
            if result is not None and not (result["correct"]
                                           and result["failed"] == 0):
                problems.append(f"{workload} trace {trace}: not correct")

    for workload in ("hpcg-16", "dist-p64"):
        proc = run(workload, 0, "--perturb")
        result = check_result(proc, workload, 0, problems)
        if result is not None and (result["correct"]
                                   or result["failed"] != 1):
            problems.append(f"{workload}: perturbed history not counted "
                            f"(failed={result['failed']})")

    scratch = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        if os.path.isfile("BENCHMARK.json"):
            shutil.copy("BENCHMARK.json", bare)
        proc = run("hpcg-16", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py without src/repro did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} failure(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
