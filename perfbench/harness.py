"""Measure one benchmark workload in this process.

``perfbench/run.py`` starts this script in a fresh process with a
hermetic environment; run that instead.  Every layer is timed from the
outside, around calls into public functions of ``repro``; nothing in
``src/`` carries a span for the benchmark.  The last stdout line is one
JSON object: the metrics, the attempted/failed solve counts, the errors
of failed checks and the run's provenance.

End-to-end numbers (``--trace 0``) are taken with no timer registry, no
event collector and no ``repro.obs`` context installed.  The traced run
(``--trace 1``) alternates untraced and traced solves, so it also
yields ``trace_overhead``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy

from repro import graphblas as grb
from repro.dist import CommTracker, HybridALPRun, RefDistRun
from repro.hpcg.cg import CGWorkspace, pcg
from repro.hpcg.flops import cg_iteration_flops
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy
from repro.hpcg.problem import Problem, generate_problem
from repro.hpcg.symmetry import validate
from repro.perf.calibrate import measure_triad_bandwidth
from repro.ref.driver import RefHPCGResult, run_ref_hpcg
from repro.util.timer import TimerRegistry, null_timer

from workloads import DIST_BACKENDS, PER_LAYER, TOY, WORKLOADS, Workload

#: A bracket of reference solves spans at least this long (seconds),
#: and at least this share of the solve it follows.
REF_BRACKET_S = 0.25
REF_BRACKET_SHARE = 0.3

#: Elements per triad array (three float64 arrays are streamed).
TRIAD_SIZE = 4_000_000

#: The public CommTracker methods whose self-time the traced dist run
#: records (collectives call ``send``; nested time is not counted twice).
COMM_METHODS = ("send", "broadcast", "allgather", "allreduce_scalar",
                "post", "wait", "sync", "retry")


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# --- inputs ---------------------------------------------------------------

def draw_inputs(problem: Problem, seed: int) -> Tuple[Problem, int]:
    """The seeded right-hand side and the ``validate`` seed.

    ``b = A x*`` with ``x*`` drawn uniformly from [0.5, 1.5); the
    generated problem is otherwise unchanged, so the oracle and every
    backend solve the same system.
    """
    rng = np.random.default_rng(seed)
    exact = grb.Vector.from_dense(rng.uniform(0.5, 1.5, problem.n))
    b = grb.Vector.dense(problem.n)
    grb.mxv(b, None, problem.A, exact)
    return (dataclasses.replace(problem, b=b, exact=exact),
            int(rng.integers(1, 2**31 - 5)))


# --- correctness ----------------------------------------------------------

class Tally:
    """Counts solves and the ones whose checks failed; never raises.

    A solve fails when the problem it ran on did not pass ``validate``,
    when the solve raised, or when any residual history it produced is
    not byte-equal to the oracle's.  With ``perturb`` the first history
    checked has its last residual moved by one ulp, to show a mismatch
    is counted.
    """

    def __init__(self, perturb: bool = False):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._perturb = perturb

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, histories: Dict[str, List[float]],
              oracle: List[float], validated: bool) -> None:
        self.attempted += 1
        bad = []
        for name, history in histories.items():
            if self._perturb:
                history = history[:-1] + [np.nextafter(history[-1], np.inf)]
                self._perturb = False
            if (np.asarray(history, dtype=np.float64).tobytes()
                    != np.asarray(oracle, dtype=np.float64).tobytes()):
                bad.append(name)
        if not validated:
            self._fail("symmetry validation failed on the solved problem")
        elif bad:
            self._fail("residual history differs from the oracle: "
                       + ", ".join(bad))

    def crashed(self, exc: Exception) -> None:
        self.attempted += 1
        self._fail("solve raised: "
                   + "".join(traceback.format_exception_only(exc)).strip())


class Timeline:
    """Timed solves, each between two brackets of ``repro.ref`` solves.

    The host's speed drifts over seconds (other tenants share the
    cores), so ``speedup_vs_ref`` divides each solve by the mean of the
    reference brackets just before and just after it: the pair sees the
    same machine, and the drift cancels in the ratio.
    """

    def __init__(self) -> None:
        self.refs: List[float] = []
        self.solves: List[Tuple[bool, Optional[float]]] = []   # (traced, s)

    def times(self, traced: bool) -> List[float]:
        return [s for t, s in self.solves if t == traced and s is not None]

    def ref_ratios(self) -> List[float]:
        return [(self.refs[k] + self.refs[k + 1]) / 2 / s
                for k, (traced, s) in enumerate(self.solves)
                if not traced and s]


def reference(w: Workload, problem: Problem) -> Tuple[List[float], Callable[[float], float]]:
    """The oracle residual history and a timed bracket of reference solves.

    ``bracket(span)`` repeats ``run_ref_hpcg`` for about ``span``
    seconds and returns the median solve time.  The oracle run sizes the
    repetitions and stays outside every timed solve.
    """
    def ref_solve() -> RefHPCGResult:
        return run_ref_hpcg(w.nx, max_iters=w.iters, tolerance=0.0,
                            mg_levels=w.mg_levels, problem=problem)

    oracle = ref_solve()

    def bracket(span: float) -> float:
        reps = max(1, math.ceil(span / oracle.run_seconds))
        return median([ref_solve().run_seconds for _ in range(reps)])

    return list(oracle.cg.residuals), bracket


def run_timeline(seconds: float, trace: bool,
                 bracket: Callable[[float], float],
                 solve: Callable[[bool], Optional[float]]) -> Timeline:
    """Solve until ``seconds`` have passed, bracketing each solve.

    A bracket spans ``REF_BRACKET_S`` or ``REF_BRACKET_SHARE`` of the
    last solve, whichever is longer.  ``solve(traced)`` returns its wall
    time, or None when it raised.  With ``trace`` untraced and traced
    solves alternate (at least one of each), so both see the same
    machine state and their medians give the tracing overhead.
    """
    timeline = Timeline()
    start = perf_counter()
    timeline.refs.append(bracket(REF_BRACKET_S))
    while (len(timeline.solves) < (2 if trace else 1)
           or perf_counter() - start < seconds):
        traced = trace and len(timeline.solves) % 2 == 1
        elapsed = solve(traced)
        timeline.solves.append((traced, elapsed))
        timeline.refs.append(bracket(max(REF_BRACKET_S,
                                         REF_BRACKET_SHARE * (elapsed or 0.0))))
    return timeline


def common_metrics(timeline: Timeline, flops_per_solve: float,
                   trace: bool) -> Dict[str, float]:
    """The end-to-end solve metrics, or the traced run's shared layers."""
    solve_s = median(timeline.times(False))
    if trace:
        return {
            "ref.solve_s": median(timeline.refs),
            "trace_overhead": (median(timeline.times(True)) / solve_s
                               if solve_s else 0.0),
        }
    return {
        "solve_s": solve_s,
        "gflops": flops_per_solve / solve_s / 1e9 if solve_s else 0.0,
        "speedup_vs_ref": median(timeline.ref_ratios()),
    }


# --- provenance -----------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_bytes() -> int:
    """Size of CPU 0's largest cache, from sysfs (0 when unreadable)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0
    try:
        entries = os.listdir(base)
    except OSError:
        return 0
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20}.get(text[-1:], 1)
        digits = text.rstrip("KM")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best


def _numba_imports() -> bool:
    try:
        importlib.import_module("numba")
    except ImportError:
        return False
    return True


def provenance(substrates: List[str], cpus_usable: int,
               pinned_cpu: int) -> Dict[str, object]:
    cache = os.environ.get("REPRO_TUNE_CACHE", "")
    return {
        "substrates": substrates,
        "numba": _numba_imports(),
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "pinned_cpu": pinned_cpu,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "triad_bytes": 3 * 8 * TRIAD_SIZE,
        "llc_bytes": _llc_bytes(),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
        "tune_cache_empty": bool(cache) and not os.listdir(cache),
        "byte_counts": "computed: GraphBLAS PerfEvent and CommTracker "
                       "records, not hardware counters",
    }


# --- serial workloads -----------------------------------------------------

def run_serial(w: Workload, seed: int, seconds: float, trace: bool,
               tally: Tally) -> Tuple[Dict[str, float], Dict[str, object]]:
    phases: Dict[str, List[float]] = {"generate": [], "build": [],
                                      "validate": []}
    for _ in range(w.setup_reps):
        t0 = perf_counter()
        problem = generate_problem(w.nx)
        t1 = perf_counter()
        problem, validate_seed = draw_inputs(problem, seed)
        t2 = perf_counter()
        hierarchy = build_hierarchy(problem, levels=w.mg_levels)
        precond = MGPreconditioner(hierarchy)
        t3 = perf_counter()
        report = validate(problem.A, precond, seed=validate_seed)
        t4 = perf_counter()
        phases["generate"].append(t1 - t0)
        phases["build"].append(t3 - t2)
        phases["validate"].append(t4 - t3)
    levels = hierarchy.levels()
    triad = measure_triad_bandwidth(size=TRIAD_SIZE) if trace else 0.0
    oracle, bracket = reference(w, problem)

    workspace = CGWorkspace(problem.n)
    timers = TimerRegistry()
    timed_precond = MGPreconditioner(hierarchy, timers=timers)
    log = grb.backend.EventLog()
    label_bytes: Dict[str, int] = {}        # computed bytes, all traced solves
    op_stream = {"ops": 0, "bytes": 0}      # of the last traced solve

    def solve(traced: bool) -> Optional[float]:
        x = problem.x0.dup()
        log.clear()
        try:
            with (grb.backend.collect(log) if traced
                  else contextlib.nullcontext()):
                t = perf_counter()
                result = pcg(problem.A, problem.b, x,
                             preconditioner=timed_precond if traced else precond,
                             max_iters=w.iters, tolerance=0.0,
                             timers=timers if traced else null_timer,
                             workspace=workspace)
                elapsed = perf_counter() - t
        except Exception as exc:  # counted in fail_rate, never a traceback
            tally.crashed(exc)
            return None
        tally.check({"graphblas": result.residuals}, oracle, report.passed)
        if traced:
            for event in log.events:
                label_bytes[event.label] = (label_bytes.get(event.label, 0)
                                            + event.bytes)
            op_stream["ops"] = len(log.events)
            op_stream["bytes"] = log.total("bytes")
        return elapsed

    timeline = run_timeline(seconds, trace, bracket, solve)
    per_iter = cg_iteration_flops(problem.n, problem.A.nvals,
                                  [level.A.nvals for level in levels],
                                  [level.n for level in levels])
    metrics = common_metrics(timeline, per_iter.total * w.iters, trace)
    details = {"substrates": [level.A.substrate for level in levels],
               "setups": w.setup_reps, "timeline": timeline}
    if not trace:
        metrics["setup_s"] = median([sum(p) for p in zip(*phases.values())])
        return metrics, details

    traced_solves = len(timeline.times(True)) or 1

    def per_solve(timer: str) -> float:
        return timers.total(timer) / traced_solves

    def gbps(label: str, timer: str) -> float:
        busy = timers.total(timer)
        return label_bytes.get(label, 0) / busy / 1e9 if busy else 0.0

    metrics.update({
        "problem.generate_s": median(phases["generate"]),
        "mg.build_s": median(phases["build"]),
        "symmetry.validate_s": median(phases["validate"]),
        "cg.spmv_s": per_solve("cg/spmv"),
        "cg.dot_s": per_solve("cg/dot"),
        "cg.waxpby_s": per_solve("cg/waxpby"),
        "cg.spmv_gbps": gbps("spmv", "cg/spmv"),
        "mg.L0.spmv_gbps": gbps("mg_spmv@L0", "mg/L0/spmv"),
        "graphblas.ops": op_stream["ops"],
        "graphblas.bytes": op_stream["bytes"],
        "triad_gbps": triad / 1e9,
    })
    for i in range(w.mg_levels):
        metrics[f"mg.L{i}.rbgs_s"] = per_solve(f"mg/L{i}/rbgs")
        metrics[f"mg.L{i}.rbgs_gbps"] = gbps(f"rbgs@L{i}", f"mg/L{i}/rbgs")
        if i + 1 < w.mg_levels:
            for region in ("spmv", "restrict", "prolong"):
                metrics[f"mg.L{i}.{region}_s"] = per_solve(f"mg/L{i}/{region}")
    return metrics, details


# --- the simulated distributed workload -----------------------------------

class CommProbe:
    """Time inside, and calls to, the public ``CommTracker`` methods.

    Installed only around traced ``run_cg`` calls: it wraps the class
    attributes and puts the originals back on exit.  Only the outermost
    call is timed (``allgather`` calls ``send`` p² times), so the time
    is the comm layer's self-time within the backend; every call is
    counted.  alp-1d makes millions of nested calls per solve, so
    :meth:`self_time` subtracts the wrapper's cost for each, timed on a
    no-op in this process.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.outer_calls = 0
        self._active = False

    def _wrap(self, method):
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            self.calls += 1
            if self._active:
                return method(*args, **kwargs)
            self._active = True
            self.outer_calls += 1
            start = perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - start
                self._active = False
        return wrapper

    def self_time(self, calls: int = 200_000) -> float:
        """Timed seconds less the wrapper's cost on each nested call.

        The cost is timed on a no-op with ``send``'s signature, the
        method nearly every nested call goes to.
        """
        def noop(tracker, src, dst, nbytes, label=None) -> None:
            pass

        calibration = CommProbe()
        calibration._active = True
        wrapped = calibration._wrap(noop)
        t = perf_counter()
        for _ in range(calls):
            noop(self, 0, 1, 8, label="x")
        plain = perf_counter() - t
        t = perf_counter()
        for _ in range(calls):
            wrapped(self, 0, 1, 8, label="x")
        cost = max(0.0, (perf_counter() - t - plain) / calls)
        nested = self.calls - self.outer_calls
        return max(0.0, self.seconds - nested * cost)

    @contextlib.contextmanager
    def installed(self):
        originals = {name: CommTracker.__dict__[name] for name in COMM_METHODS}
        try:
            for name, method in originals.items():
                setattr(CommTracker, name, self._wrap(method))
            yield self
        finally:
            for name, method in originals.items():
                setattr(CommTracker, name, method)


def run_dist(w: Workload, seed: int, seconds: float, trace: bool,
             tally: Tally) -> Tuple[Dict[str, float], Dict[str, object]]:
    classes = dict(zip(DIST_BACKENDS, (HybridALPRun, RefDistRun)))
    generate: List[float] = []
    ctors: Dict[str, List[float]] = {prefix: [] for prefix in classes}
    for _ in range(w.setup_reps):
        t0 = perf_counter()
        problem = generate_problem(w.nx)
        generate.append(perf_counter() - t0)
        problem, _ = draw_inputs(problem, seed)
        backends = {}
        for prefix in classes:
            t = perf_counter()
            backends[prefix] = classes[prefix](problem, w.nprocs,
                                               mg_levels=w.mg_levels)
            ctors[prefix].append(perf_counter() - t)
    triad = measure_triad_bandwidth(size=TRIAD_SIZE) if trace else 0.0
    oracle, bracket = reference(w, problem)

    runs: Dict[str, List[float]] = {prefix: [] for prefix in backends}
    probes = {prefix: CommProbe() for prefix in backends}
    results = {}

    def solve(traced: bool) -> Optional[float]:
        histories = {}
        total = 0.0
        try:
            for prefix, backend in backends.items():
                with (probes[prefix].installed() if traced
                      else contextlib.nullcontext()):
                    t = perf_counter()
                    result = backend.run_cg(max_iters=w.iters, tolerance=0.0)
                    elapsed = perf_counter() - t
                total += elapsed
                histories[prefix] = list(result.residuals)
                if traced:
                    runs[prefix].append(elapsed)
                    results[prefix] = result
        except Exception as exc:  # counted in fail_rate, never a traceback
            tally.crashed(exc)
            return None
        tally.check(histories, oracle, validated=True)
        return total

    timeline = run_timeline(seconds, trace, bracket, solve)
    levels = backends["alp1d"].levels
    per_iter = cg_iteration_flops(problem.n, levels[0].A.nnz,
                                  [level.A.nnz for level in levels],
                                  [level.n for level in levels])
    # one timed solve is a full CG+MG solve on each backend
    metrics = common_metrics(timeline,
                             len(backends) * per_iter.total * w.iters, trace)
    details = {"substrates": [problem.A.substrate], "setups": w.setup_reps,
               "timeline": timeline}
    if not trace:
        metrics["setup_s"] = median([sum(parts) for parts in zip(
            generate, *ctors.values())])
        return metrics, details

    metrics.update({
        "problem.generate_s": median(generate),
        "triad_gbps": triad / 1e9,
    })
    for prefix in backends:
        traced_runs = len(runs[prefix]) or 1
        result = results.get(prefix)
        metrics.update({
            f"dist.{prefix}.ctor_s": median(ctors[prefix]),
            f"dist.{prefix}.run_s": median(runs[prefix]),
            f"dist.{prefix}.comm_self_s":
                probes[prefix].self_time() / traced_runs,
            f"dist.{prefix}.comm_calls": probes[prefix].calls / traced_runs,
            f"dist.{prefix}.modelled_s":
                result.modelled_seconds if result else 0.0,
            f"dist.{prefix}.comm_bytes": result.comm_bytes if result else 0,
            f"dist.{prefix}.supersteps": result.syncs if result else 0,
        })
    return metrics, details


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args(argv)

    # one core for the whole run: migrations between cores made the same
    # solve's time bimodal on a shared host
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(usable)})
    w = (TOY if args.toy else WORKLOADS)[args.workload]
    tally = Tally(perturb=args.perturb)
    run = run_serial if w.kind == "serial" else run_dist
    metrics, details = run(w, args.seed, args.seconds, bool(args.trace), tally)
    if args.trace:
        metrics = {**dict.fromkeys(PER_LAYER, 0.0), **metrics}
    else:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    timeline = details["timeline"]
    print(json.dumps({
        "workload": w.name,
        "size": {"nx": w.nx, "iters": w.iters, "mg_levels": w.mg_levels,
                 "nprocs": w.nprocs},
        "seed": args.seed,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "samples": {"setups": details["setups"],
                    "solves": len(timeline.times(False)),
                    "traced_solves": len(timeline.times(True)),
                    "ref_brackets": len(timeline.refs)},
        "provenance": provenance(details["substrates"], len(usable),
                                 max(usable)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
