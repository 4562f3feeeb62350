"""The HPCG benchmark driver: generation → validation → timed run → report.

Mirrors the phase structure of the official benchmark:

1. **Generation** — build the system and the multigrid hierarchy
   (reported as setup time, excluded from the benchmark figure);
2. **Validation** — spmv/preconditioner symmetry tests (the HPCG spec's
   precondition for the RBGS smoother substitution) and a convergence
   sanity check;
3. **Timed run** — preconditioned CG for a fixed iteration count with
   per-kernel timers;
4. **Report** — GFLOP/s from formula flops, per-kernel and per-MG-level
   breakdowns (the percentages behind the paper's Figures 4-7).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import graphblas as grb
from repro import obs
from repro.grid import Grid3D
from repro.hpcg import flops as flops_mod
from repro.hpcg.cg import CGResult, CGWorkspace, pcg
from repro.hpcg.multigrid import MGLevel, MGPreconditioner, build_hierarchy
from repro.hpcg.problem import Problem, generate_problem
from repro.hpcg.symmetry import SymmetryReport, validate
from repro.util.errors import InvalidValue
from repro.util.timer import TimerRegistry


@dataclass
class HPCGResult:
    """Everything an HPCG run produces."""

    problem: Problem
    cg: CGResult
    symmetry: SymmetryReport
    timers: TimerRegistry
    setup_seconds: float
    run_seconds: float
    flops: flops_mod.FlopCounts
    mg_levels: int
    # with repetitions > 1 (the paper repeats each experiment 10 times
    # and reports averages): per-repetition wall-clock of the timed run
    repetition_seconds: List[float] = field(default_factory=list)

    @property
    def run_seconds_std(self) -> float:
        """Unbiased standard deviation over repetitions (0 for one run)."""
        reps = self.repetition_seconds or [self.run_seconds]
        if len(reps) < 2:
            return 0.0
        mean = sum(reps) / len(reps)
        var = sum((t - mean) ** 2 for t in reps) / (len(reps) - 1)
        return var ** 0.5

    @property
    def gflops(self) -> float:
        return self.flops.total / self.run_seconds / 1e9 if self.run_seconds else 0.0

    @property
    def _timed_total(self) -> float:
        """Wall-clock covered by the timers (all repetitions)."""
        reps = self.repetition_seconds or [self.run_seconds]
        return sum(reps) or 1.0

    def kernel_breakdown(self) -> Dict[str, float]:
        """Fraction of run time per top-level kernel family."""
        total = self._timed_total
        mg = self.timers.total("mg/")
        out = {
            "mg": mg / total,
            "cg/spmv": self.timers.total("cg/spmv") / total,
            "cg/dot": self.timers.total("cg/dot") / total,
            "cg/waxpby": self.timers.total("cg/waxpby") / total,
        }
        return out

    def mg_level_breakdown(self) -> List[Dict[str, float]]:
        """Per-level shares of *total* time: RBGS vs restrict+refine.

        This is exactly the quantity plotted in the paper's Figures 4-7
        ("the percentages refer to the total execution time, and the
        runtime in a given level does not include coarser levels").
        """
        total = self._timed_total
        out = []
        for i in range(self.mg_levels):
            rbgs = self.timers.total(f"mg/L{i}/rbgs")
            rr = self.timers.total(f"mg/L{i}/restrict") + self.timers.total(
                f"mg/L{i}/prolong"
            )
            out.append({"level": i, "rbgs": rbgs / total, "restrict_refine": rr / total})
        return out

    def summary(self) -> str:
        lines = [
            f"HPCG result: grid {self.problem.grid.dims}, n={self.problem.n}",
            f"  validation: spmv_err={self.symmetry.spmv_error:.3e} "
            f"precond_err={self.symmetry.precond_error:.3e} "
            f"passed={self.symmetry.passed}",
            f"  iterations: {self.cg.iterations}, "
            f"final relative residual {self.cg.relative_residual:.3e}",
            f"  setup {self.setup_seconds:.3f}s, run {self.run_seconds:.3f}s, "
            f"{self.gflops:.3f} GFLOP/s (formula flops)",
            "  MG level breakdown (share of total time):",
        ]
        for row in self.mg_level_breakdown():
            lines.append(
                f"    L{row['level']}: rbgs {row['rbgs']:.1%}, "
                f"restrict+refine {row['restrict_refine']:.1%}"
            )
        return "\n".join(lines)


def run_hpcg(
    nx: int,
    ny: int = 0,
    nz: int = 0,
    max_iters: int = 50,
    tolerance: float = 0.0,
    mg_levels: int = 4,
    b_style: str = "reference",
    validate_symmetry: bool = True,
    coloring_scheme: str = "auto",
    problem: Optional[Problem] = None,
    repetitions: int = 1,
) -> HPCGResult:
    """Run the complete HPCG benchmark on GraphBLAS and return the report.

    ``mg_levels`` may be lowered for small grids; pass ``mg_levels=0``
    to run unpreconditioned CG (used by validation and ablations).
    With ``repetitions > 1`` the timed run repeats (fresh ``x`` each
    time, same fixed iteration count — the paper's protocol) and
    ``run_seconds`` is the average; the timers accumulate all
    repetitions, so breakdown *shares* are unaffected.
    """
    t0 = time.perf_counter()
    with obs.span("hpcg/setup", "hpcg",
                  {"nx": nx, "ny": ny, "nz": nz, "mg_levels": mg_levels}):
        if problem is None:
            problem = generate_problem(nx, ny, nz, b_style=b_style)
        timers = TimerRegistry()
        preconditioner = None
        if mg_levels > 0:
            hierarchy = build_hierarchy(problem, levels=mg_levels,
                                        coloring_scheme=coloring_scheme)
            preconditioner = MGPreconditioner(hierarchy, timers=timers)
    setup_seconds = time.perf_counter() - t0

    if validate_symmetry:
        with obs.span("hpcg/validate", "hpcg"):
            sym = validate(problem.A, preconditioner)
        # the validation probes ran the preconditioner under the same
        # timer registry; clear them so the breakdown reflects only the
        # timed run (official HPCG likewise excludes validation).
        timers.reset()
    else:
        sym = SymmetryReport(0.0, 0.0, True, True)

    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    registry = obs.metrics_registry()
    recorder = obs.manifest_recorder()
    if recorder is not None:
        recorder.record_config(
            nx=problem.grid.nx, ny=problem.grid.ny, nz=problem.grid.nz,
            max_iters=max_iters, tolerance=tolerance, mg_levels=mg_levels,
            b_style=b_style, coloring_scheme=coloring_scheme,
            repetitions=repetitions, validate_symmetry=validate_symmetry,
        )
        # the validation probes draw fixed-seed random vectors
        # (symmetry.py defaults); record them for reproducibility
        recorder.record_seed("symmetry_spmv", 7)
        recorder.record_seed("symmetry_precond", 11)
    repetition_seconds: List[float] = []
    cg_result = None
    workspace = CGWorkspace(problem.n)   # shared across repetitions
    x = None
    event_log = None
    for rep in range(repetitions):
        if x is None:
            x = problem.x0.dup()
        else:
            grb.assign(x, None, problem.x0)      # x <- x0, same storage
        with contextlib.ExitStack() as scope:
            scope.enter_context(
                obs.span("hpcg/solve", "hpcg", {"repetition": rep})
            )
            # collect the op stream for the bytes-by-format metric, but
            # never displace a collector someone outside installed (the
            # perf layer's scaling runs own the stream when present)
            if registry is not None and not grb.backend.active():
                if event_log is None:
                    event_log = grb.backend.EventLog()
                scope.enter_context(grb.backend.collect(event_log))
            t1 = time.perf_counter()
            cg_result = pcg(
                problem.A, problem.b, x,
                preconditioner=preconditioner,
                max_iters=max_iters,
                tolerance=tolerance,
                timers=timers,
                workspace=workspace,
            )
            repetition_seconds.append(time.perf_counter() - t1)
    run_seconds = sum(repetition_seconds) / len(repetition_seconds)

    if registry is not None:
        latency = registry.histogram(
            "hpcg_solve_seconds", "wall-clock seconds per timed CG solve")
        for seconds in repetition_seconds:
            latency.observe(seconds)
        registry.counter(
            "cg_iterations_total", "CG iterations across timed solves"
        ).inc(cg_result.iterations * repetitions)
        if event_log is not None:
            by_fmt = registry.counter(
                "graphblas_bytes_by_format",
                "modelled bytes moved, per substrate format")
            for fmt, nbytes in event_log.by_format("bytes").items():
                by_fmt.inc(nbytes, fmt=fmt or "untagged")
            registry.counter(
                "graphblas_ops_total", "GraphBLAS operations executed"
            ).inc(len(event_log.events))

    flops = _count_flops(problem, preconditioner, cg_result.iterations, mg_levels)
    return HPCGResult(
        problem=problem,
        cg=cg_result,
        symmetry=sym,
        timers=timers,
        setup_seconds=setup_seconds,
        run_seconds=run_seconds,
        flops=flops,
        mg_levels=mg_levels,
        repetition_seconds=repetition_seconds,
    )


def _count_flops(
    problem: Problem,
    preconditioner: Optional[MGPreconditioner],
    iterations: int,
    mg_levels: int,
) -> flops_mod.FlopCounts:
    if preconditioner is not None:
        levels: List[MGLevel] = preconditioner.hierarchy.levels()
        nnz_per_level = [lvl.A.nvals for lvl in levels]
        n_per_level = [lvl.n for lvl in levels]
    else:
        nnz_per_level, n_per_level = [], []
    per_iter = flops_mod.cg_iteration_flops(
        problem.n, problem.A.nvals, nnz_per_level, n_per_level
    )
    total = flops_mod.FlopCounts()
    for kernel, count in per_iter.counts.items():
        total.add(kernel, count * max(iterations, 1))
    return total


#: Simulated distributed backends reachable from the CLI.
DIST_BACKENDS = ("ref-3d", "alp-1d", "alp-2d")


def _fail(message: str) -> int:
    """One-line CLI error on stderr, exit code 2 — never a traceback."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _unwritable_artifact(path: str) -> Optional[str]:
    """Why ``path`` cannot be written, or None when it can."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        return f"directory {directory!r} does not exist"
    if not os.access(directory, os.W_OK):
        return f"directory {directory!r} is not writable"
    if os.path.isdir(path):
        return f"{path!r} is a directory"
    return None


def _dist_backend(name: str, problem, args, faults=None):
    from repro.dist import Hybrid2DRun, HybridALPRun, RefDistRun
    cls = {"ref-3d": RefDistRun, "alp-1d": HybridALPRun,
           "alp-2d": Hybrid2DRun}[name]
    mg_levels = min(args.mg_levels, problem.grid.max_mg_levels())
    return cls(problem, args.nprocs, mg_levels=max(mg_levels, 1),
               faults=faults)


def _describe_plan(plan) -> str:
    parts = []
    if plan.stragglers:
        parts.append(f"{len(plan.stragglers)} straggler(s)")
    if plan.node_speeds:
        parts.append(f"{len(plan.node_speeds)} node speed(s)")
    if plan.message_loss is not None:
        parts.append(f"message loss {plan.message_loss.rate:.1%}")
    if plan.crashes:
        parts.append(f"{len(plan.crashes)} crash(es)")
    if plan.checkpoint is not None:
        parts.append(f"checkpoint every {plan.checkpoint.interval} iter(s)")
    return ", ".join(parts) or "empty"


def _run_dist(args, plan) -> int:
    """The driver's simulated-distributed path (``--dist``).

    With an active fault plan, a clean twin of the run prices the
    fault-free baseline so the Resilience section can report the
    degraded-vs-clean time-to-solution honestly.
    """
    problem = generate_problem(args.nx, args.ny, args.nz,
                               b_style=args.b_style)
    result = _dist_backend(args.dist, problem, args, faults=plan).run_cg(
        max_iters=args.iters, tolerance=args.tolerance)
    print(result.summary())
    if plan is not None and plan.active():
        clean = _dist_backend(args.dist, problem, args).run_cg(
            max_iters=args.iters, tolerance=args.tolerance)
        r = result.resilience
        degraded = result.modelled_seconds
        base = clean.modelled_seconds
        overhead = (degraded / base - 1.0) if base else 0.0
        print("Resilience:")
        print(f"  plan: {_describe_plan(plan)} (seed {plan.seed})")
        print(f"  clean time-to-solution:    {base:.6f}s")
        print(f"  degraded time-to-solution: {degraded:.6f}s "
              f"({overhead:+.1%})")
        print(f"  recoveries: {r['recoveries']} "
              f"(re-executed {r['reexecuted_iterations']} iteration(s), "
              f"{r['initial_nprocs']} -> {r['final_nprocs']} nodes)")
        print(f"  checkpoints: {r['checkpoints']} "
              f"({r['checkpoint_seconds']:.6f}s overhead)")
        print(f"  exchange retries: {r['exchange_retries']}")
        print(f"  injected events: {len(r['events'])}")
        print(f"  final residual matches clean run: "
              f"{result.residuals == clean.residuals}")
    if args.timers:
        print(result.timers.report())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: ``repro-hpcg --nx 16 --iters 50``."""
    parser = argparse.ArgumentParser(description="HPCG on GraphBLAS (Python)")
    parser.add_argument("--nx", type=int, default=16)
    parser.add_argument("--ny", type=int, default=0)
    parser.add_argument("--nz", type=int, default=0)
    parser.add_argument("--iters", type=int, default=50)
    parser.add_argument("--tolerance", type=float, default=0.0)
    parser.add_argument("--mg-levels", type=int, default=4)
    parser.add_argument("--b-style", choices=["reference", "ones"],
                        default="reference")
    parser.add_argument("--timers", action="store_true",
                        help="print the full timer table")
    parser.add_argument("--report", action="store_true",
                        help="print an official-HPCG-style YAML report")
    parser.add_argument("--profile", action="store_true",
                        help="attach the cached repro.tune machine "
                             "profile to the report (run `python -m "
                             "repro.tune measure` first)")
    parser.add_argument("--trace-json", metavar="PATH", default=None,
                        help="write a Chrome/Perfetto trace_event JSON "
                             "of the run (implies tracing on)")
    parser.add_argument("--metrics-json", metavar="PATH", default=None,
                        help="write the metrics snapshot as JSON "
                             "(implies tracing on)")
    parser.add_argument("--manifest-json", metavar="PATH", default=None,
                        help="write the run-provenance manifest as JSON "
                             "(implies tracing on)")
    parser.add_argument("--compare-trace", metavar="BASELINE", default=None,
                        help="diff this run's trace against a baseline "
                             "trace.json and print the span-level deltas "
                             "(implies tracing on)")
    parser.add_argument("--serve-metrics", metavar="PORT", type=int,
                        default=None,
                        help="serve live telemetry over HTTP while the "
                             "run executes: /metrics (Prometheus text), "
                             "/healthz, /manifest, /progress; PORT 0 "
                             "picks a free port (implies tracing on)")
    parser.add_argument("--trace-stream", metavar="PATH", default=None,
                        help="stream finished spans to PATH as JSONL "
                             "while the run executes; the partial file "
                             "survives a killed run and obs validate/"
                             "flame/diff accept it (implies tracing on)")
    parser.add_argument("--sample-profile", metavar="HZ", nargs="?",
                        type=float, const=100.0, default=None,
                        help="run the sampling wall-clock profiler at HZ "
                             "(default 100) during the run; prints a "
                             "summary and, with --folded-out, writes "
                             "folded stacks (implies tracing on)")
    parser.add_argument("--folded-out", metavar="PATH", default=None,
                        help="write the sampling profiler's folded "
                             "stacks to PATH (for obs flame/top or "
                             "flamegraph.pl; needs --sample-profile)")
    parser.add_argument("--threads", metavar="N|auto|0", default=None,
                        help="thread count for the parallel kernel lane "
                             "(sets REPRO_THREADS for this run: a count, "
                             "'auto' for the profile-fitted width, '0' to "
                             "kill the lane)")
    parser.add_argument("--dist", choices=DIST_BACKENDS, default=None,
                        help="run the simulated distributed solver with "
                             "this backend instead of the serial benchmark")
    parser.add_argument("--nprocs", type=int, default=4,
                        help="simulated node count for --dist (default 4)")
    parser.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="JSON fault plan for --dist: stragglers, "
                             "node speeds, message loss, crashes, "
                             "checkpoint cadence (see repro.dist.faults); "
                             "adds a Resilience report section")
    parser.add_argument("--push-url", metavar="URL", default=None,
                        help="push the metrics exposition to this "
                             "pushgateway-style URL when the run finishes "
                             "(implies tracing on)")
    parser.add_argument("--push-interval", metavar="SECONDS", type=float,
                        default=None,
                        help="also push periodically during the run, every "
                             "SECONDS (needs --push-url)")
    args = parser.parse_args(argv)
    if args.iters < 0:
        return _fail(f"--iters must be >= 0, got {args.iters}")
    if not args.tolerance >= 0:      # NaN fails too
        return _fail(f"--tolerance must be >= 0, got {args.tolerance}")
    if args.threads is not None:
        from repro.graphblas.substrate import threads as threads_mod
        previous = os.environ.get(threads_mod.ENV_VAR)
        os.environ[threads_mod.ENV_VAR] = args.threads
        try:
            threads_mod.requested()   # fail fast on an unparsable value
        except InvalidValue as exc:
            if previous is None:
                del os.environ[threads_mod.ENV_VAR]
            else:
                os.environ[threads_mod.ENV_VAR] = previous
            return _fail(f"--threads {args.threads}: {exc}")
    # CLI robustness: every artifact/plan problem is a one-line error
    # and exit code 2 — discovered before any solve work starts
    for flag, path in (("--trace-json", args.trace_json),
                       ("--metrics-json", args.metrics_json),
                       ("--manifest-json", args.manifest_json),
                       ("--trace-stream", args.trace_stream),
                       ("--folded-out", args.folded_out)):
        if path is not None:
            why = _unwritable_artifact(path)
            if why is not None:
                return _fail(f"{flag} {path}: {why}")
    if args.faults is not None and args.dist is None:
        return _fail("--faults needs --dist (the fault model applies to "
                     "the simulated distributed solver)")
    if args.push_interval is not None:
        if args.push_url is None:
            return _fail("--push-interval needs --push-url")
        if args.push_interval <= 0:
            return _fail(f"--push-interval must be positive, "
                         f"got {args.push_interval}")
    if args.nprocs < 1:
        return _fail(f"--nprocs must be >= 1, got {args.nprocs}")
    try:
        grid = Grid3D(args.nx, args.ny or args.nx, args.nz or args.nx)
    except InvalidValue as exc:
        return _fail(str(exc))
    if args.dist is None and args.mg_levels > grid.max_mg_levels():
        return _fail(f"--mg-levels {args.mg_levels}: grid {grid.dims} "
                     f"supports at most {grid.max_mg_levels()} MG levels")
    fault_plan = None
    if args.faults is not None:
        from repro.dist import FaultPlan
        try:
            fault_plan = FaultPlan.from_json(args.faults)
            fault_plan.validate_for(args.nprocs)
        except InvalidValue as exc:
            return _fail(str(exc))
    want_artifacts = bool(
        args.trace_json or args.metrics_json or args.manifest_json
        or args.compare_trace or args.serve_metrics is not None
        or args.trace_stream or args.sample_profile is not None
        or args.push_url
    )
    sampler = None
    with contextlib.ExitStack() as scope:
        if want_artifacts:
            # an explicit context so the artifacts cover exactly this
            # run, even when REPRO_TRACE also armed the env context —
            # with the artifact paths doubling as crash-flush targets,
            # so a failing solve still leaves whatever was recorded
            scope.enter_context(obs.run(
                name="hpcg-driver",
                flush_trace=args.trace_json,
                flush_metrics=args.metrics_json,
                flush_manifest=args.manifest_json,
            ))
        live_ctx = obs.current()
        if live_ctx is not None:
            if args.trace_stream:
                sink = obs.StreamingSink(args.trace_stream,
                                         run_id=live_ctx.run_id,
                                         tracer=live_ctx.tracer)
                scope.callback(sink.close)
                print(f"streaming trace -> {args.trace_stream}")
            if args.serve_metrics is not None:
                server = obs.LiveServer(obs.live.context_source(live_ctx),
                                        port=args.serve_metrics)
                server.start()
                scope.callback(server.stop)
                print(f"live telemetry at {server.url} "
                      f"(/metrics /healthz /manifest /progress)")
            if args.sample_profile is not None:
                sampler = obs.SamplingProfiler(hz=args.sample_profile,
                                               tracer=live_ctx.tracer,
                                               registry=live_ctx.metrics)
                scope.enter_context(sampler)
            if args.push_url:
                pusher = obs.MetricsPusher(
                    args.push_url,
                    source=obs.live.context_source(live_ctx).metrics_text,
                    registry=live_ctx.metrics)
                if args.push_interval is not None:
                    scope.enter_context(
                        obs.PeriodicPusher(pusher, args.push_interval))
                    print(f"pushing metrics -> {pusher.target} "
                          f"every {args.push_interval:g}s")
                else:
                    # one push on the way out (crash-safe: the stack
                    # unwinds even when the solve raises)
                    scope.callback(pusher.push)
                    print(f"pushing metrics -> {pusher.target} on exit")
        result = None
        if args.dist is not None:
            _run_dist(args, fault_plan)
        else:
            result = run_hpcg(
                args.nx, args.ny, args.nz,
                max_iters=args.iters,
                tolerance=args.tolerance,
                mg_levels=args.mg_levels,
                b_style=args.b_style,
            )
        obs_ctx = obs.current()   # env-armed context when no flag given
    if result is not None:
        print(result.summary())
    profile = None
    if args.profile:
        from repro.tune import cache as tune_cache
        profile = tune_cache.current_profile()
        if profile is None:
            print("(no machine profile cached; run "
                  "`python -m repro.tune measure`)")
        else:
            print(f"machine profile: {profile.name} "
                  f"(triad {profile.triad_bandwidth / 1e9:.2f} GB/s)")
    if obs_ctx is not None:
        print(f"observability: run {obs_ctx.run_id}: "
              f"{len(obs_ctx.tracer.spans)} spans "
              f"({obs_ctx.tracer.dropped} dropped), "
              f"{len(obs_ctx.metrics.names())} metrics")
        for d in obs_ctx.manifest.decisions:
            if d.get("contradicts_profile"):
                print(f"  substrate {d['nrows']}x{d['ncols']} "
                      f"(nnz {d['nnz']}): {d['chosen']} ({d['reason']}) "
                      f"contradicts the profile's {d['profile_choice']}")
        if args.trace_json:
            print(f"  trace   -> {obs.export.write_trace(args.trace_json, obs_ctx)}")
        if args.metrics_json:
            print(f"  metrics -> {obs.export.write_metrics(args.metrics_json, obs_ctx)}")
        if args.manifest_json:
            print(f"  manifest-> "
                  f"{obs.export.write_manifest(args.manifest_json, obs_ctx.build_manifest())}")
    if sampler is not None:
        print(f"sampling profiler: {sampler.summary()}")
        if args.folded_out:
            folded = sampler.folded_stacks()
            with open(args.folded_out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(obs.flame.folded_lines(folded)) + "\n")
            print(f"  folded  -> {args.folded_out}")
    trace_diff = None
    if args.compare_trace and obs_ctx is not None:
        trace_diff = obs.analyze.diff_traces(
            args.compare_trace, obs_ctx.tracer.as_dicts())
        print(f"trace comparison vs {args.compare_trace}:")
        print(obs.analyze.format_table(trace_diff, top=10))
        print(f"attribution: {obs.analyze.summarize(trace_diff)}")
    if args.timers and result is not None:
        print(result.timers.report())
    if args.report:
        if result is None:
            print("(--report covers the serial benchmark; dist runs "
                  "print their own summary and Resilience section)")
        else:
            from repro.hpcg.report import render_report
            print(render_report(result, profile=profile, obs_ctx=obs_ctx,
                                trace_diff=trace_diff,
                                trace_baseline=args.compare_trace))
    if result is None:
        return 0
    return 0 if result.symmetry.passed else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
