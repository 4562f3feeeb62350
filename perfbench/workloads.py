"""The benchmark's named workloads and the metrics it reports.

Plain data, imported by both the launcher (``run.py``) and the
measuring process (``harness.py``); it imports nothing from ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple


@dataclass(frozen=True)
class Workload:
    """One workload: a problem size and how to time it."""

    name: str
    kind: str               # "serial" (GraphBLAS HPCG) or "dist" (simulated)
    nx: int                 # cube edge of the global grid
    iters: int              # fixed CG iterations per solve (tolerance 0)
    mg_levels: int
    setup_reps: int         # set-ups per run; setup_s is their median
    nprocs: int = 0         # simulated nodes (dist only)


#: Why each was chosen is recorded in BENCHMARK.json and README.md:
#: hpcg-32 is the smallest cube where the default substrate switch fires
#: (L0 on blocked); hpcg-16 sits below it, bound by per-call overhead;
#: dist-p64 bypasses the substrate and is dominated by dist.comm.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("hpcg-32", "serial", nx=32, iters=50, mg_levels=4,
             setup_reps=3),
    Workload("hpcg-16", "serial", nx=16, iters=50, mg_levels=4,
             setup_reps=7),
    Workload("dist-p64", "dist", nx=32, iters=5, mg_levels=4,
             setup_reps=3, nprocs=64),
)}

#: Toy sizes for the self-test: every code path, a few seconds in all.
TOY: Dict[str, Workload] = {
    "hpcg-32": replace(WORKLOADS["hpcg-32"], nx=8, iters=2, setup_reps=2),
    "hpcg-16": replace(WORKLOADS["hpcg-16"], nx=8, iters=2, setup_reps=2),
    "dist-p64": replace(WORKLOADS["dist-p64"], nx=16, iters=2, nprocs=8,
                        setup_reps=2),
}

#: End-to-end metrics, printed with tracing off and bounded in
#: BENCHMARK.json: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "speedup_vs_ref": "x",
    "peak_rss_mb": "MB",
}

#: Printed beside them but not bounded: raw solve times drift with the
#: host's speed by more than any bound a gate could use (README.md).
UNBOUNDED: Dict[str, str] = {
    "solve_s": "s",
    "gflops": "GFLOP/s",
}

#: Metric prefixes of the dist backends, in run order: alp-1d, ref-3d.
DIST_BACKENDS: Tuple[str, ...] = ("alp1d", "ref3d")


def _per_layer() -> Dict[str, str]:
    units = {
        "problem.generate_s": "s",
        "mg.build_s": "s",
        "symmetry.validate_s": "s",
    }
    for i in range(4):
        units[f"mg.L{i}.rbgs_s"] = "s"
        units[f"mg.L{i}.rbgs_gbps"] = "GB/s-computed"
    for i in range(3):
        for region in ("spmv", "restrict", "prolong"):
            units[f"mg.L{i}.{region}_s"] = "s"
    units["mg.L0.spmv_gbps"] = "GB/s-computed"
    for region in ("spmv", "dot", "waxpby"):
        units[f"cg.{region}_s"] = "s"
    units["cg.spmv_gbps"] = "GB/s-computed"
    units["graphblas.ops"] = "count"
    units["graphblas.bytes"] = "B-computed"
    units["triad_gbps"] = "GB/s"
    for prefix in DIST_BACKENDS:
        units[f"dist.{prefix}.ctor_s"] = "s"
        units[f"dist.{prefix}.run_s"] = "s"
        units[f"dist.{prefix}.comm_self_s"] = "s"
        units[f"dist.{prefix}.comm_calls"] = "count"
        units[f"dist.{prefix}.modelled_s"] = "s-modelled"
        units[f"dist.{prefix}.comm_bytes"] = "B-computed"
        units[f"dist.{prefix}.supersteps"] = "count"
    units["ref.solve_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


#: Per-layer metrics, printed by the traced run: name -> unit.  A layer
#: a workload does not run reads 0 (the dist layers on serial
#: workloads, the GraphBLAS solver layers on dist-p64).
PER_LAYER: Dict[str, str] = _per_layer()
