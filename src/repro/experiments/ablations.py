"""Ablations for the design choices and future-work directions.

Four studies, each mapped to a paper section:

* **distribution** (§VII-B i-iv): per-node communication of one mxv
  under 1D block-cyclic (current ALP), a 2D block distribution
  (solution ii, analytic n/√p·(√p−1)), the geometric 3D partition
  (what Ref knows), and a black-box BFS partition (solution iv,
  measured from structure alone).
* **fusion** (§VI / ref. [32]): memory traffic of RBGS sweeps through
  the one production smoother, :class:`RBGSSmoother` — its literal
  masked-mxv + eWiseLambda transcription (``fused=False``) against its
  fused ``ColorSweepPlan`` path (``fused=True``, priced as
  ``fused_mxv_lambda`` events).
* **smoothers** (§III-A): CG iterations to tolerance with RBGS vs
  damped Jacobi vs the exact sequential SYMGS — showing RBGS costs a
  few extra iterations vs SYMGS but parallelises, and beats Jacobi.
* **colouring** (§III-A): colour counts of greedy under natural,
  random and lattice orders — natural order achieves the optimal 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro import graphblas as grb
from repro.dist.partition import (
    BlockCyclic1D,
    Grid3DPartition,
    bfs_partition,
    factor3,
    halo_for_owners,
)
from repro.experiments.common import format_table
from repro.hpcg.coloring import color_masks, greedy_coloring, lattice_coloring, num_colors
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy
from repro.hpcg.cg import pcg
from repro.hpcg.problem import generate_problem
from repro.hpcg.smoothers import JacobiSmoother, RBGSSmoother
from repro.ref.cg import ref_pcg
from repro.ref.multigrid import RefMGPreconditioner, build_ref_hierarchy


# ---------------------------------------------------------------------------
# distribution ablation
# ---------------------------------------------------------------------------

@dataclass
class DistributionRow:
    scheme: str
    max_send_values: int      # busiest node, one mxv, in vector values
    note: str = ""


def distribution_ablation(local_nx: int = 16, p: int = 4) -> List[DistributionRow]:
    px, py, pz = factor3(p)
    problem = generate_problem(local_nx * px, local_nx * py, local_nx * pz)
    n = problem.n
    csr = problem.A.to_scipy(copy=False)
    rows: List[DistributionRow] = []

    # 1D block-cyclic: full allgather (what the hybrid backend does).
    part1d = BlockCyclic1D(n, p)
    send_1d = max(part1d.local_size(k) for k in range(p)) * (p - 1)
    rows.append(DistributionRow("1D block-cyclic (ALP)", send_1d,
                                "n/p x (p-1) allgather"))

    # 2D block distribution (paper solution ii), *executed*: column
    # broadcast + row reduction, n/√p (√p - 1) per node per superstep.
    q = int(round(math.sqrt(p)))
    if q * q == p:
        from repro.dist.hybrid2d import Hybrid2DRun
        run2d = Hybrid2DRun(problem, nprocs=p, mg_levels=1)
        res2d = run2d.run_cg(max_iters=1, use_mg=False)
        rows.append(DistributionRow(
            "2D block (solution ii)",
            res2d.tracker.max_send_per_node() // 8,
            "n/sqrt(p) x (sqrt(p)-1), measured",
        ))

    # geometric 3D (Ref): measured halo from the structure.
    part3d = Grid3DPartition(problem.grid, p)
    halos = part3d.halo_exchanges(csr.indptr, csr.indices)
    send_3d = np.zeros(p, dtype=np.int64)
    for (src, _dst), idxs in halos.items():
        send_3d[src] += idxs.size
    rows.append(DistributionRow("geometric 3D (Ref)", int(send_3d.max()),
                                "measured halo"))

    # black-box BFS partition (solution iv): measured halo, no geometry.
    owners = bfs_partition(csr.indptr, csr.indices, n, p)
    halos_bfs = halo_for_owners(csr.indptr, csr.indices, owners, p)
    send_bfs = np.zeros(p, dtype=np.int64)
    for (src, _dst), idxs in halos_bfs.items():
        send_bfs[src] += idxs.size
    rows.append(DistributionRow("black-box BFS (solution iv)",
                                int(send_bfs.max()), "measured halo"))
    return rows


@dataclass
class WeakScaling2DRow:
    p: int
    n: int
    seconds_1d: float
    seconds_2d: float
    seconds_ref: float


def weak_scaling_2d(local_nx: int = 16,
                    ps: tuple = (4, 9)) -> List[WeakScaling2DRow]:
    """Weak scaling of 1D vs 2D vs geometric Ref (square node counts).

    The executed version of the paper's solution-ii discussion: the 2D
    distribution reduces traffic by a constant factor but doubles the
    barriers and both ALP variants remain Θ(n) per node — only the
    geometric partition weak-scales.
    """
    from repro.dist.hybrid2d import Hybrid2DRun
    from repro.dist.hybrid import HybridALPRun
    from repro.dist.refdist import RefDistRun
    from repro.dist.partition import factor3
    rows = []
    for p in ps:
        q = int(round(math.sqrt(p)))
        if q * q != p:
            raise ValueError(f"weak_scaling_2d needs square p, got {p}")
        px, py, pz = factor3(p)
        problem = generate_problem(local_nx * px, local_nx * py, local_nx * pz)
        r1 = HybridALPRun(problem, nprocs=p, mg_levels=3).run_cg(max_iters=2)
        r2 = Hybrid2DRun(problem, nprocs=p, mg_levels=3).run_cg(max_iters=2)
        rr = RefDistRun(problem, nprocs=p, mg_levels=3).run_cg(max_iters=2)
        rows.append(WeakScaling2DRow(
            p=p, n=problem.n,
            seconds_1d=r1.modelled_seconds,
            seconds_2d=r2.modelled_seconds,
            seconds_ref=rr.modelled_seconds,
        ))
    return rows


# ---------------------------------------------------------------------------
# fusion ablation
# ---------------------------------------------------------------------------

@dataclass
class FusionResult:
    unfused_bytes: int
    fused_bytes: int
    identical_result: bool

    @property
    def savings(self) -> float:
        return 1.0 - self.fused_bytes / self.unfused_bytes


def fusion_ablation(nx: int = 16, sweeps: int = 2) -> FusionResult:
    problem = generate_problem(nx)
    colors = color_masks(lattice_coloring(problem.grid))
    rng = np.random.default_rng(3)
    r = grb.Vector.from_dense(rng.standard_normal(problem.n))

    # both arms pinned: the default follows REPRO_FUSED, which would
    # make the comparison vacuous under either setting
    base = RBGSSmoother(problem.A, problem.A_diag, colors, fused=False)
    fused = RBGSSmoother(problem.A, problem.A_diag, colors, fused=True)

    z1 = grb.Vector.dense(problem.n, 0.0)
    log1 = grb.backend.EventLog()
    with grb.backend.collect(log1):
        base.smooth(z1, r, sweeps=sweeps)

    z2 = grb.Vector.dense(problem.n, 0.0)
    log2 = grb.backend.EventLog()
    with grb.backend.collect(log2):
        fused.smooth(z2, r, sweeps=sweeps)

    return FusionResult(
        unfused_bytes=log1.total("bytes"),
        fused_bytes=log2.total("bytes"),
        identical_result=bool(
            np.array_equal(z1.to_dense(), z2.to_dense())
        ),
    )


# ---------------------------------------------------------------------------
# smoother ablation
# ---------------------------------------------------------------------------

@dataclass
class SmootherRow:
    smoother: str
    iterations: int
    converged: bool
    final_relative_residual: float


def smoother_ablation(nx: int = 16, tolerance: float = 1e-8,
                      max_iters: int = 100, mg_levels: int = 3
                      ) -> List[SmootherRow]:
    rows: List[SmootherRow] = []
    # GraphBLAS RBGS and Jacobi
    for name, factory in (
        ("rbgs", RBGSSmoother),
        ("jacobi", lambda A, d, c: JacobiSmoother(A, d)),
    ):
        problem = generate_problem(nx)
        hierarchy = build_hierarchy(problem, levels=mg_levels,
                                    smoother_factory=factory)
        x = problem.x0.dup()
        res = pcg(problem.A, problem.b, x,
                  preconditioner=MGPreconditioner(hierarchy),
                  max_iters=max_iters, tolerance=tolerance)
        rows.append(SmootherRow(name, res.iterations, res.converged,
                                res.relative_residual))
    # exact sequential SYMGS (reference smoother)
    problem = generate_problem(nx)
    hierarchy = build_ref_hierarchy(problem, levels=mg_levels, smoother="symgs")
    A = problem.A.to_scipy(copy=False)
    x = problem.x0.to_dense()
    res = ref_pcg(A, problem.b.to_dense(), x,
                  preconditioner=RefMGPreconditioner(hierarchy),
                  max_iters=max_iters, tolerance=tolerance)
    rows.append(SmootherRow("symgs (sequential)", res.iterations,
                            res.converged, res.relative_residual))
    return rows


# ---------------------------------------------------------------------------
# colouring ablation
# ---------------------------------------------------------------------------

@dataclass
class ColoringRow:
    order: str
    colors: int


def coloring_ablation(nx: int = 12, seeds: int = 3) -> List[ColoringRow]:
    problem = generate_problem(nx)
    rows = [
        ColoringRow("natural (paper)", num_colors(greedy_coloring(problem.A))),
        ColoringRow("lattice parity", num_colors(lattice_coloring(problem.grid))),
    ]
    n = problem.n
    worst = 0
    for seed in range(seeds):
        order = np.random.default_rng(seed).permutation(n)
        worst = max(worst, num_colors(greedy_coloring(problem.A, order=order)))
    rows.append(ColoringRow(f"random order (worst of {seeds})", worst))
    return rows


# ---------------------------------------------------------------------------
# bundle
# ---------------------------------------------------------------------------

@dataclass
class AblationResults:
    distribution: List[DistributionRow] = field(default_factory=list)
    fusion: FusionResult = None
    smoothers: List[SmootherRow] = field(default_factory=list)
    coloring: List[ColoringRow] = field(default_factory=list)
    weak_2d: List[WeakScaling2DRow] = field(default_factory=list)


def run(local_nx: int = 12, p: int = 4) -> AblationResults:
    return AblationResults(
        distribution=distribution_ablation(local_nx, p),
        fusion=fusion_ablation(local_nx),
        smoothers=smoother_ablation(local_nx),
        coloring=coloring_ablation(local_nx),
        weak_2d=weak_scaling_2d(local_nx=8),
    )


def render(results: AblationResults) -> str:
    parts = [
        "Ablation A — matrix distribution vs one-mxv communication "
        "(values sent by the busiest node)",
        format_table(
            ["scheme", "max send (values)", "note"],
            [(r.scheme, r.max_send_values, r.note) for r in results.distribution],
        ),
        "",
        "Ablation B — RBGS colour-step fusion (nonblocking ALP, ref. [32])",
        format_table(
            ["variant", "bytes"],
            [
                ("mxv + eWiseLambda (blocking)", results.fusion.unfused_bytes),
                ("fused ColorSweepPlan sweep", results.fusion.fused_bytes),
            ],
        ),
        f"traffic saved by fusion: {results.fusion.savings:.1%} "
        f"(bit-identical result: {results.fusion.identical_result})",
        "",
        "Ablation C — smoother choice vs CG iterations to 1e-8",
        format_table(
            ["smoother", "iterations", "converged", "final rel. residual"],
            [
                (r.smoother, r.iterations, r.converged,
                 r.final_relative_residual)
                for r in results.smoothers
            ],
        ),
        "",
        "Ablation D — greedy colouring order vs colour count (8 is optimal)",
        format_table(
            ["visit order", "colours"],
            [(r.order, r.colors) for r in results.coloring],
        ),
    ]
    if results.weak_2d:
        parts.extend([
            "",
            "Ablation E — weak scaling: 1D vs 2D (solution ii) vs "
            "geometric Ref (modelled seconds)",
            format_table(
                ["p", "n", "1D", "2D", "Ref"],
                [(r.p, r.n, r.seconds_1d, r.seconds_2d, r.seconds_ref)
                 for r in results.weak_2d],
            ),
        ])
    return "\n".join(parts)
