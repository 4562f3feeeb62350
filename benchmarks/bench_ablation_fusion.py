"""Ablation: the fused RBGS colour step (nonblocking ALP, paper ref. [32]).

Wall-clock comparison of ``RBGSSmoother``'s two pinned paths — the
blocking mxv+eWiseLambda transcription (``fused=False``) against the
fused ``ColorSweepPlan`` sweep (``fused=True``) — plus the exact
memory-traffic delta from the event log.
"""

import numpy as np
import pytest

from repro import graphblas as grb
from repro.experiments.ablations import fusion_ablation
from repro.hpcg.coloring import color_masks, lattice_coloring
from repro.hpcg.smoothers import RBGSSmoother


@pytest.fixture(scope="module")
def setup(problem16, rhs16):
    masks = color_masks(lattice_coloring(problem16.grid))
    return problem16, masks, grb.Vector.from_dense(rhs16)


def bench_rbgs_unfused(benchmark, setup):
    problem, masks, r = setup
    smoother = RBGSSmoother(problem.A, problem.A_diag, masks, fused=False)
    z = grb.Vector.dense(problem.n, 0.0)
    benchmark(smoother.smooth, z, r)


def bench_rbgs_fused(benchmark, setup):
    problem, masks, r = setup
    smoother = RBGSSmoother(problem.A, problem.A_diag, masks, fused=True)
    z = grb.Vector.dense(problem.n, 0.0)
    benchmark(smoother.smooth, z, r)


def bench_fusion_traffic_delta(benchmark):
    result = benchmark.pedantic(fusion_ablation, kwargs={"nx": 16},
                                rounds=1, iterations=1)
    assert result.identical_result
    assert result.fused_bytes < result.unfused_bytes
    print(f"\nfusion saves {result.savings:.1%} of memory traffic "
          f"({result.unfused_bytes} -> {result.fused_bytes} bytes)")
