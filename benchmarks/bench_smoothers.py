"""Smoother benchmarks: the RBGS formulations and the sequential SYMGS.

This is the paper's Section III-A in numbers: the masked-mxv RBGS
(GraphBLAS, the literal Listing 2/3 transcription), the direct-slicing
RBGS (Ref), the fused ``ColorSweepPlan`` sweep ([32]), and the
inherently sequential SYMGS baseline.
"""

import numpy as np
import pytest

from repro import graphblas as grb
from repro.hpcg.coloring import color_masks, lattice_coloring
from repro.hpcg.smoothers import JacobiSmoother, RBGSSmoother
from repro.ref.sgs import RefRBGS, RefSymGS


@pytest.fixture(scope="module")
def setup(problem16, rhs16):
    colors = lattice_coloring(problem16.grid)
    return {
        "problem": problem16,
        "colors": colors,
        "masks": color_masks(colors),
        "r_g": grb.Vector.from_dense(rhs16),
        "r_n": rhs16,
    }


def bench_rbgs_alp(benchmark, setup):
    p = setup["problem"]
    smoother = RBGSSmoother(p.A, p.A_diag, setup["masks"], fused=False)
    z = grb.Vector.dense(p.n, 0.0)
    benchmark(smoother.smooth, z, setup["r_g"])


def bench_rbgs_fused(benchmark, setup):
    p = setup["problem"]
    smoother = RBGSSmoother(p.A, p.A_diag, setup["masks"], fused=True)
    z = grb.Vector.dense(p.n, 0.0)
    benchmark(smoother.smooth, z, setup["r_g"])


def bench_rbgs_ref(benchmark, setup):
    p = setup["problem"]
    smoother = RefRBGS(p.A.to_scipy(copy=False), setup["colors"])
    z = np.zeros(p.n)
    benchmark(smoother.smooth, z, setup["r_n"])


def bench_symgs_sequential(benchmark, setup):
    p = setup["problem"]
    smoother = RefSymGS(p.A.to_scipy(copy=False))
    z = np.zeros(p.n)
    benchmark(smoother.smooth, z, setup["r_n"])


def bench_jacobi(benchmark, setup):
    p = setup["problem"]
    smoother = JacobiSmoother(p.A, p.A_diag)
    z = grb.Vector.dense(p.n, 0.0)
    benchmark(smoother.smooth, z, setup["r_g"])
