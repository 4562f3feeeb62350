"""Smoothers: RBGS (GraphBLAS, both paths), Jacobi, and Ref equivalence."""

import numpy as np
import pytest

from repro import graphblas as grb
from repro.graphblas import fused as fused_mod
from repro.hpcg.coloring import color_masks, lattice_coloring
from repro.hpcg.smoothers import JacobiSmoother, RBGSSmoother
from repro.ref.sgs import RefRBGS
from repro.util.errors import DimensionMismatch, InvalidValue


@pytest.fixture()
def setup8(problem8, rng):
    colors = color_masks(lattice_coloring(problem8.grid))
    r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
    return problem8, colors, r


class TestRBGS:
    def test_reduces_residual(self, setup8):
        problem, colors, r = setup8
        smoother = RBGSSmoother(problem.A, problem.A_diag, colors)
        z = grb.Vector.dense(problem.n, 0.0)
        smoother.smooth(z, r)
        A = problem.A.to_scipy()
        res = np.linalg.norm(r.to_dense() - A @ z.to_dense())
        assert res < np.linalg.norm(r.to_dense())

    def test_more_sweeps_smaller_residual(self, setup8):
        problem, colors, r = setup8
        smoother = RBGSSmoother(problem.A, problem.A_diag, colors)
        A = problem.A.to_scipy()
        rd = r.to_dense()
        res = []
        z = grb.Vector.dense(problem.n, 0.0)
        for sweeps in range(1, 4):
            smoother.smooth(z, r)
            res.append(np.linalg.norm(rd - A @ z.to_dense()))
        assert res[0] > res[1] > res[2]

    def test_matches_ref_rbgs_exactly(self, setup8):
        problem, colors, r = setup8
        smoother = RBGSSmoother(problem.A, problem.A_diag, colors)
        z = grb.Vector.dense(problem.n, 0.0)
        smoother.smooth(z, r, sweeps=2)

        ref = RefRBGS(problem.A.to_scipy(), lattice_coloring(problem.grid))
        z_ref = np.zeros(problem.n)
        ref.smooth(z_ref, r.to_dense(), sweeps=2)
        np.testing.assert_array_equal(z.to_dense(), z_ref)

    def test_forward_only_differs_from_symmetric(self, setup8):
        problem, colors, r = setup8
        s = RBGSSmoother(problem.A, problem.A_diag, colors)
        z1 = grb.Vector.dense(problem.n, 0.0)
        z2 = grb.Vector.dense(problem.n, 0.0)
        s.forward(z1, r)
        s.smooth(z2, r)
        assert not np.array_equal(z1.to_dense(), z2.to_dense())

    def test_exact_on_diagonal_matrix(self):
        # with a diagonal operator one sweep solves exactly
        D = grb.Matrix.from_dense(np.diag([2.0, 4.0, 8.0]))
        diag = D.diag()
        mask = grb.Vector.from_coo([0, 1, 2], [True] * 3, 3, dtype=bool)
        s = RBGSSmoother(D, diag, [mask])
        r = grb.Vector.from_dense([2.0, 8.0, 32.0])
        z = grb.Vector.dense(3, 0.0)
        s.forward(z, r)
        np.testing.assert_allclose(z.to_dense(), [1.0, 2.0, 4.0])

    def test_dimension_checks(self, setup8):
        problem, colors, r = setup8
        s = RBGSSmoother(problem.A, problem.A_diag, colors)
        with pytest.raises(DimensionMismatch):
            s.smooth(grb.Vector.dense(3), r)

    def test_rejects_empty_colors(self, problem8):
        with pytest.raises(InvalidValue):
            RBGSSmoother(problem8.A, problem8.A_diag, [])

    def test_rejects_bad_diag_size(self, problem8):
        colors = color_masks(lattice_coloring(problem8.grid))
        with pytest.raises(DimensionMismatch):
            RBGSSmoother(problem8.A, grb.Vector.dense(3), colors)

    def test_rejects_rectangular(self):
        R = grb.Matrix.from_coo([0], [1], [1.0], 2, 3)
        with pytest.raises(InvalidValue):
            RBGSSmoother(R, grb.Vector.dense(2), [grb.Vector.sparse(2, dtype=bool)])


class TestFusedRBGS:
    """``RBGSSmoother``'s two pinned paths: the fused ``ColorSweepPlan``
    sweep against the Listing 2/3 transcription it must reproduce."""

    def test_bit_identical_to_unfused(self, setup8, monkeypatch):
        monkeypatch.delenv(fused_mod.ENV_FUSED, raising=False)
        problem, colors, r = setup8
        base = RBGSSmoother(problem.A, problem.A_diag, colors, fused=False)
        fused = RBGSSmoother(problem.A, problem.A_diag, colors, fused=True)
        z1 = grb.Vector.dense(problem.n, 0.0)
        z2 = grb.Vector.dense(problem.n, 0.0)
        base.smooth(z1, r, sweeps=2)
        fused.smooth(z2, r, sweeps=2)
        np.testing.assert_array_equal(z1.to_dense(), z2.to_dense())

    def test_fused_moves_fewer_bytes(self, setup8, monkeypatch):
        # an armed plan honours the kill switch per call
        monkeypatch.delenv(fused_mod.ENV_FUSED, raising=False)
        problem, colors, r = setup8
        base = RBGSSmoother(problem.A, problem.A_diag, colors, fused=False)
        fused = RBGSSmoother(problem.A, problem.A_diag, colors, fused=True)
        logs = []
        for smoother in (base, fused):
            z = grb.Vector.dense(problem.n, 0.0)
            log = grb.backend.EventLog()
            with grb.backend.collect(log):
                smoother.smooth(z, r)
            logs.append(log.total("bytes"))
        assert logs[1] < logs[0]

    def test_rejects_empty_colors(self, problem8):
        for fused in (True, False):
            with pytest.raises(InvalidValue):
                RBGSSmoother(problem8.A, problem8.A_diag, [], fused=fused)


class TestJacobi:
    def test_reduces_residual(self, setup8):
        problem, colors, r = setup8
        s = JacobiSmoother(problem.A, problem.A_diag)
        z = grb.Vector.dense(problem.n, 0.0)
        s.smooth(z, r, sweeps=3)
        A = problem.A.to_scipy()
        res = np.linalg.norm(r.to_dense() - A @ z.to_dense())
        assert res < np.linalg.norm(r.to_dense())

    def test_weaker_than_rbgs(self, setup8):
        problem, colors, r = setup8
        A = problem.A.to_scipy()
        rd = r.to_dense()
        z_j = grb.Vector.dense(problem.n, 0.0)
        JacobiSmoother(problem.A, problem.A_diag).smooth(z_j, r)
        z_g = grb.Vector.dense(problem.n, 0.0)
        RBGSSmoother(problem.A, problem.A_diag, colors).smooth(z_g, r)
        res_j = np.linalg.norm(rd - A @ z_j.to_dense())
        res_g = np.linalg.norm(rd - A @ z_g.to_dense())
        assert res_g < res_j

    def test_bad_omega(self, problem8):
        with pytest.raises(InvalidValue):
            JacobiSmoother(problem8.A, problem8.A_diag, omega=0.0)
        with pytest.raises(InvalidValue):
            JacobiSmoother(problem8.A, problem8.A_diag, omega=1.5)
