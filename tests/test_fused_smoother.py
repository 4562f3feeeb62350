"""The fused smoother fast path: bit-exactness, fallback, and the lane.

The fused-sweep contract, enforced per provider × colouring × sweep
order: :class:`RBGSSmoother`'s fast path (the provider's prebuilt
:class:`~repro.graphblas.substrate.base.ColorSweep`) must produce
iterates bit-identical — values *and* signed zeros — to the reference
Listing 2/3 transcription, whole CG residual histories included; the
``REPRO_FUSED=0`` kill switch must restore the reference path; and the
optional numba jit lane must be invisible whichever way it is switched
(tests for the compiled side skip when numba is absent — the CI
``fused`` leg installs it).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import graphblas as grb
from repro.graphblas import fused as fused_mod
from repro.graphblas import substrate
from repro.graphblas.substrate import jit
from repro.hpcg.cg import CGWorkspace, pcg
from repro.hpcg.coloring import color_masks, greedy_coloring, lattice_coloring
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy
from repro.hpcg.smoothers import RBGSSmoother

PROVIDERS = list(substrate.available())

common = settings(max_examples=20,
                  suppress_health_check=[HealthCheck.too_slow], deadline=None)


def assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def smoother_pair(A, diag, masks):
    """(fused fast path, pinned reference transcription) smoothers."""
    return (
        RBGSSmoother(A, diag, masks, fused=True),
        RBGSSmoother(A, diag, masks, fused=False),
    )


def run_both(fused, ref, n, r, op, sweeps=2):
    z1 = grb.Vector.dense(n, 0.0)
    z2 = grb.Vector.dense(n, 0.0)
    if op == "smooth":
        fused.smooth(z1, r, sweeps=sweeps)
        ref.smooth(z2, r, sweeps=sweeps)
    else:
        for _ in range(sweeps):
            getattr(fused, op)(z1, r)
            getattr(ref, op)(z2, r)
    return z1.to_dense(), z2.to_dense()


# ---------------------------------------------------------------------------
# bit-exactness across providers, colourings, sweep orders
# ---------------------------------------------------------------------------

class TestFusedBitExact:
    @pytest.mark.parametrize("name", PROVIDERS)
    @pytest.mark.parametrize("op", ["forward", "backward", "smooth"])
    def test_stencil_lattice_coloring(self, problem8, rng, name, op):
        A = grb.Matrix.from_scipy(problem8.A.to_scipy(), substrate=name)
        masks = color_masks(lattice_coloring(problem8.grid))
        fused, ref = smoother_pair(A, problem8.A_diag, masks)
        assert fused.fused_active and not ref.fused_active
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        assert_bit_identical(*run_both(fused, ref, problem8.n, r, op))

    @pytest.mark.parametrize("name", PROVIDERS)
    def test_greedy_coloring(self, problem8, rng, name):
        A = grb.Matrix.from_scipy(problem8.A.to_scipy(), substrate=name)
        masks = color_masks(greedy_coloring(problem8.A))
        fused, ref = smoother_pair(A, problem8.A_diag, masks)
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        assert_bit_identical(*run_both(fused, ref, problem8.n, r, "smooth"))

    @pytest.mark.parametrize("name", PROVIDERS)
    @common
    @given(data=st.data())
    def test_random_operator_random_partition(self, name, data):
        """Random diagonally-present operators under arbitrary colour
        partitions (not necessarily independent sets — the fast path
        must match the transcription's semantics regardless)."""
        n = data.draw(st.integers(2, 24), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        ncolors = data.draw(st.integers(1, min(4, n)), label="ncolors")
        rng = np.random.default_rng(seed)
        csr = sp.random(n, n, density=0.3, random_state=rng, format="csr")
        # a nonzero diagonal: the smoother requires it, HPCG provides it
        csr = (csr + sp.diags(rng.uniform(1.0, 2.0, n))).tocsr()
        csr.sort_indices()
        colors = rng.integers(0, ncolors, n)
        colors[:ncolors] = np.arange(ncolors)   # every class non-empty
        masks = color_masks(colors)
        A = grb.Matrix.from_scipy(csr, substrate=name)
        diag = grb.Vector.from_dense(csr.diagonal())
        fused, ref = smoother_pair(A, diag, masks)
        r = grb.Vector.from_dense(rng.standard_normal(n))
        got, want = run_both(fused, ref, n, r, "smooth", sweeps=1)
        assert_bit_identical(got, want)

    @pytest.mark.parametrize("name", PROVIDERS)
    def test_signed_zeros_survive(self, problem4, name):
        """-0.0-laden iterates and cancelling stencil entries: the fused
        path must keep the exact accumulation order, so values *and*
        signbits match the transcription (``assert_bit_identical``
        checks ``np.signbit`` everywhere — this test feeds inputs where
        zero signs can actually differ if an implementation pads)."""
        csr = problem4.A.to_scipy()
        A = grb.Matrix.from_scipy(csr, substrate=name)
        diag = grb.Vector.from_dense(csr.diagonal())
        masks = color_masks(lattice_coloring(problem4.grid))
        fused, ref = smoother_pair(A, diag, masks)
        n = problem4.n
        r_vals = np.zeros(n)
        r_vals[::2] = -0.0                           # signed-zero rhs
        z0 = np.zeros(n)
        z0[1::2] = -0.0                              # signed-zero iterate
        r = grb.Vector.from_dense(r_vals)
        z1 = grb.Vector.from_dense(z0.copy())
        z2 = grb.Vector.from_dense(z0.copy())
        fused.smooth(z1, r)
        ref.smooth(z2, r)
        assert_bit_identical(z1.to_dense(), z2.to_dense())

    @pytest.mark.parametrize("name", PROVIDERS)
    def test_cg_residual_history_byte_identical(self, name):
        """The acceptance criterion: whole CG+MG solves, same bytes,
        with the provider pinned through the entire MG hierarchy."""
        from repro.hpcg.problem import generate_problem

        problem = generate_problem(8, substrate=name)
        histories = []
        for fused in (True, False):
            hierarchy = build_hierarchy(problem, levels=3, fused=fused)
            x = problem.x0.dup()
            result = pcg(problem.A, problem.b, x,
                         preconditioner=MGPreconditioner(hierarchy),
                         max_iters=10)
            histories.append(result.residuals)
        assert histories[0] == histories[1]


# ---------------------------------------------------------------------------
# the kill switch and the fallback contract
# ---------------------------------------------------------------------------

class TestKillSwitch:
    def test_env_disables_fast_path(self, problem8, monkeypatch):
        monkeypatch.setenv(fused_mod.ENV_FUSED, "0")
        masks = color_masks(lattice_coloring(problem8.grid))
        s = RBGSSmoother(problem8.A, problem8.A_diag, masks)
        assert not s.fused_active

    def test_env_off_matches_fused_results(self, problem8, rng, monkeypatch):
        masks = color_masks(lattice_coloring(problem8.grid))
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        z_fused = grb.Vector.dense(problem8.n, 0.0)
        RBGSSmoother(problem8.A, problem8.A_diag, masks).smooth(z_fused, r)
        monkeypatch.setenv(fused_mod.ENV_FUSED, "0")
        z_ref = grb.Vector.dense(problem8.n, 0.0)
        RBGSSmoother(problem8.A, problem8.A_diag, masks).smooth(z_ref, r)
        assert_bit_identical(z_fused.to_dense(), z_ref.to_dense())

    def test_explicit_param_beats_env(self, problem8, monkeypatch):
        monkeypatch.setenv(fused_mod.ENV_FUSED, "0")
        masks = color_masks(lattice_coloring(problem8.grid))
        s = RBGSSmoother(problem8.A, problem8.A_diag, masks, fused=True)
        assert s.fused_active

    def test_kill_switch_applies_to_built_smoothers(self, problem8, rng,
                                                    monkeypatch):
        """REPRO_FUSED=0 is read per call: smoothers armed *before* the
        switch flips must fall back too (and stay bit-identical)."""
        monkeypatch.delenv(fused_mod.ENV_FUSED, raising=False)
        masks = color_masks(lattice_coloring(problem8.grid))
        s = RBGSSmoother(problem8.A, problem8.A_diag, masks)
        assert s.fused_active
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        z1 = grb.Vector.dense(problem8.n, 0.0)
        s.smooth(z1, r)
        monkeypatch.setenv(fused_mod.ENV_FUSED, "0")
        z2 = grb.Vector.dense(problem8.n, 0.0)
        log = grb.backend.EventLog()
        with grb.backend.collect(log):
            s.smooth(z2, r)                       # reference path now
        assert log.count("fused_mxv_lambda") == 0
        assert log.count("mxv") > 0
        assert_bit_identical(z1.to_dense(), z2.to_dense())

    def test_plan_declines_sparse_vectors(self, problem8, rng):
        """A sparse z cannot take the fast path; the reference path's
        own semantics (presence checks) must apply instead."""
        masks = color_masks(lattice_coloring(problem8.grid))
        s = RBGSSmoother(problem8.A, problem8.A_diag, masks, fused=True)
        z = grb.Vector.sparse(problem8.n)            # all-absent
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        from repro.util.errors import InvalidValue
        with pytest.raises(InvalidValue):
            s.forward(z, r)                           # same error as reference


# ---------------------------------------------------------------------------
# plan invalidation: mutation rebuilds the sweep
# ---------------------------------------------------------------------------

class TestPlanInvalidation:
    def test_set_substrate_rebuilds_sweep(self, problem8, rng, monkeypatch):
        """set_substrate swaps providers without bumping the version;
        the plan must still notice and re-price in the new format."""
        monkeypatch.delenv(fused_mod.ENV_FUSED, raising=False)
        masks = color_masks(lattice_coloring(problem8.grid))
        A = grb.Matrix.from_scipy(problem8.A.to_scipy(), substrate="csr")
        s = RBGSSmoother(A, problem8.A_diag, masks, fused=True)
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        z = grb.Vector.dense(problem8.n, 0.0)
        s.smooth(z, r)                            # builds the csr sweep
        A.set_substrate("sellcs")
        z1 = grb.Vector.dense(problem8.n, 0.0)
        log = grb.backend.EventLog()
        with grb.backend.collect(log):
            s.smooth(z1, r)
        assert {e.fmt for e in log.events} == {"sellcs"}
        z2 = grb.Vector.dense(problem8.n, 0.0)
        RBGSSmoother(A, problem8.A_diag, masks, fused=False).smooth(z2, r)
        assert_bit_identical(z1.to_dense(), z2.to_dense())

    def test_stale_plan_not_reused_after_mutation(self, problem4, rng):
        masks = color_masks(lattice_coloring(problem4.grid))
        A = grb.Matrix.from_scipy(problem4.A.to_scipy())
        diag = grb.diag(A)
        smoother = RBGSSmoother(A, diag, masks, fused=True)
        r = grb.Vector.from_dense(rng.standard_normal(problem4.n))
        z = grb.Vector.dense(problem4.n, 0.0)
        smoother.smooth(z, r)
        # scale one off-diagonal entry; diag vector unchanged
        i, j = int(A.to_coo()[0][1]), int(A.to_coo()[1][1])
        A.set_element(i, j, 3.25)
        ref = RBGSSmoother(A, diag, masks, fused=False)
        z1 = grb.Vector.dense(problem4.n, 0.0)
        z2 = grb.Vector.dense(problem4.n, 0.0)
        smoother.smooth(z1, r)
        ref.smooth(z2, r)
        assert_bit_identical(z1.to_dense(), z2.to_dense())


# ---------------------------------------------------------------------------
# honest pricing: the fused stream through the fused-traffic hooks
# ---------------------------------------------------------------------------

class TestFusedPricing:
    def test_fused_events_tagged_and_cheaper(self, problem8, rng,
                                             monkeypatch):
        # an armed plan honours the kill switch per call
        monkeypatch.delenv(fused_mod.ENV_FUSED, raising=False)
        masks = color_masks(lattice_coloring(problem8.grid))
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        totals = {}
        for fused in (True, False):
            s = RBGSSmoother(problem8.A, problem8.A_diag, masks, fused=fused)
            z = grb.Vector.dense(problem8.n, 0.0)
            log = grb.backend.EventLog()
            with grb.backend.collect(log):
                s.smooth(z, r)
            totals[fused] = log.total("bytes")
            if fused:
                assert log.count("fused_mxv_lambda") == 2 * len(masks)
                assert log.count("mxv") == 0
                assert all(e.fmt == problem8.A.substrate
                           for e in log.events)
        # fusion elides the workspace round trip: strictly fewer bytes
        assert totals[True] < totals[False]


# ---------------------------------------------------------------------------
# the jit lane: gated, optional, bit-invisible
# ---------------------------------------------------------------------------

HAVE_NUMBA = jit._numba is not None


class TestJitLane:
    def test_available_reflects_numba_and_env(self, monkeypatch):
        assert jit.available() == HAVE_NUMBA
        monkeypatch.setenv(jit.ENV_VAR, "0")
        assert not jit.available()
        monkeypatch.delenv(jit.ENV_VAR)
        assert jit.available() == HAVE_NUMBA

    def test_pure_numpy_without_numba(self, problem8, rng):
        """The supported-everywhere configuration: no numba, same bits
        (trivially the numpy path; this is the fallback regression)."""
        x = rng.standard_normal(problem8.n)
        csr = problem8.A.to_scipy()
        for name in PROVIDERS:
            prov = substrate.get(name)(csr)
            assert np.array_equal(prov.mxv(x),
                                  substrate.get("csr")(csr).mxv(x))

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_jit_mxv_bit_identical(self, problem8, rng, monkeypatch):
        x = rng.standard_normal(problem8.n)
        csr = problem8.A.to_scipy()
        for name in PROVIDERS:
            jitted = substrate.get(name)(csr).mxv(x)
            monkeypatch.setenv(jit.ENV_VAR, "0")
            plain = substrate.get(name)(csr).mxv(x)
            monkeypatch.delenv(jit.ENV_VAR)
            assert np.array_equal(jitted, plain), name
            assert np.array_equal(np.signbit(jitted), np.signbit(plain))

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_jit_fused_sweep_bit_identical(self, problem8, rng, monkeypatch):
        masks = color_masks(lattice_coloring(problem8.grid))
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        outs = []
        for env in ("1", "0"):
            monkeypatch.setenv(jit.ENV_VAR, env)
            for name in PROVIDERS:
                A = grb.Matrix.from_scipy(problem8.A.to_scipy(),
                                          substrate=name)
                s = RBGSSmoother(A, problem8.A_diag, masks, fused=True)
                z = grb.Vector.dense(problem8.n, 0.0)
                s.smooth(z, r, sweeps=2)
                outs.append(z.to_dense())
        half = len(outs) // 2
        for a, b in zip(outs[:half], outs[half:]):
            assert_bit_identical(a, b)


# ---------------------------------------------------------------------------
# the CG workspace (the consumer-side allocation fix riding along)
# ---------------------------------------------------------------------------

class TestCGWorkspace:
    def test_reused_workspace_identical_solve(self, problem8):
        hierarchy = build_hierarchy(problem8, levels=2)
        precond = MGPreconditioner(hierarchy)
        ws = CGWorkspace(problem8.n)
        histories = []
        for _ in range(2):
            x = problem8.x0.dup()
            res = pcg(problem8.A, problem8.b, x, preconditioner=precond,
                      max_iters=8, workspace=ws)
            histories.append(res.residuals)
        x = problem8.x0.dup()
        fresh = pcg(problem8.A, problem8.b, x, preconditioner=precond,
                    max_iters=8)
        assert histories[0] == histories[1] == fresh.residuals

    def test_size_mismatch_raises(self, problem8):
        from repro.util.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            pcg(problem8.A, problem8.b, problem8.x0.dup(),
                max_iters=1, workspace=CGWorkspace(problem8.n + 1))
