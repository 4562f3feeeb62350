"""Experiment regenerators: every table/figure produces the paper's shape."""

import numpy as np
import pytest

from repro.experiments import ablations, fig1, fig2, fig3, fig4_7, table1, table2
from repro.experiments.__main__ import main as experiments_main
from repro.hpcg.problem import generate_problem
from repro.perf import collect_op_stream


@pytest.fixture(scope="module")
def stream16():
    return collect_op_stream(generate_problem(16), mg_levels=4, iterations=3)


class TestTable1:
    def test_exponents_match_paper(self):
        rows = table1.run(local_sizes=(8, 12, 16), procs=(2, 4))
        fits = table1.verify(rows)
        assert fits["alp_comm_exponent"] == pytest.approx(1.0, abs=0.05)
        assert fits["ref_comm_exponent"] == pytest.approx(2.0 / 3.0, abs=0.1)

    def test_work_balanced(self):
        rows = table1.run(local_sizes=(8,), procs=(2, 4))
        fits = table1.verify(rows)
        assert fits["work_balance"] <= 1.1

    def test_sync_counts_constant(self):
        rows = table1.run(local_sizes=(8, 12), procs=(2,))
        assert all(r.alp_syncs_per_mxv == 1.0 for r in rows)
        assert all(r.ref_syncs_per_mxv == 1.0 for r in rows)

    def test_alp_matches_formula_exactly(self):
        rows = table1.run(local_sizes=(8,), procs=(2, 4))
        for r in rows:
            assert r.alp_comm_values == pytest.approx(r.alp_formula, rel=0.01)

    def test_render(self):
        rows = table1.run(local_sizes=(8,), procs=(2,))
        text = table1.render(rows)
        assert "Table I" in text and "exponent" in text


class TestTable2:
    def test_render_contains_machines(self):
        text = table2.render(table2.run())
        assert "Kunpeng 920-4826" in text and "Xeon Gold 6238T" in text


class TestFig1(object):
    def test_all_shape_claims(self, stream16):
        result = fig1.run(stream=stream16)
        claims = result.shape_claims()
        failures = [k for k, v in claims.items()
                    if not k.startswith("_") and not v]
        assert not failures, failures

    def test_render(self, stream16):
        text = fig1.render(fig1.run(stream=stream16))
        assert "Figure 1" in text and "[ok]" in text and "FAIL" not in text


class TestFig2:
    def test_all_shape_claims(self, stream16):
        result = fig2.run(stream=stream16)
        claims = result.shape_claims()
        assert all(claims.values()), claims

    def test_placements_follow_paper(self):
        labels = [p[0] for p in fig2.PLACEMENTS]
        assert "44 - 1S" in labels and "88 - 2S" in labels


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3.run(local_nx=24, iterations=2)

    def test_all_shape_claims(self, result):
        claims = result.shape_claims()
        assert all(claims.values()), claims

    def test_ref_flat(self, result):
        ref = np.array(result.ref_seconds)
        assert ref.max() / ref.min() < 1.05  # the paper's "at most 5%"

    def test_render(self, result):
        assert "Figure 3" in fig3.render(result)


class TestFig4to7:
    @pytest.fixture(scope="class")
    def fig6_result(self):
        return fig4_7.run_fig6(local_nx=8, iterations=2, nodes=(2, 4))

    @pytest.fixture(scope="class")
    def fig7_result(self):
        return fig4_7.run_fig7(local_nx=8, iterations=2, nodes=(2, 4))

    def test_fig4_claims(self, stream16):
        result = fig4_7.run_fig4(stream=stream16)
        assert all(result.shape_claims().values())

    def test_fig5_claims(self, stream16):
        result = fig4_7.run_fig5(stream=stream16)
        assert all(result.shape_claims().values())

    def test_fig6_claims(self, fig6_result):
        assert all(fig6_result.shape_claims().values())

    def test_fig7_claims(self, fig7_result):
        assert all(fig7_result.shape_claims().values())

    def test_cross_figure_claims(self, fig6_result, fig7_result):
        claims = fig4_7.cross_figure_claims(fig6_result, fig7_result)
        assert all(claims.values()), claims

    def test_render(self, fig6_result):
        text = fig4_7.render(fig6_result)
        assert "fig6" in text and "MG%" in text


class TestAblations:
    def test_distribution_ordering(self):
        rows = {r.scheme: r.max_send_values
                for r in ablations.distribution_ablation(local_nx=8, p=4)}
        assert rows["geometric 3D (Ref)"] < rows["black-box BFS (solution iv)"]
        assert rows["black-box BFS (solution iv)"] < rows["1D block-cyclic (ALP)"]
        assert rows["2D block (solution ii)"] < rows["1D block-cyclic (ALP)"]

    def test_fusion_saves_traffic_identically(self, monkeypatch):
        from repro import graphblas as grb
        from repro.graphblas import fused as fused_mod
        from repro.hpcg.coloring import color_masks, lattice_coloring
        from repro.hpcg.smoothers import RBGSSmoother

        # an armed plan honours the kill switch per call
        monkeypatch.delenv(fused_mod.ENV_FUSED, raising=False)
        res = ablations.fusion_ablation(nx=8, sweeps=1)
        assert res.identical_result
        assert 0.1 < res.savings < 0.5
        # the ablation measures the production smoother, not a stand-in:
        # each arm's bytes are exactly what RBGSSmoother records
        problem = generate_problem(8)
        colors = color_masks(lattice_coloring(problem.grid))
        r = grb.Vector.from_dense(
            np.random.default_rng(3).standard_normal(problem.n))
        totals = {}
        for fused in (True, False):
            smoother = RBGSSmoother(problem.A, problem.A_diag, colors,
                                    fused=fused)
            log = grb.backend.EventLog()
            with grb.backend.collect(log):
                smoother.smooth(grb.Vector.dense(problem.n, 0.0), r)
            totals[fused] = log.total("bytes")
        assert res.fused_bytes == totals[True]
        assert res.unfused_bytes == totals[False]

    def test_smoother_ordering(self):
        rows = {r.smoother: r for r in ablations.smoother_ablation(nx=8)}
        assert all(r.converged for r in rows.values())
        # SYMGS <= RBGS < Jacobi in iteration count (paper Section III-A)
        assert rows["symgs (sequential)"].iterations <= rows["rbgs"].iterations
        assert rows["rbgs"].iterations < rows["jacobi"].iterations

    def test_coloring_natural_optimal(self):
        rows = {r.order: r.colors for r in ablations.coloring_ablation(nx=8)}
        assert rows["natural (paper)"] == 8
        assert rows["lattice parity"] == 8

    def test_render(self):
        text = ablations.render(ablations.run(local_nx=8))
        assert "Ablation A" in text and "Ablation D" in text


class TestCli:
    def test_table2_via_cli(self, capsys):
        assert experiments_main(["table2"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_fig1_via_cli(self, capsys):
        assert experiments_main(["fig1", "--nx", "8", "--iters", "1"]) == 0
        assert "Figure 1" in capsys.readouterr().out
