"""The HPCG benchmark driver end-to-end."""

import json
import os

import pytest

from repro.hpcg.driver import main, run_hpcg


class TestRunHpcg:
    def test_end_to_end(self):
        result = run_hpcg(nx=8, max_iters=10, mg_levels=3)
        assert result.cg.iterations == 10
        assert result.symmetry.passed
        assert result.run_seconds > 0
        assert result.gflops > 0

    def test_converges_with_tolerance(self):
        result = run_hpcg(nx=8, max_iters=100, tolerance=1e-8, mg_levels=3,
                          validate_symmetry=False)
        assert result.cg.converged

    def test_no_preconditioner(self):
        result = run_hpcg(nx=8, max_iters=10, mg_levels=0,
                          validate_symmetry=False)
        assert result.cg.iterations == 10

    def test_flops_accounting(self):
        result = run_hpcg(nx=8, max_iters=10, mg_levels=3,
                          validate_symmetry=False)
        counts = result.flops.merged()
        assert counts["spmv"] > 0 and counts["rbgs"] > 0
        assert counts["rbgs"] > counts["spmv"]  # RBGS dominates flops too
        assert result.flops.total == sum(counts.values())

    def test_mg_level_breakdown_shares(self):
        result = run_hpcg(nx=8, max_iters=10, mg_levels=3,
                          validate_symmetry=False)
        rows = result.mg_level_breakdown()
        assert len(rows) == 3
        total_share = sum(r["rbgs"] + r["restrict_refine"] for r in rows)
        assert 0 < total_share <= 1.0
        # coarsest level performs no grid transfer
        assert rows[-1]["restrict_refine"] == 0.0

    def test_rbgs_majority_of_time(self):
        """The paper's headline breakdown: RBGS > 50% of execution."""
        result = run_hpcg(nx=8, max_iters=10, mg_levels=3,
                          validate_symmetry=False)
        rbgs = sum(r["rbgs"] for r in result.mg_level_breakdown())
        assert rbgs > 0.5

    def test_summary_renders(self):
        result = run_hpcg(nx=4, max_iters=3, mg_levels=2,
                          validate_symmetry=False)
        text = result.summary()
        assert "HPCG result" in text and "GFLOP/s" in text

    def test_b_style_ones(self):
        result = run_hpcg(nx=4, max_iters=3, mg_levels=2, b_style="ones",
                          validate_symmetry=False)
        assert result.problem.b_style == "ones"

    def test_reuse_problem(self, problem8):
        result = run_hpcg(nx=0, problem=problem8, max_iters=3, mg_levels=2,
                          validate_symmetry=False)
        assert result.problem is problem8


class TestCli:
    def test_main_ok(self, capsys):
        rc = main(["--nx", "4", "--iters", "3", "--mg-levels", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HPCG result" in out

    def test_main_with_timers(self, capsys):
        rc = main(["--nx", "4", "--iters", "2", "--mg-levels", "2",
                   "--timers"])
        assert rc == 0
        assert "mg/L0/rbgs" in capsys.readouterr().out


class TestCliRobustness:
    """Bad inputs exit with code 2 and one line on stderr — never a
    traceback, never a half-finished solve."""

    def _expect_error(self, capsys, argv, fragment):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert fragment in err
        assert "Traceback" not in err

    def test_unwritable_artifact_paths(self, capsys, tmp_path):
        for flag in ("--trace-json", "--metrics-json", "--manifest-json",
                     "--trace-stream", "--folded-out"):
            self._expect_error(
                capsys,
                ["--nx", "4", "--iters", "1", "--mg-levels", "2",
                 flag, str(tmp_path / "no" / "such" / "dir" / "out.json")],
                "does not exist")

    def test_artifact_path_is_a_directory(self, capsys, tmp_path):
        self._expect_error(
            capsys,
            ["--nx", "4", "--iters", "1", "--mg-levels", "2",
             "--trace-json", str(tmp_path)],
            "is a directory")

    def test_faults_without_dist(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"seed": 1}\n')
        self._expect_error(
            capsys, ["--nx", "4", "--faults", str(plan)], "--dist")

    def test_missing_fault_plan(self, capsys, tmp_path):
        self._expect_error(
            capsys,
            ["--nx", "4", "--dist", "ref-3d",
             "--faults", str(tmp_path / "absent.json")],
            "cannot read")

    def test_malformed_fault_plan(self, capsys, tmp_path):
        plan = tmp_path / "broken.json"
        plan.write_text("{this is not json")
        self._expect_error(
            capsys,
            ["--nx", "4", "--dist", "ref-3d", "--faults", str(plan)],
            "not valid JSON")

    def test_unknown_plan_key(self, capsys, tmp_path):
        plan = tmp_path / "typo.json"
        plan.write_text(json.dumps({"seed": 1, "stragler": []}))
        self._expect_error(
            capsys,
            ["--nx", "4", "--dist", "ref-3d", "--faults", str(plan)],
            "unknown key")

    def test_plan_node_out_of_range(self, capsys, tmp_path):
        plan = tmp_path / "oob.json"
        plan.write_text(json.dumps(
            {"crashes": [{"node": 9, "superstep": 5}]}))
        self._expect_error(
            capsys,
            ["--nx", "4", "--dist", "ref-3d", "--nprocs", "4",
             "--faults", str(plan)],
            "out of range")

    def test_push_interval_needs_push_url(self, capsys):
        self._expect_error(
            capsys, ["--nx", "4", "--push-interval", "5"], "--push-url")

    def test_nonpositive_nprocs(self, capsys):
        self._expect_error(
            capsys, ["--nx", "4", "--dist", "ref-3d", "--nprocs", "0"],
            "nprocs")

    def test_negative_iters(self, capsys):
        self._expect_error(capsys, ["--nx", "8", "--iters", "-1"], "--iters")

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_bad_tolerance(self, capsys, value):
        self._expect_error(
            capsys, ["--nx", "8", "--tolerance", value], "--tolerance")

    @pytest.mark.parametrize("argv", [["--nx", "0"],
                                      ["--nx", "8", "--ny", "-2"]])
    def test_bad_grid(self, capsys, argv):
        self._expect_error(capsys, argv, "grid dimensions")

    def test_too_many_mg_levels(self, capsys):
        self._expect_error(
            capsys, ["--nx", "3", "--mg-levels", "4"], "--mg-levels")

    def test_malformed_threads(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "1")
        self._expect_error(
            capsys, ["--nx", "8", "--threads", "banana"], "--threads")
        # the rejected value does not leak into later runs
        assert os.environ["REPRO_THREADS"] == "1"


class TestDistCli:
    def test_dist_clean_run(self, capsys):
        rc = main(["--nx", "4", "--iters", "3", "--mg-levels", "2",
                   "--dist", "ref-3d", "--nprocs", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ref-3d: p=4" in out
        assert "Resilience" not in out     # no plan, no section

    def test_dist_faulted_run_reports_resilience(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 7,
            "crashes": [{"node": 1, "superstep": 200}],
            "checkpoint": {"interval": 2},
        }))
        rc = main(["--nx", "8", "--iters", "4", "--mg-levels", "2",
                   "--dist", "ref-3d", "--nprocs", "4",
                   "--faults", str(plan)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Resilience:" in out
        assert "clean time-to-solution" in out
        assert "recoveries: 1" in out
        assert "final residual matches clean run: True" in out
