"""The autotuning subsystem: profiles, cache, selection, consumers.

The contracts this file enforces:

* **round-trip** — save → load → re-save is byte-identical, and a
  schema-version mismatch is rejected cleanly;
* **consumers** — ``BSPMachine.from_profile`` prices a trace exactly
  like the equivalent hand-built machine, and profile-priced simulated
  runs keep bit-identical numerics (the pricing source must never
  touch the mathematics);
* **model-driven selection** — unforced selection is CSR on every
  reference shape; ``selection="model"`` with a profile in which
  another format wins picks that format, and with no profile cached
  it falls back to CSR silently.
"""

import json
import os
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro import graphblas as grb
from repro.dist import BSPMachine, CommTracker, RefDistRun, bsp_time
from repro.graphblas import substrate
from repro.graphblas.substrate.base import MatrixProfile
from repro.grid import Grid3D, stencil_coo
from repro.perf import ALP_PROFILE, MachineSpec, Placement, ScalingModel
from repro.tune import (
    MachineProfile,
    ProfileVersionError,
    cache,
    synthetic_profile,
)
from repro.tune import select as tune_select
from repro.tune.profile import SCHEMA_VERSION
from repro.util.errors import InvalidValue


@pytest.fixture()
def tmp_cache(tmp_path, monkeypatch):
    """An isolated, empty REPRO_TUNE_CACHE for each test."""
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    monkeypatch.delenv(cache.MAX_AGE_ENV_VAR, raising=False)
    cache.invalidate()
    yield tmp_path
    cache.invalidate()


def stencil_csr(nx: int) -> sp.csr_matrix:
    grid = Grid3D(nx, nx, nx)
    rows, cols, vals = stencil_coo(grid, "27pt")
    csr = sp.csr_matrix((vals, (rows, cols)),
                        shape=(grid.npoints, grid.npoints))
    csr.sort_indices()
    return csr


def highcv_csr(n: int = 2048) -> sp.csr_matrix:
    rng = np.random.default_rng(11)
    row_nnz = np.minimum(1 + rng.geometric(1.0 / 12.0, size=n), n)
    r = np.repeat(np.arange(n, dtype=np.int64), row_nnz)
    c = rng.integers(0, n, size=r.size, dtype=np.int64)
    csr = sp.csr_matrix((np.ones(r.size), (r, c)), shape=(n, n))
    csr.sum_duplicates()
    csr.sort_indices()
    return csr


def dense_csr(n: int = 1024, m: int = 16) -> sp.csr_matrix:
    rng = np.random.default_rng(13)
    csr = sp.csr_matrix((rng.random((n, m)) < 0.4).astype(np.float64))
    csr.sort_indices()
    return csr


# ---------------------------------------------------------------------------
# profile round-trip and schema versioning
# ---------------------------------------------------------------------------

class TestProfileRoundTrip:
    def test_save_load_resave_byte_identical(self, tmp_path):
        prof = synthetic_profile()
        path = str(tmp_path / "p.json")
        prof.save(path)
        first = open(path, "rb").read()
        reloaded = MachineProfile.load(path)
        assert reloaded == prof
        reloaded.save(path)
        assert open(path, "rb").read() == first

    def test_schema_version_mismatch_raises(self):
        data = synthetic_profile().to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ProfileVersionError, match="schema version"):
            MachineProfile.from_dict(data)

    def test_missing_key_raises(self):
        data = synthetic_profile().to_dict()
        del data["triad_bandwidth"]
        with pytest.raises(InvalidValue, match="missing"):
            MachineProfile.from_dict(data)

    def test_unknown_key_raises(self):
        data = synthetic_profile().to_dict()
        data["frobnication_rate"] = 1.0
        with pytest.raises(InvalidValue, match="unknown"):
            MachineProfile.from_dict(data)

    def test_not_json_raises(self):
        with pytest.raises(InvalidValue, match="JSON"):
            MachineProfile.loads("not json {")

    def test_field_validation(self):
        with pytest.raises(InvalidValue):
            synthetic_profile(triad_bandwidth=-1.0)
        with pytest.raises(InvalidValue):
            synthetic_profile(overlap_efficiency=1.5)
        with pytest.raises(InvalidValue):
            synthetic_profile(net_bandwidth=0.0)

    def test_rate_fallbacks(self):
        prof = synthetic_profile()
        # unprobed format: priced at the triad ceiling, not a crash
        assert prof.spmv_rate("exotic") == prof.triad_bandwidth
        assert prof.rbgs_rate("exotic") == prof.triad_bandwidth
        # unprobed shape class: the format's geometric mean
        rate = prof.spmv_rate("csr", "never-probed")
        lo = min(prof.spmv_rates["csr"].values())
        hi = max(prof.spmv_rates["csr"].values())
        assert lo * (1 - 1e-9) <= rate <= hi * (1 + 1e-9)

    def test_summary_mentions_rates(self):
        text = synthetic_profile().summary()
        assert "triad bandwidth" in text
        assert "sellcs" in text


# ---------------------------------------------------------------------------
# cache behaviour
# ---------------------------------------------------------------------------

class TestCache:
    def test_save_and_current(self, tmp_cache):
        assert cache.current_profile() is None
        prof = synthetic_profile()
        path = cache.save_profile(prof)
        assert path == str(tmp_cache / cache.PROFILE_FILENAME)
        assert cache.current_profile() == prof
        # memoised: same object on the second read
        assert cache.current_profile() is cache.current_profile()

    def test_clear(self, tmp_cache):
        cache.save_profile(synthetic_profile())
        assert cache.clear() is True
        assert cache.current_profile() is None
        assert cache.clear() is False

    def test_load_profile_raises_when_missing(self, tmp_cache):
        with pytest.raises(InvalidValue, match="no machine profile"):
            cache.load_profile()

    def test_corrupt_file_soft_none_strict_raise(self, tmp_cache):
        path = cache.profile_path()
        with open(path, "w") as fh:
            fh.write("{ not json")
        assert cache.current_profile() is None
        with pytest.raises(InvalidValue):
            cache.load_profile()

    def test_version_mismatch_soft_none(self, tmp_cache):
        data = synthetic_profile().to_dict()
        data["schema_version"] = SCHEMA_VERSION + 7
        with open(cache.profile_path(), "w") as fh:
            json.dump(data, fh)
        assert cache.current_profile() is None

    def test_staleness(self, tmp_cache, monkeypatch):
        old = synthetic_profile()
        # synthetic profiles are stamped at the epoch: ancient
        cache.save_profile(old)
        assert cache.current_profile(max_age_seconds=60.0) is None
        assert cache.current_profile() == old   # no bound: still served
        monkeypatch.setenv(cache.MAX_AGE_ENV_VAR, "60")
        assert cache.current_profile() is None
        monkeypatch.setenv(cache.MAX_AGE_ENV_VAR, "not-a-number")
        assert cache.current_profile() == old   # malformed bound ignored
        fresh = MachineProfile.from_dict(
            {**old.to_dict(), "created_at": time.time()})
        cache.save_profile(fresh)
        monkeypatch.setenv(cache.MAX_AGE_ENV_VAR, "3600")
        assert cache.current_profile() == fresh

    def test_default_location_under_home(self, monkeypatch):
        monkeypatch.delenv(cache.ENV_VAR, raising=False)
        assert cache.cache_dir().startswith(os.path.expanduser("~"))


# ---------------------------------------------------------------------------
# profile-driven machine constructors
# ---------------------------------------------------------------------------

class TestFromProfile:
    def test_bsp_machine_fields(self):
        prof = synthetic_profile()
        m = BSPMachine.from_profile(prof)
        assert m.name == "profile:synthetic"
        assert m.mem_bandwidth == prof.triad_bandwidth
        assert m.net_bandwidth == prof.net_bandwidth
        assert m.latency == prof.latency
        assert m.overlap_efficiency == prof.overlap_efficiency
        custom = BSPMachine.from_profile(prof, name="n", overlap_efficiency=0.5)
        assert custom.name == "n" and custom.overlap_efficiency == 0.5

    def test_bsp_time_matches_hand_built_machine(self):
        prof = synthetic_profile()
        from_prof = BSPMachine.from_profile(prof)
        by_hand = BSPMachine(
            name="hand",
            mem_bandwidth=prof.triad_bandwidth,
            net_bandwidth=prof.net_bandwidth,
            latency=prof.latency,
            overlap_efficiency=prof.overlap_efficiency,
        )
        tracker = CommTracker(4)
        rng = np.random.default_rng(3)
        for step in range(6):
            for dst in range(1, 4):
                tracker.send(0, dst, int(rng.integers(64, 4096)),
                             label="probe")
            if step % 2:
                handle = tracker.post()
                handle.overlap(float(rng.integers(1024, 1 << 20)))
                tracker.wait(handle)
            else:
                tracker.sync()
        work = [float(rng.integers(1 << 10, 1 << 22)) for _ in range(6)]
        for use_overlap in (True, False):
            assert (bsp_time(from_prof, tracker.supersteps, work,
                             use_overlap)
                    == bsp_time(by_hand, tracker.supersteps, work,
                                use_overlap))

    def test_refdist_run_numerics_unchanged(self, problem8):
        """Profile pricing changes modelled time only — residuals stay
        bit-identical to the Table-II preset run."""
        prof = synthetic_profile()
        preset = RefDistRun(problem8, nprocs=2, mg_levels=2,
                            comm_mode="eager").run_cg(max_iters=3)
        priced = RefDistRun(problem8, nprocs=2, mg_levels=2,
                            machine=BSPMachine.from_profile(prof),
                            comm_mode="eager").run_cg(max_iters=3)
        np.testing.assert_array_equal(preset.residuals, priced.residuals)
        assert priced.machine == "profile:synthetic"
        assert "priced by profile:synthetic" in priced.summary()
        assert priced.modelled_seconds != preset.modelled_seconds

    def test_machine_spec_scaling_model(self):
        prof = synthetic_profile()
        spec = MachineSpec.from_profile(prof)
        assert spec.attained_bandwidth == prof.triad_bandwidth
        assert spec.physical_cores == max(prof.cores, 1)
        model = ScalingModel(spec, ALP_PROFILE)
        t = model.time_for_bytes(1e9, Placement(1, 1))
        assert t > 0


# ---------------------------------------------------------------------------
# model-driven selection
# ---------------------------------------------------------------------------

class TestModelSelection:
    @pytest.fixture()
    def small_gate(self, monkeypatch):
        """Shrink the conversion-amortisation floor so the reference
        shapes stay test-sized."""
        monkeypatch.setattr(tune_select, "AUTO_MIN_SIZE", 64)

    def reference_shapes(self):
        return {
            "tiny": sp.csr_matrix(np.eye(10)),
            "uniform": stencil_csr(12),     # cv ~= 0.23
            "highcv": highcv_csr(),         # skewed rows
            "dense": dense_csr(),           # density 0.4
        }

    def test_shape_classes(self):
        shapes = self.reference_shapes()
        got = {name: tune_select.shape_class(MatrixProfile.from_csr(csr))
               for name, csr in shapes.items()}
        assert got["uniform"] == "uniform"
        assert got["highcv"] == "highcv"
        assert got["dense"] == "dense"

    def test_model_picks_profile_winner_on_reference_shapes(
            self, small_gate, monkeypatch):
        """The default is CSR on every shape; model mode leaves CSR
        exactly where the (synthetic) profile prices another format
        cheaper and the structure is safe for it."""
        monkeypatch.delenv(substrate.ENV_VAR, raising=False)
        prof = synthetic_profile()
        want = {"tiny": "csr", "uniform": "blocked", "highcv": "sellcs",
                "dense": "blocked"}
        for name, csr in self.reference_shapes().items():
            assert substrate.resolve(csr) == "csr", name
            assert substrate.choose_model(csr, profile=prof) == want[name]

    def test_no_profile_falls_back_silently(self, tmp_cache, small_gate,
                                            recwarn):
        for csr in self.reference_shapes().values():
            assert substrate.resolve(csr, selection="model") == "csr"
        assert len(recwarn) == 0

    def test_env_model_force(self, tmp_cache, small_gate, monkeypatch):
        monkeypatch.setenv(substrate.ENV_VAR, "model")
        assert substrate.forced() == substrate.MODEL
        cache.save_profile(synthetic_profile())
        csr = stencil_csr(12)
        assert substrate.resolve(csr) == substrate.choose_model(csr)
        # an explicit provider pin still beats the env force
        assert substrate.resolve(csr, "csr") == "csr"

    def test_model_pin_on_matrix(self, tmp_cache, small_gate):
        cache.save_profile(synthetic_profile())
        m = grb.Matrix.from_scipy(stencil_csr(12), substrate="model")
        assert m.substrate == "blocked"
        # resolution is concrete: the provider actually runs
        x = grb.Vector.from_dense(np.ones(m.ncols))
        y = grb.Vector.dense(m.nrows)
        grb.mxv(y, None, m, x)
        want = grb.Matrix.from_scipy(stencil_csr(12), substrate="csr")
        yw = grb.Vector.dense(m.nrows)
        grb.mxv(yw, None, want, x)
        assert np.array_equal(y.to_dense(), yw.to_dense())
        # and set_substrate accepts the mode too
        m.set_substrate("csr")
        assert m.substrate == "csr"
        m.set_substrate("model")
        assert m.substrate == "blocked"

    def test_selection_mode_validation(self):
        csr = sp.csr_matrix(np.eye(4))
        with pytest.raises(InvalidValue, match="selection mode"):
            substrate.resolve(csr, selection="typo")
        # the structure-heuristic mode is gone, not silently aliased
        with pytest.raises(InvalidValue, match="selection mode"):
            substrate.resolve(csr, selection="heuristic")

    def test_model_selection_beats_env_force(self, tmp_cache, small_gate,
                                             monkeypatch):
        """selection='model' is a pin: it bypasses REPRO_SUBSTRATE, just
        as an explicit provider request does."""
        cache.save_profile(synthetic_profile())
        csr = stencil_csr(12)
        monkeypatch.setenv(substrate.ENV_VAR, "sellcs")
        assert substrate.resolve(csr) == "sellcs"
        assert substrate.resolve(csr, selection="model") == "blocked"

    def test_model_is_a_reserved_registry_name(self):
        from repro.graphblas.substrate import CsrProvider

        class Impostor(CsrProvider):
            name = "model"

        with pytest.raises(InvalidValue, match="reserved"):
            substrate.register(Impostor)

    def test_profile_rates_steer_the_choice(self, small_gate):
        """The decision is genuinely rate-driven: invert the measured
        rates and the model must abandon blocked."""
        csr = stencil_csr(12)
        csr_wins = synthetic_profile(spmv_rates={
            "csr": {"uniform": 9e9, "highcv": 9e9, "dense": 9e9},
            "sellcs": {"uniform": 1e9, "highcv": 1e9, "dense": 1e9},
            "blocked": {"uniform": 1e9, "highcv": 1e9, "dense": 1e9},
        })
        assert substrate.choose_model(csr, profile=csr_wins) == "csr"
        assert (substrate.choose_model(csr, profile=synthetic_profile())
                == "blocked")

    def test_guards_override_rates(self):
        """One megarow keeps blocked/sellcs out no matter how fast the
        profile claims they are (padding explosion is structural)."""
        n = 512
        rows = [0] * n + list(range(1, n))
        cols = list(range(n)) + [0] * (n - 1)
        csr = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                            shape=(n, n))
        csr.sort_indices()
        p = MatrixProfile.from_csr(csr)
        blocked_fast = synthetic_profile(spmv_rates={
            "csr": {"uniform": 1e9, "highcv": 1e9, "dense": 1e9},
            "sellcs": {"uniform": 9e9, "highcv": 9e9, "dense": 9e9},
            "blocked": {"uniform": 9e10, "highcv": 9e10, "dense": 9e10},
        })
        choice = tune_select.choose_model(
            p, blocked_fast, ("csr", "sellcs", "blocked"))
        assert choice == "csr"

    def test_predict_seconds_shape(self):
        prof = synthetic_profile()
        p = MatrixProfile.from_csr(stencil_csr(8))
        costs = tune_select.predict_seconds(
            p, prof, ("csr", "sellcs", "blocked"))
        assert set(costs) == {"csr", "sellcs", "blocked"}
        assert all(c > 0 for c in costs.values())


# ---------------------------------------------------------------------------
# the micro-benchmark suite (smoke budget) and the CLI
# ---------------------------------------------------------------------------

class TestMicrobench:
    @pytest.fixture(scope="class")
    def measured(self):
        from repro.tune import microbench
        return microbench.measure(microbench.SMOKE)

    def test_profile_valid_and_reloadable(self, measured, tmp_path):
        assert measured.fast is True
        assert measured.triad_bandwidth > 1e8
        assert measured.net_bandwidth > 0
        assert measured.latency >= 0
        assert 0.0 <= measured.overlap_efficiency <= 1.0
        for fmt in substrate.available():
            assert set(measured.spmv_rates[fmt]) == {
                "uniform", "highcv", "dense"}
            assert all(r > 0 for r in measured.spmv_rates[fmt].values())
            assert measured.rbgs_rates[fmt] > 0
        path = str(tmp_path / "measured.json")
        measured.save(path)
        assert MachineProfile.load(path) == measured

    def test_measured_profile_prices_a_run(self, measured, problem8):
        machine = BSPMachine.from_profile(measured)
        res = RefDistRun(problem8, nprocs=2, mg_levels=2,
                         machine=machine).run_cg(max_iters=2)
        assert res.modelled_seconds > 0
        assert res.machine == f"profile:{measured.name}"

    def test_probe_matrices_cover_the_grid(self):
        from repro.tune import microbench
        mats = microbench.probe_matrices(microbench.SMOKE)
        assert set(mats) == {"uniform", "highcv", "dense"}
        dense_p = MatrixProfile.from_csr(mats["dense"])
        assert tune_select.shape_class(dense_p) == "dense"


class TestCli:
    def test_measure_show_clear(self, tmp_cache, capsys):
        from repro.tune.__main__ import main

        assert main(["measure", "--smoke", "--name", "ci-smoke"]) == 0
        out = capsys.readouterr().out
        assert "ci-smoke" in out and "saved to" in out
        assert cache.current_profile() is not None
        assert main(["show"]) == 0
        assert "ci-smoke" in capsys.readouterr().out
        assert main(["clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert cache.current_profile() is None
        assert main(["show"]) == 1
        assert "error" in capsys.readouterr().err

    def test_measure_out_path(self, tmp_cache, tmp_path, capsys):
        from repro.tune.__main__ import main

        out_path = str(tmp_path / "elsewhere.json")
        assert main(["measure", "--smoke", "--out", out_path]) == 0
        capsys.readouterr()
        assert MachineProfile.load(out_path).schema_version == SCHEMA_VERSION

    def test_scale_without_profile_errors(self, tmp_cache, capsys):
        from repro.tune.__main__ import main

        assert main(["scale"]) == 1
        assert "error" in capsys.readouterr().err

    def test_scale_smoke(self, tmp_cache, capsys):
        from repro.tune.__main__ import main

        cache.save_profile(synthetic_profile())
        rc = main(["scale", "--local-nx", "8", "--iters", "1",
                   "--mg-levels", "2", "--nodes", "2,3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Ref profile/preset" in out
        assert "shape claims (preset):" in out
        assert "shape claims (profile):" in out

    def test_scale_bad_nodes(self, tmp_cache, capsys):
        from repro.tune.__main__ import main

        cache.save_profile(synthetic_profile())
        assert main(["scale", "--nodes", "two,three"]) == 1
        assert "comma-separated" in capsys.readouterr().err


class TestScaleComparison:
    def test_pricing_differs_numerics_do_not(self, tmp_cache):
        """The two sweeps run identical problems; only the machine
        pricing moves the seconds."""
        from repro.tune import scale

        prof = synthetic_profile()
        comp = scale.run_scale(prof, local_nx=8, iterations=1,
                               mg_levels=2, nodes=(2, 3))
        assert comp.preset.ns == comp.measured.ns
        assert comp.measured_machine.mem_bandwidth == prof.triad_bandwidth
        # the synthetic profile is a far slower machine than Table II
        for pre, mea in zip(comp.preset.ref_seconds,
                            comp.measured.ref_seconds):
            assert mea > pre

    def test_unknown_preset_rejected(self):
        from repro.tune import scale

        with pytest.raises(InvalidValue):
            scale.run_scale(synthetic_profile(), preset="riscv")


class TestDistProfilePull:
    """PR-4 follow-up: unpinned simulated runs read the cached
    profile's measured overlap efficiency automatically."""

    def test_unpinned_run_pulls_overlap_efficiency(self, tmp_cache,
                                                   problem8):
        cache.save_profile(synthetic_profile(overlap_efficiency=0.37))
        run = RefDistRun(problem8, nprocs=2, mg_levels=2)
        assert run.machine.overlap_efficiency == 0.37

    def test_no_profile_keeps_preset(self, tmp_cache, problem8):
        run = RefDistRun(problem8, nprocs=2, mg_levels=2)
        assert run.machine.overlap_efficiency == 1.0

    def test_explicit_machine_wins(self, tmp_cache, problem8):
        from repro.dist.bsp import ARM_CLUSTER_NODE

        cache.save_profile(synthetic_profile(overlap_efficiency=0.37))
        run = RefDistRun(problem8, nprocs=2, mg_levels=2,
                         machine=ARM_CLUSTER_NODE)
        assert run.machine.overlap_efficiency == 1.0

    def test_explicit_efficiency_wins(self, tmp_cache, problem8):
        cache.save_profile(synthetic_profile(overlap_efficiency=0.37))
        run = RefDistRun(problem8, nprocs=2, mg_levels=2,
                         overlap_efficiency=0.5)
        assert run.machine.overlap_efficiency == 0.5

    def test_pulled_efficiency_prices_overlap_mode(self, tmp_cache,
                                                   problem8):
        """Residuals stay bit-identical; only the pricing moves."""
        cache.save_profile(synthetic_profile(overlap_efficiency=0.37))
        pulled = RefDistRun(problem8, nprocs=2, mg_levels=2,
                            comm_mode="overlap")
        pinned = RefDistRun(problem8, nprocs=2, mg_levels=2,
                            comm_mode="overlap", overlap_efficiency=1.0)
        res_pulled = pulled.run_cg(max_iters=2)
        res_pinned = pinned.run_cg(max_iters=2)
        assert res_pulled.residuals == res_pinned.residuals
        assert (res_pulled.hidden_comm_seconds
                < res_pinned.hidden_comm_seconds)
