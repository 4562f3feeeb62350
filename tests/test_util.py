"""Timers and error types."""

import time

import numpy as np
import pytest

from repro.util.errors import (
    DimensionMismatch,
    DomainMismatch,
    InvalidValue,
    NotConverged,
    OutputAliasing,
    ReproError,
)
from repro.util.reduction import BLOCK, blocked_dot
from repro.util.timer import Timer, TimerRegistry, null_timer


class TestTimer:
    def test_measure_accumulates(self):
        t = Timer("x")
        with t.measure():
            time.sleep(0.002)
        with t.measure():
            pass
        assert t.total > 0.001 and t.count == 2

    def test_tick(self):
        t = Timer("x")
        t.tick(1.5)
        t.tick(0.5)
        assert t.total == 2.0 and t.count == 2

    def test_tick_negative_rejected(self):
        with pytest.raises(ValueError):
            Timer("x").tick(-1.0)

    def test_reset(self):
        t = Timer("x")
        t.tick(3.0)
        t.reset()
        assert t.total == 0.0 and t.count == 0


class TestTimerRegistry:
    def test_get_creates_once(self):
        reg = TimerRegistry()
        assert reg.get("a") is reg.get("a")

    def test_prefix_totals(self):
        reg = TimerRegistry()
        reg.tick("mg/L0/rbgs", 1.0)
        reg.tick("mg/L1/rbgs", 2.0)
        reg.tick("cg/dot", 5.0)
        assert reg.total("mg/") == 3.0
        assert reg.total("") == 8.0
        assert reg.total("mg/L1") == 2.0

    def test_measure_context(self):
        reg = TimerRegistry()
        with reg.measure("k"):
            pass
        assert reg.get("k").count == 1

    def test_as_dict_sorted(self):
        reg = TimerRegistry()
        reg.tick("b", 1.0)
        reg.tick("a", 2.0)
        assert list(reg.as_dict()) == ["a", "b"]

    def test_report_renders(self):
        reg = TimerRegistry()
        reg.tick("kernel", 1.0)
        text = reg.report()
        assert "kernel" in text and "100.0%" in text

    def test_reset_all(self):
        reg = TimerRegistry()
        reg.tick("a", 1.0)
        reg.reset()
        assert reg.total("") == 0.0

    def test_as_dict_with_counts(self):
        reg = TimerRegistry()
        reg.tick("a", 1.0)
        reg.tick("a", 2.0)
        assert reg.as_dict(counts=True) == {"a": (3.0, 2)}

    def test_merge_folds_totals_and_counts(self):
        a, b = TimerRegistry(), TimerRegistry()
        a.tick("shared", 1.0)
        b.tick("shared", 2.0)
        b.tick("only_b", 4.0)
        assert a.merge(b) is a
        assert a.as_dict(counts=True) == {
            "shared": (3.0, 2), "only_b": (4.0, 1),
        }
        # the source registry is untouched
        assert b.as_dict() == {"only_b": 4.0, "shared": 2.0}

    def test_rollup_by_prefix_depth(self):
        reg = TimerRegistry()
        reg.tick("mg/L0/rbgs", 1.0)
        reg.tick("mg/L0/restrict", 2.0)
        reg.tick("mg/L1/rbgs", 4.0)
        reg.tick("cg/dot", 8.0)
        assert reg.rollup() == {"cg": 8.0, "mg": 7.0}
        assert reg.rollup(depth=2) == {
            "cg/dot": 8.0, "mg/L0": 3.0, "mg/L1": 4.0,
        }
        # every leaf lands in exactly one bucket at every depth
        assert sum(reg.rollup().values()) == reg.total("")
        with pytest.raises(ValueError):
            reg.rollup(depth=0)

    def test_reentrant_measure_rejected(self):
        t = Timer("x")
        with pytest.raises(RuntimeError, match="re-entrant"):
            with t.measure():
                with t.measure():
                    pass
        # the guard resets, so the timer stays usable afterwards
        with t.measure():
            pass
        assert t.count == 2  # the failed outer exit still counted once

    def test_registry_reentrant_guard_through_measure(self):
        reg = TimerRegistry()
        with pytest.raises(RuntimeError):
            with reg.measure("k"):
                with reg.measure("k"):
                    pass
        # distinct labels nest fine (the mg/L{i} recursion pattern)
        with reg.measure("outer"), reg.measure("inner"):
            pass


class TestNullTimer:
    def test_noop_everything(self):
        with null_timer.measure("anything"):
            pass
        null_timer.tick("x", 5.0)
        assert null_timer.total("x") == 0.0
        assert null_timer.get("y") is null_timer


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(DimensionMismatch, ReproError)
        assert issubclass(DimensionMismatch, ValueError)
        assert issubclass(DomainMismatch, TypeError)
        assert issubclass(InvalidValue, ValueError)
        assert issubclass(OutputAliasing, ValueError)

    def test_not_converged_payload(self):
        err = NotConverged("failed", iterations=50, residual=0.1)
        assert err.iterations == 50 and err.residual == 0.1

    def test_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            raise InvalidValue("nope")


class TestBlockedDot:
    def test_short_vectors_are_plain_np_dot(self):
        rng = np.random.default_rng(3)
        for n in (0, 1, 17, BLOCK):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            assert blocked_dot(x, y) == float(np.dot(x, y))

    def test_long_vectors_sum_block_partials_in_order(self):
        rng = np.random.default_rng(5)
        n = 3 * BLOCK + 123          # a ragged last block
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        want = 0.0
        for lo in range(0, n, BLOCK):
            want += float(np.dot(x[lo:lo + BLOCK], y[lo:lo + BLOCK]))
        assert blocked_dot(x, y) == want
        assert blocked_dot(x, y) == pytest.approx(float(np.dot(x, y)))

    def test_every_solver_dot_is_the_shared_kernel(self):
        """GraphBLAS, reference and simulated-dist dots agree bit for
        bit on a 24^3-sized vector (their residual histories rely on
        it)."""
        from repro import graphblas as grb
        from repro.ref.kernels import compute_dot

        rng = np.random.default_rng(7)
        x, y = rng.standard_normal(24 ** 3), rng.standard_normal(24 ** 3)
        gx, gy = grb.Vector.from_dense(x), grb.Vector.from_dense(y)
        assert grb.dot(gx, gy) == compute_dot(x, y) == blocked_dot(x, y)
