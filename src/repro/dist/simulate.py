"""Shared engine of the simulated distributed runs.

The three backends (:class:`~repro.dist.hybrid.HybridALPRun`,
:class:`~repro.dist.hybrid2d.Hybrid2DRun`,
:class:`~repro.dist.refdist.RefDistRun`) run *identical numerics*: a
scipy transcription of the serial GraphBLAS CG + multigrid V-cycle
whose every floating-point operation mirrors the substrate's kernels —
the same CSR row reductions, the same ``waxpby`` in-place update forms,
the same colour order — so residual histories are bit-identical to
``run_hpcg``.  What differs per backend is *communication*: subclasses
override the ``*_comm`` hooks to record sends on the
:class:`~repro.dist.comm.CommTracker` and to price each superstep on
the BSP machine.

This separation is the point of the simulation: convergence is provably
unchanged by the distribution (the paper's Section V precondition), so
backends compete purely on the communication they induce.

Communication modes
-------------------

Every run executes in one of two modes (explicit ``comm_mode=``
argument, else the ``REPRO_OVERLAP`` environment force, else eager):

* ``"eager"`` — each exchange is a synchronous superstep priced
  ``work + comm`` (the original BSP sum);
* ``"overlap"`` — exchanges are *posted* (split-phase): the backend
  tags the local compute that can proceed while the exchange is in
  flight (interior rows, the next colour's interior update, ...) and
  the BSP model hides wire time behind it, up to the machine's
  ``overlap_efficiency``.

The mode changes **pricing only** — sends, supersteps and numerics are
identical, so residual histories are bit-for-bit equal across modes.
Both the full (eager-equivalent) and the exposed (post-overlap) wire
time are accumulated, per timer key under ``comm/full/...`` /
``comm/exposed/...`` and in total on the result, so experiments can
report how much latency the split-phase engine hides.

Coarse-grid agglomeration
-------------------------

``agglomerate_below=n`` gathers every MG level with at most ``n`` rows
onto node 0 (never the finest level): its smoother and residual mxv
become single-node local work — no supersteps, no latency — at the cost
of one gather superstep entering the level, one scatter leaving it, and
the loss of ``p``-way parallelism on the agglomerated work.  The
tradeoff is priced through the same engine, so ``bsp_time`` shows
whether dodging the tiny-superstep latencies pays.

Hybrid node-local execution
---------------------------

``execute_local=True`` makes the run *measure* its node-local speedup
instead of only pricing it: before the solve, the finest level's
per-node SpMV (the :class:`~repro.dist.halo.LocalSpmvExecutor` node
blocks under a Block1D ownership) executes once serially and once with
the nodes dispatched across a ``ThreadPoolExecutor`` of
``node_threads`` workers (default: the ``REPRO_THREADS`` resolution) —
bit-identical outputs, asserted.  The observed serial/threaded ratio
becomes ``node_speedup``, which scales every superstep's *work* term
(communication is unchanged — threads share the NIC), and is surfaced
on the :class:`DistRunResult`.  Numerics are untouched either way.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.dist.bsp import ARM_CLUSTER_NODE, BSPMachine
from repro.dist.comm import CommTracker, SuperstepStats, resolve_comm_mode
from repro.dist.faults import FaultInjector, FaultPlan, NodeCrash
from repro.dist.cost import (
    _DOT_BYTES,
    _MXV_NNZ_BYTES,
    _MXV_ROW_BYTES,
    _RESTRICT_COPY_BYTES,
    _RESTRICT_MXV_BYTES,
    _WAXPBY_BYTES,
    mxv_bytes,
    per_node_color_work,
    per_node_rows_and_nnz,
)
from repro.dist.partition import Block1D
from repro.dist.result import DistRunResult
from repro.grid import Grid3D, stencil_coo
from repro.hpcg.coloring import lattice_coloring
from repro.hpcg.problem import Problem
from repro.util.errors import InvalidValue
from repro.util.reduction import blocked_dot
from repro.util.timer import TimerRegistry


class SimLevel:
    """One multigrid level's numeric data (operator, colours, injection)."""

    def __init__(self, index: int, grid: Grid3D, A: sp.csr_matrix,
                 stencil: str):
        self.index = index
        self.grid = grid
        self.A = A
        self.n = A.shape[0]
        self.diag = A.diagonal()
        self.colors = lattice_coloring(grid, stencil)
        self.ncolors = int(self.colors.max()) + 1
        self.color_rows = [np.flatnonzero(self.colors == c)
                           for c in range(self.ncolors)]
        self.color_blocks = [A[rows, :] for rows in self.color_rows]
        # set by the hierarchy builder when a coarser level exists
        self.injection: Optional[np.ndarray] = None
        # set when the level is gathered onto one node (agglomeration)
        self.agglomerated = False
        self.agg_spmv_work = 0.0
        self.agg_color_work: List[float] = []


class CGCheckpoint:
    """One CG-state snapshot: everything a rollback needs to resume
    iteration ``k + 1`` exactly where the clean run would be."""

    __slots__ = ("k", "x", "r", "p", "rtz", "normr", "normr0", "residuals")

    def __init__(self, k: int, x: np.ndarray, r: np.ndarray, p: np.ndarray,
                 rtz: float, normr: float, normr0: float,
                 residuals: List[float]):
        self.k = k
        self.x = x
        self.r = r
        self.p = p
        self.rtz = rtz
        self.normr = normr
        self.normr0 = normr0
        self.residuals = residuals


class SimulatedDistRun:
    """Base class: exact CG+MG numerics with pluggable communication."""

    backend = "dist"

    def __init__(self, problem: Problem, nprocs: int, mg_levels: int = 4,
                 machine: Optional[BSPMachine] = None,
                 comm_mode: Optional[str] = None,
                 overlap_efficiency: Optional[float] = None,
                 agglomerate_below: int = 0,
                 execute_local: bool = False,
                 node_threads: Optional[int] = None,
                 faults: Optional[FaultPlan] = None):
        if machine is None:
            # no machine pinned: the Table-II ARM preset, but with the
            # *measured* overlap efficiency when this machine has a
            # cached tune profile (PR-4 follow-up) — an explicit
            # machine= or overlap_efficiency= always wins
            machine = ARM_CLUSTER_NODE
            if overlap_efficiency is None:
                from repro.tune import cache as tune_cache
                profile = tune_cache.current_profile()
                if profile is not None:
                    overlap_efficiency = profile.overlap_efficiency
        if nprocs < 1:
            raise InvalidValue(f"need at least one process, got {nprocs}")
        if nprocs > problem.n:
            raise InvalidValue(f"{nprocs} processes for {problem.n} rows: "
                               f"every node needs at least one row")
        if mg_levels < 1:
            raise InvalidValue(f"need at least one MG level, got {mg_levels}")
        if problem.grid.max_mg_levels() < mg_levels:
            raise InvalidValue(
                f"grid {problem.grid.dims} supports at most "
                f"{problem.grid.max_mg_levels()} MG levels, "
                f"requested {mg_levels}"
            )
        if agglomerate_below < 0:
            raise InvalidValue(
                f"agglomeration threshold must be >= 0, "
                f"got {agglomerate_below}"
            )
        self.problem = problem
        self.nprocs = nprocs
        self.mg_levels = mg_levels
        # an overlap_efficiency override is folded into the machine
        # itself (dataclass validation included), so every pricing
        # helper that takes ``run.machine`` — bsp_time,
        # tracker_exposed_comm_time, perf.model.overlap_savings —
        # agrees with the run's own numbers
        if overlap_efficiency is not None:
            machine = dataclasses.replace(
                machine, overlap_efficiency=overlap_efficiency)
        self.machine = machine
        self.comm_mode = resolve_comm_mode(comm_mode)
        self.overlap = self.comm_mode == "overlap"
        self.overlap_efficiency = machine.overlap_efficiency
        self.agglomerate_below = agglomerate_below
        if node_threads is not None and node_threads < 1:
            raise InvalidValue(
                f"node_threads must be >= 1, got {node_threads}"
            )
        self.execute_local = execute_local
        self.node_threads = node_threads   # resolved at calibration
        self.node_speedup = 1.0
        self.executed_local = False
        self.n = problem.n
        stencil = getattr(problem, "stencil", "27pt")
        self.levels: List[SimLevel] = []
        grid = problem.grid
        A = problem.A.to_scipy()
        for index in range(mg_levels):
            level = SimLevel(index, grid, A, stencil)
            self.levels.append(level)
            if index + 1 < mg_levels:
                level.injection = grid.injection_indices()
                grid = grid.coarsen()
                rows, cols, vals = stencil_coo(grid, stencil)
                A = sp.csr_matrix((vals, (rows, cols)),
                                  shape=(grid.npoints, grid.npoints))
                A.sort_indices()
        for level in self.levels:
            # agglomeration: gather small coarse levels onto node 0
            # (never the finest level, which CG itself runs on)
            if (agglomerate_below and level.index > 0
                    and level.n <= agglomerate_below):
                level.agglomerated = True
                level.agg_spmv_work = mxv_bytes(level.A.nnz, level.n)
                level.agg_color_work = [
                    mxv_bytes(block.nnz, rows.size)
                    for block, rows in zip(level.color_blocks,
                                           level.color_rows)
                ]
            else:
                self._init_level_comm(level)
        # fault model: an inactive plan keeps run_cg on the
        # bit-identical fault-free path
        if faults is not None:
            faults.validate_for(nprocs)
        self.faults = faults
        self._injector: Optional[FaultInjector] = None
        self._checkpoint_state: Optional[CGCheckpoint] = None
        self._checkpoint_seconds = 0.0
        self._checkpoints = 0
        self._current_iteration = 0
        # populated by run_cg
        self.tracker: Optional[CommTracker] = None
        self.timers: Optional[TimerRegistry] = None
        self.comm_timers: Optional[TimerRegistry] = None
        self._seconds = 0.0
        self._comm_seconds = 0.0
        self._exposed_comm_seconds = 0.0
        # observability taps, armed per run_cg (None when tracing is off)
        self._m_supersteps = None
        self._m_h = None
        self._m_comm = None
        self._m_faults = None
        self._m_retries = None
        self._m_ckpt = None
        self._m_recoveries = None

    # --- backend hooks -------------------------------------------------------
    def _init_level_comm(self, level: SimLevel) -> None:
        """Attach the backend's partition/communication data to a level."""
        raise NotImplementedError

    def _spmv_comm(self, level: SimLevel, sync_label: str,
                   timer_key: str) -> None:
        """Record the communication of one full operator mxv."""
        raise NotImplementedError

    def _rbgs_comm(self, level: SimLevel, color: int,
                   next_color: Optional[int] = None) -> None:
        """Record the communication of one colour's masked mxv.

        ``next_color`` is the colour the sweep updates next (``None``
        at the end of a half-sweep): in overlap mode its interior work
        is what a split-phase backend hides the exchange behind.
        """
        raise NotImplementedError

    def _restrict_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        raise NotImplementedError

    def _prolong_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        raise NotImplementedError

    # --- the split-phase superstep engine ------------------------------------
    def _close_superstep(self, sync_label: str, timer_key: str,
                         work_bytes: float,
                         overlap_bytes: float = 0.0) -> None:
        """Close the sends recorded on the tracker into one superstep
        and price it.

        Eager mode synchronises (``work + comm``); overlap mode posts
        and waits the same sends as a split-phase exchange, hiding wire
        time behind ``overlap_bytes`` of tagged local compute.
        """
        if self.overlap:
            handle = self.tracker.post(label=sync_label)
            if overlap_bytes:
                handle.overlap(overlap_bytes)
            stats = self.tracker.wait(handle)
        else:
            stats = self.tracker.sync(label=sync_label)
            overlap_bytes = 0.0
        self._tick_superstep(timer_key, work_bytes, stats.h, overlap_bytes)
        if (self._injector is not None
                and self._injector.plan.message_loss is not None):
            self._retry_exchange(stats, sync_label, timer_key)

    # --- pricing helpers -----------------------------------------------------
    def _tick(self, key: str, seconds: float) -> None:
        self.timers.tick(key, seconds)
        self._seconds += seconds

    def _tick_superstep(self, key: str, work_bytes: float, h: int,
                        overlap_bytes: float = 0.0) -> None:
        inj = self._injector
        if inj is not None:
            # every barrier advances the fault clock; the slowest
            # surviving node's straggler/speed factor inflates the
            # max-over-nodes work term (and what it could overlap)
            step = inj.begin_superstep()
            factor = inj.work_factor(step)
            if factor != 1.0:
                work_bytes *= factor
                overlap_bytes *= factor
        if self.node_speedup != 1.0:
            # measured hybrid speedup scales the compute terms only:
            # wire terms are unchanged (threads share the NIC), and a
            # faster node also has *less* compute to hide a posted
            # exchange behind, hence overlap_bytes shrinks with it
            work_bytes /= self.node_speedup
            overlap_bytes /= self.node_speedup
        costs = self.machine.superstep_costs(work_bytes, h, overlap_bytes)
        self._tick(key, costs["total"])
        # wire-time accounting lives in its own registry so the main
        # timers' report() shares still sum to modelled_seconds
        self._comm_seconds += costs["comm_full"]
        self._exposed_comm_seconds += costs["comm_exposed"]
        self.comm_timers.tick(f"full/{key}", costs["comm_full"])
        self.comm_timers.tick(f"exposed/{key}", costs["comm_exposed"])
        with obs.span(f"superstep/{key}", "dist") as sp:
            if sp is not None:
                sp.tick(costs["total"])
                sp.set(
                    h=h, work_bytes=work_bytes, mode=self.comm_mode,
                    overlapped=overlap_bytes > 0,
                    comm_full=costs["comm_full"],
                    comm_exposed=costs["comm_exposed"],
                    comm_hidden=costs["comm_hidden"],
                )
        if self._m_supersteps is not None:
            self._m_supersteps.inc(1, mode=self.comm_mode)
            self._m_h.observe(h)
            self._m_comm.inc(costs["comm_full"], kind="full")
            self._m_comm.inc(costs["comm_exposed"], kind="exposed")
            self._m_comm.inc(costs["comm_hidden"], kind="hidden")
        if inj is not None:
            # crashes surface at the barrier: the superstep is priced,
            # then the failure is detected
            inj.check_crash(step)

    def _tick_local(self, key: str, work_bytes: float) -> None:
        if self._injector is not None:
            work_bytes *= self._injector.work_factor(
                self._injector.superstep)
        self._tick(key, self.machine.work_time(
            work_bytes / self.node_speedup))

    def _retry_exchange(self, stats: SuperstepStats, sync_label: str,
                        timer_key: str) -> None:
        """Price the seeded re-deliveries of one lossy exchange.

        Each retry is a real extra superstep: the tracker re-drives the
        same messages (``retry_of`` links it to the original), and the
        machine charges the full wire time again plus the exponential
        sender backoff — nothing hidden, a retry has no compute to
        overlap.
        """
        inj = self._injector
        loss = inj.plan.message_loss
        origin = inj.superstep - 1          # the just-priced superstep
        retries = inj.exchange_retries_for(stats.h, sync_label, origin)
        for attempt in range(retries):
            retry_stats = self.tracker.retry(stats, label=sync_label)
            step = inj.begin_superstep()
            cost = self.machine.retry_comm_time(stats.h, attempt,
                                                loss.backoff)
            self._tick(timer_key, cost)
            self._comm_seconds += cost
            self._exposed_comm_seconds += cost
            self.comm_timers.tick(f"full/{timer_key}", cost)
            self.comm_timers.tick(f"exposed/{timer_key}", cost)
            if self._m_retries is not None:
                self._m_retries.inc(1, label=sync_label)
            if self._m_supersteps is not None:
                self._m_supersteps.inc(1, mode=self.comm_mode)
                self._m_h.observe(retry_stats.h)
                self._m_comm.inc(cost, kind="full")
                self._m_comm.inc(cost, kind="exposed")
            inj.check_crash(step)

    # --- hybrid node-local execution -----------------------------------------
    #: timing repeats per calibration pass (best-of, noise rejection)
    _CALIBRATE_REPEATS = 3
    #: pricing floor: a measured slowdown never inflates work terms by
    #: more than 20x (guards against degenerate timer readings)
    _MIN_NODE_SPEEDUP = 0.05

    def _calibrate_hybrid(self) -> None:
        """Execute the finest level's per-node SpMV for real and
        measure the node-local thread speedup.

        The per-node blocks come from a
        :class:`~repro.dist.halo.LocalSpmvExecutor` over the same
        Block1D row ownership the 1-D backends partition with.  A
        serial pass loops the nodes; a threaded pass dispatches them
        across a ``ThreadPoolExecutor`` — each node writes a disjoint
        ``y[node.rows]`` slice, so the two passes are bit-identical
        (asserted).  The best-of-:attr:`_CALIBRATE_REPEATS` ratio
        becomes :attr:`node_speedup`; it scales *pricing only* — the
        solve's numerics never touch these vectors.
        """
        from concurrent.futures import ThreadPoolExecutor

        from repro.dist.halo import LocalSpmvExecutor
        from repro.graphblas.substrate import threads as threads_mod

        nthreads = self.node_threads
        if nthreads is None:
            nthreads = threads_mod.resolve()
        # more workers than nodes cannot help: one task per node
        nthreads = max(1, min(nthreads, self.nprocs))
        level0 = self.levels[0]
        owners = Block1D(level0.n, self.nprocs).owner(
            np.arange(level0.n, dtype=np.int64))
        executor = LocalSpmvExecutor(level0.A, owners, self.nprocs,
                                     comm_mode="eager")
        for node in executor.nodes:
            node.provider          # build providers outside the timing
        x = np.random.default_rng(13).standard_normal(level0.n)

        def run_serial(y: np.ndarray) -> float:
            start = time.perf_counter()
            for node in executor.nodes:
                y[node.rows] = node.provider.mxv(x[node.cols])
            return time.perf_counter() - start

        y_serial = np.empty(level0.n)
        serial_s = min(run_serial(y_serial)
                       for _ in range(self._CALIBRATE_REPEATS))
        if nthreads > 1:
            def node_task(node, y: np.ndarray) -> None:
                y[node.rows] = node.provider.mxv(x[node.cols])

            y_threaded = np.empty(level0.n)
            with ThreadPoolExecutor(max_workers=nthreads) as pool:
                def run_threaded() -> float:
                    start = time.perf_counter()
                    futures = [pool.submit(node_task, node, y_threaded)
                               for node in executor.nodes]
                    for future in futures:
                        future.result()
                    return time.perf_counter() - start

                threaded_s = min(run_threaded()
                                 for _ in range(self._CALIBRATE_REPEATS))
            if not np.array_equal(y_serial, y_threaded):
                raise AssertionError(
                    "hybrid node-local execution diverged from the "
                    "serial node loop — disjoint-slice dispatch broken"
                )
            speedup = serial_s / max(threaded_s, 1e-12)
        else:
            threaded_s = serial_s
            speedup = 1.0
        self.node_threads = nthreads
        self.node_speedup = max(speedup, self._MIN_NODE_SPEEDUP)
        self.executed_local = True
        with obs.span("dist/hybrid_calibrate", "dist") as sp:
            if sp is not None:
                sp.set(node_threads=nthreads,
                       node_speedup=self.node_speedup,
                       serial_seconds=serial_s,
                       threaded_seconds=threaded_s,
                       nprocs=self.nprocs, n=level0.n)

    def _vector_share(self, n: int) -> float:
        """Largest per-node share of an ``n``-vector (for local-op work)."""
        return float(-(-n // self.nprocs))

    def _dot_comm(self, n: int) -> None:
        self.tracker.allreduce_scalar(label="dot")
        stats = self.tracker.sync(label="dot")
        self._tick_superstep("cg/dot", _DOT_BYTES * self._vector_share(n),
                             stats.h)

    def _waxpby_cost(self, n: int) -> None:
        self._tick_local("cg/waxpby", _WAXPBY_BYTES * self._vector_share(n))

    # --- agglomerated-level pricing ------------------------------------------
    def _agg_shares(self, n: int) -> np.ndarray:
        """Every node's bytes of an ``n``-vector during gather/scatter."""
        return Block1D(n, self.nprocs).sizes * 8

    def _agg_gather(self, fine: SimLevel, coarse: SimLevel) -> None:
        """Restriction into an agglomerated level: ship every node's
        share of the coarse residual to node 0 (one superstep)."""
        self.tracker.send_many(np.arange(self.nprocs), 0,
                               self._agg_shares(coarse.n), label="agg_gather")
        self._close_superstep(
            "agg_gather", f"mg/L{fine.index}/restrict",
            _RESTRICT_COPY_BYTES * self._vector_share(coarse.n),
        )

    def _agg_scatter(self, fine: SimLevel, coarse: SimLevel) -> None:
        """Prolongation out of an agglomerated level: node 0 returns
        each node its share of the coarse correction (one superstep)."""
        self.tracker.send_many(0, np.arange(self.nprocs),
                               self._agg_shares(coarse.n), label="agg_scatter")
        self._close_superstep(
            "agg_scatter", f"mg/L{fine.index}/prolong",
            _RESTRICT_COPY_BYTES * self._vector_share(coarse.n),
        )

    # --- exact numerics ------------------------------------------------------
    def _dot(self, u: np.ndarray, v: np.ndarray) -> float:
        value = blocked_dot(u, v)
        self._dot_comm(u.shape[0])
        return value

    def _norm(self, r: np.ndarray) -> float:
        return float(np.sqrt(self._dot(r, r)))

    def _spmv(self, level: SimLevel, x: np.ndarray, sync_label: str,
              timer_key: str) -> np.ndarray:
        if level.agglomerated:
            # the whole level lives on node 0: full work, no messages
            self._tick_local(timer_key, level.agg_spmv_work)
        else:
            self._spmv_comm(level, sync_label, timer_key)
        return level.A @ x

    def _smooth(self, level: SimLevel, z: np.ndarray, r: np.ndarray,
                sweeps: int) -> None:
        for _ in range(sweeps):
            self._half_sweep(level, z, r, range(level.ncolors))
            self._half_sweep(level, z, r,
                             range(level.ncolors - 1, -1, -1))

    def _half_sweep(self, level: SimLevel, z: np.ndarray, r: np.ndarray,
                    order) -> None:
        order = list(order)
        for pos, c in enumerate(order):
            rows = level.color_rows[c]
            s = level.color_blocks[c] @ z
            d = level.diag[rows]
            z[rows] = (r[rows] - s + z[rows] * d) / d
            if level.agglomerated:
                self._tick_local(f"mg/L{level.index}/rbgs",
                                 level.agg_color_work[c])
            else:
                nxt = order[pos + 1] if pos + 1 < len(order) else None
                self._rbgs_comm(level, c, nxt)

    def _vcycle(self, li: int, z: np.ndarray, r: np.ndarray) -> np.ndarray:
        level = self.levels[li]
        with obs.span(f"mg/L{li}", "mg",
                      {"level": li, "n": level.n,
                       "agglomerated": level.agglomerated}) as sp:
            modelled_before = self._seconds
            self._smooth(level, z, r, sweeps=1)      # pre-smoothing
            if li + 1 == len(self.levels):
                if sp is not None:
                    sp.tick(self._seconds - modelled_before)
                return z
            coarse = self.levels[li + 1]
            f = self._spmv(level, z, "mg_spmv", f"mg/L{li}/spmv")
            f *= -1.0
            f += 1.0 * r                              # f <- r - A z
            rc = f[level.injection].copy()            # restrict (injection)
            if coarse.agglomerated:
                if level.agglomerated:
                    # both levels already sit on node 0: a local copy
                    self._tick_local(f"mg/L{li}/restrict",
                                     _RESTRICT_COPY_BYTES * coarse.n)
                else:
                    self._agg_gather(level, coarse)
            else:
                self._restrict_comm(level, coarse)
            zc = np.zeros(coarse.n)
            self._vcycle(li + 1, zc, rc)
            z[level.injection] += zc                  # refine-and-add
            if coarse.agglomerated:
                if level.agglomerated:
                    self._tick_local(f"mg/L{li}/prolong",
                                     _RESTRICT_COPY_BYTES * coarse.n)
                else:
                    self._agg_scatter(level, coarse)
            else:
                self._prolong_comm(level, coarse)
            self._smooth(level, z, r, sweeps=1)       # post-smoothing
            if sp is not None:
                # modelled time at this level *includes* coarser levels
                # (they execute within this span's dynamic extent, just
                # like the span nesting shows)
                sp.tick(self._seconds - modelled_before)
        return z

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        z = np.zeros(self.n)
        self._vcycle(0, z, r)
        return z

    # --- run bookkeeping -----------------------------------------------------
    def _fresh_clocks(self) -> None:
        """Reset every accumulator a solve writes into."""
        self.tracker = CommTracker(self.nprocs)
        self.timers = TimerRegistry()
        self.comm_timers = TimerRegistry()
        self._seconds = 0.0
        self._comm_seconds = 0.0
        self._exposed_comm_seconds = 0.0

    def _arm_metrics(self):
        """Arm the per-run metric taps; returns the CG progress tuple
        ``(res_series, iter_gauge, res_gauge)`` (Nones when off)."""
        registry = obs.metrics_registry()
        self._m_supersteps = self._m_h = self._m_comm = None
        res_series = iter_gauge = res_gauge = None
        if registry is not None:
            self._m_supersteps = registry.counter(
                "dist_supersteps_total", "BSP supersteps closed")
            self._m_h = registry.series(
                "dist_h_relation", "h-relation bytes per superstep")
            self._m_comm = registry.counter(
                "dist_comm_seconds",
                "modelled wire seconds by exposure (full/exposed/hidden)")
            res_series = registry.series(
                "dist_cg_residual",
                "simulated CG residual 2-norm per iteration")
            iter_gauge = registry.gauge(
                "dist_cg_iteration",
                "current simulated-CG iteration (live progress)")
            res_gauge = registry.gauge(
                "dist_cg_residual_last",
                "most recent simulated-CG residual 2-norm")
        return res_series, iter_gauge, res_gauge

    def _arm_fault_metrics(self) -> None:
        registry = obs.metrics_registry()
        self._m_faults = self._m_retries = None
        self._m_ckpt = self._m_recoveries = None
        if registry is not None:
            self._m_faults = registry.counter(
                "faults_injected_total", "injected fault events by kind")
            self._m_retries = registry.counter(
                "exchange_retries_total",
                "lost-exchange re-deliveries priced as extra supersteps")
            self._m_ckpt = registry.counter(
                "checkpoint_seconds",
                "modelled seconds spent taking CG-state checkpoints")
            self._m_recoveries = registry.counter(
                "dist_recoveries_total",
                "crash recoveries (rollback + repartition onto survivors)")

    def _on_fault_event(self, event) -> None:
        """Mirror every injector event into the trace and metrics."""
        if obs.enabled():
            obs.event(f"fault/{event.kind}", "fault", event.as_dict())
        if (self._m_faults is not None
                and event.kind in ("straggler", "node_speeds",
                                   "message_loss", "crash")):
            self._m_faults.inc(1, kind=event.kind)

    # --- checkpoint / restart ------------------------------------------------
    #: vectors a CG checkpoint persists (x, r, p)
    _CKPT_VECTORS = 3

    def _take_checkpoint(self, k: int, x: np.ndarray, r: np.ndarray,
                         p: np.ndarray, rtz: float, normr: float,
                         normr0: float, residuals: List[float]) -> None:
        """Snapshot CG state after iteration ``k``, priced as a gather.

        Every node ships its share of the three CG vectors to node 0
        (which persists them to stable storage) — one superstep.  The
        in-memory snapshot is taken *after* the superstep is priced, so
        a crash landing on the checkpoint barrier leaves the previous
        snapshot as the rollback target, exactly like a torn write to
        stable storage would.
        """
        with obs.span("fault/checkpoint", "fault", {"iteration": k}) as sp:
            before = self._seconds
            shares = self._CKPT_VECTORS * self._agg_shares(self.n)
            self.tracker.send_many(np.arange(self.nprocs), 0, shares,
                                   label="checkpoint")
            stats = self.tracker.sync(label="checkpoint")
            self._tick_superstep(
                "fault/checkpoint",
                _RESTRICT_COPY_BYTES * self._CKPT_VECTORS
                * self._vector_share(self.n),
                stats.h)
            delta = self._seconds - before
            self._checkpoint_seconds += delta
            self._checkpoints += 1
            self._checkpoint_state = CGCheckpoint(
                k=k, x=x.copy(), r=r.copy(), p=p.copy(), rtz=rtz,
                normr=normr, normr0=normr0, residuals=list(residuals))
            if self._m_ckpt is not None:
                self._m_ckpt.inc(delta)
            self._injector.record("checkpoint",
                                  self._injector.superstep - 1,
                                  iteration=k)
            if sp is not None:
                sp.set(seconds=delta)
                sp.tick(delta)

    def _price_recovery(self, checkpoint: CGCheckpoint) -> None:
        """Price the post-repartition restore: node 0 scatters each
        survivor its share of the checkpointed vectors (one superstep
        on the *new* node count)."""
        with obs.span("fault/restore", "fault",
                      {"iteration": checkpoint.k,
                       "nprocs": self.nprocs}) as sp:
            before = self._seconds
            shares = self._CKPT_VECTORS * self._agg_shares(self.n)
            self.tracker.send_many(0, np.arange(self.nprocs), shares,
                                   label="restore")
            stats = self.tracker.sync(label="restore")
            self._tick_superstep(
                "fault/restore",
                _RESTRICT_COPY_BYTES * self._CKPT_VECTORS
                * self._vector_share(self.n),
                stats.h)
            if sp is not None:
                sp.tick(self._seconds - before)

    # --- crash recovery ------------------------------------------------------
    def _respawn_kwargs(self) -> dict:
        """Constructor kwargs a survivor run inherits (subclasses add
        their own).  Hybrid calibration is not re-run: the measured
        node_speedup is adopted instead."""
        return dict(
            mg_levels=self.mg_levels,
            machine=self.machine,
            comm_mode=self.comm_mode,
            agglomerate_below=self.agglomerate_below,
            execute_local=False,
            node_threads=self.node_threads,
        )

    def _respawn(self, nprocs: int) -> "SimulatedDistRun":
        """Rebuild this run on ``nprocs`` surviving nodes, repartitioning
        every level with the backend's own partitioner."""
        return type(self)(self.problem, nprocs, **self._respawn_kwargs())

    def _adopt(self, prior: "SimulatedDistRun") -> None:
        """Continue ``prior``'s solve on this (survivor) run: inherit
        its clocks, fault state and metric taps.  The timer registries
        are shared objects, so the final run's totals are the honest
        whole-execution time including every failed attempt; only the
        tracker restarts (its per-node arrays are sized to the new
        node count)."""
        self.timers = prior.timers
        self.comm_timers = prior.comm_timers
        self._seconds = prior._seconds
        self._comm_seconds = prior._comm_seconds
        self._exposed_comm_seconds = prior._exposed_comm_seconds
        self.tracker = CommTracker(self.nprocs)
        self.faults = prior.faults
        self._injector = prior._injector
        self._checkpoint_state = prior._checkpoint_state
        self._checkpoint_seconds = prior._checkpoint_seconds
        self._checkpoints = prior._checkpoints
        self._current_iteration = prior._current_iteration
        self._m_supersteps = prior._m_supersteps
        self._m_h = prior._m_h
        self._m_comm = prior._m_comm
        self._m_faults = prior._m_faults
        self._m_retries = prior._m_retries
        self._m_ckpt = prior._m_ckpt
        self._m_recoveries = prior._m_recoveries
        self.node_speedup = prior.node_speedup
        self.node_threads = prior.node_threads
        self.executed_local = prior.executed_local

    # --- the resilient execution loop ----------------------------------------
    def _run_cg_resilient(self, max_iters: int, use_mg: bool,
                          tolerance: float) -> DistRunResult:
        """Execute the solve under the active fault plan.

        The numerics are the same transcription :meth:`run_cg` runs;
        only pricing degrades (stragglers, heterogeneous speeds, retry
        supersteps) and the execution path grows checkpoint supersteps
        and — on a planned crash — rollback: repartition onto the
        survivors, restore the last snapshot, re-execute from there.
        The recovered residual history therefore equals the clean
        run's exactly, while ``modelled_seconds`` honestly includes
        checkpoint overhead, rollback and re-execution.
        """
        injector = FaultInjector(self.faults, self.nprocs)
        injector.on_event = self._on_fault_event
        run = self
        run._injector = injector
        run._checkpoint_state = None
        run._checkpoint_seconds = 0.0
        run._checkpoints = 0
        run._current_iteration = 0
        run._fresh_clocks()
        res_series, iter_gauge, res_gauge = run._arm_metrics()
        run._arm_fault_metrics()
        injector.announce_speeds()
        if run.execute_local and not run.executed_local:
            run._calibrate_hybrid()

        initial_nprocs = self.nprocs
        reexecuted = 0
        prior_supersteps = 0
        prior_bytes = 0
        pending_recovery: Optional[CGCheckpoint] = None
        with obs.span("dist/run_cg", "dist", {
            "backend": self.backend, "nprocs": self.nprocs, "n": self.n,
            "mode": self.comm_mode, "machine": self.machine.name,
            "mg_levels": self.mg_levels,
            "node_speedup": self.node_speedup,
            "faulted": True,
        }) as rsp:
            while True:
                try:
                    if pending_recovery is not None:
                        run._price_recovery(pending_recovery)
                    iterations, residuals = run._cg_attempt(
                        max_iters, use_mg, tolerance,
                        resume=pending_recovery,
                        res_series=res_series, iter_gauge=iter_gauge,
                        res_gauge=res_gauge)
                    break
                except NodeCrash as crash:
                    checkpoint = run._checkpoint_state
                    resume_k = checkpoint.k if checkpoint is not None else 0
                    reexecuted += max(run._current_iteration - resume_k, 0)
                    prior_supersteps += run.tracker.num_syncs
                    prior_bytes += run.tracker.total_bytes
                    survivors = injector.alive_count
                    with obs.span("fault/recovery", "fault", {
                        "crashed_node": crash.node,
                        "superstep": crash.superstep,
                        "survivors": survivors,
                        "resume_iteration": resume_k,
                    }):
                        new_run = run._respawn(survivors)
                    new_run._adopt(run)
                    injector.recoveries += 1
                    injector.record(
                        "recovery", injector.superstep, node=crash.node,
                        survivors=survivors, new_nprocs=new_run.nprocs,
                        resume_iteration=resume_k,
                        from_checkpoint=checkpoint is not None)
                    if run._m_recoveries is not None:
                        run._m_recoveries.inc(1)
                    pending_recovery = checkpoint
                    run = new_run
            if rsp is not None:
                rsp.set(iterations=iterations,
                        recoveries=injector.recoveries,
                        final_nprocs=run.nprocs)
                rsp.tick(run._seconds)

        manifest, run_metrics = run._obs_attachments(iterations)
        resilience = {
            "plan": self.faults.to_dict(),
            "seed": self.faults.seed,
            "events": [e.as_dict() for e in injector.events],
            "injected": injector.injected_counts(),
            "recoveries": injector.recoveries,
            "checkpoints": run._checkpoints,
            "checkpoint_seconds": run._checkpoint_seconds,
            "exchange_retries": injector.exchange_retries,
            "initial_nprocs": initial_nprocs,
            "final_nprocs": run.nprocs,
            "reexecuted_iterations": reexecuted,
            "supersteps_total": prior_supersteps + run.tracker.num_syncs,
            "comm_bytes_total": prior_bytes + run.tracker.total_bytes,
        }
        if run_metrics is not None:
            run_metrics["recoveries"] = injector.recoveries
            run_metrics["checkpoint_seconds"] = run._checkpoint_seconds
            run_metrics["exchange_retries"] = injector.exchange_retries
        return DistRunResult(
            backend=run.backend,
            nprocs=run.nprocs,
            n=run.n,
            iterations=iterations,
            residuals=residuals,
            modelled_seconds=run._seconds,
            timers=run.timers,
            tracker=run.tracker,
            mg_levels=run.mg_levels,
            comm_mode=run.comm_mode,
            comm_seconds=run._comm_seconds,
            exposed_comm_seconds=run._exposed_comm_seconds,
            comm_timers=run.comm_timers,
            machine=run.machine.name,
            manifest=manifest,
            metrics=run_metrics,
            executed_local=run.executed_local,
            node_threads=run.node_threads or 0,
            node_speedup=run.node_speedup,
            resilience=resilience,
        )

    def _cg_attempt(self, max_iters: int, use_mg: bool, tolerance: float,
                    resume: Optional[CGCheckpoint], res_series,
                    iter_gauge, res_gauge):
        """One (re)execution attempt of the CG loop.

        ``resume=None`` starts from the problem's initial guess with
        exactly :meth:`run_cg`'s operation sequence; otherwise CG state
        is restored from the checkpoint and the loop re-enters at
        ``resume.k + 1`` — on the ``k > 1`` beta branch, with ``rtz``
        restored, so every subsequent residual equals the clean run's.
        Raises :class:`~repro.dist.faults.NodeCrash` when the injector
        detects a planned failure at a barrier.
        """
        level0 = self.levels[0]
        n = self.n
        if resume is None:
            b = self.problem.b.to_dense()
            x = self.problem.x0.to_dense()
            Ap = self._spmv(level0, x, "spmv", "cg/spmv")
            r = np.multiply(b, 1.0)
            r += -1.0 * Ap                             # r <- b - A x
            self._waxpby_cost(n)
            normr0 = normr = self._norm(r)
            residuals = [normr]
            if res_series is not None:
                res_series.observe(normr, backend=self.backend)
            rtz = 0.0
            p = np.empty(n)
            k_start = 1
            iterations = 0
        else:
            x = resume.x.copy()
            r = resume.r.copy()
            p = resume.p.copy()
            rtz = resume.rtz
            normr = resume.normr
            normr0 = resume.normr0
            residuals = list(resume.residuals)
            k_start = resume.k + 1
            iterations = resume.k
        ckpt_plan = self.faults.checkpoint
        if normr0 != 0.0:
            for k in range(k_start, max_iters + 1):
                if tolerance > 0 and normr / normr0 <= tolerance:
                    break
                self._current_iteration = k
                with obs.span("cg/iteration", "cg", {"k": k}) as sp:
                    modelled_before = self._seconds
                    if use_mg:
                        z = self._precondition(r)      # z <- M r
                    else:
                        z = np.multiply(r, 1.0)
                        z += 0.0 * r                   # z <- r
                        self._waxpby_cost(n)
                    if k == 1:
                        np.multiply(z, 1.0, out=p)
                        p += 0.0 * z                   # p <- z
                        self._waxpby_cost(n)
                        rtz = self._dot(r, z)
                    else:
                        rtz_old = rtz
                        rtz = self._dot(r, z)
                        beta = rtz / rtz_old
                        p *= beta
                        p += 1.0 * z                   # p <- z + beta p
                        self._waxpby_cost(n)
                    Ap = self._spmv(level0, p, "spmv", "cg/spmv")
                    pAp = self._dot(p, Ap)
                    alpha = rtz / pAp
                    x *= 1.0
                    x += alpha * p                     # x <- x + alpha p
                    self._waxpby_cost(n)
                    r *= 1.0
                    r += -alpha * Ap                   # r <- r - alpha Ap
                    self._waxpby_cost(n)
                    normr = self._norm(r)
                    if sp is not None:
                        sp.set(normr=normr)
                        sp.tick(self._seconds - modelled_before)
                residuals.append(normr)
                if res_series is not None:
                    res_series.observe(normr, backend=self.backend)
                    iter_gauge.set(k)
                    res_gauge.set(normr)
                iterations = k
                if (ckpt_plan is not None and k % ckpt_plan.interval == 0
                        and k < max_iters):
                    self._take_checkpoint(k, x, r, p, rtz, normr, normr0,
                                          residuals)
        return iterations, residuals

    def run_cg(self, max_iters: int = 50, use_mg: bool = True,
               tolerance: float = 0.0) -> DistRunResult:
        """Simulate a full preconditioned CG solve.

        The iteration structure transcribes :func:`repro.hpcg.cg.pcg`
        operation for operation, so the residual history is
        bit-identical to the serial driver's — in either communication
        mode, which changes pricing only.

        Under an *active* :class:`~repro.dist.faults.FaultPlan` the
        solve routes through the resilient execution loop instead
        (same numerics, degraded pricing, checkpoint/restart recovery);
        ``faults=None`` or an empty plan keeps this exact path.
        """
        if self.faults is not None and self.faults.active():
            return self._run_cg_resilient(max_iters, use_mg, tolerance)
        self._fresh_clocks()
        res_series, iter_gauge, res_gauge = self._arm_metrics()
        level0 = self.levels[0]
        n = self.n
        b = self.problem.b.to_dense()
        x = self.problem.x0.to_dense()

        if self.execute_local and not self.executed_local:
            self._calibrate_hybrid()

        run_span = obs.span("dist/run_cg", "dist", {
            "backend": self.backend, "nprocs": self.nprocs, "n": n,
            "mode": self.comm_mode, "machine": self.machine.name,
            "mg_levels": self.mg_levels,
            "node_speedup": self.node_speedup,
        })
        with run_span as rsp:
            Ap = self._spmv(level0, x, "spmv", "cg/spmv")
            r = np.multiply(b, 1.0)
            r += -1.0 * Ap                             # r <- b - A x
            self._waxpby_cost(n)
            normr0 = normr = self._norm(r)
            residuals = [normr]
            if res_series is not None:
                res_series.observe(normr, backend=self.backend)

            iterations = 0
            if normr0 != 0.0:
                rtz = 0.0
                p = np.empty(n)
                for k in range(1, max_iters + 1):
                    if tolerance > 0 and normr / normr0 <= tolerance:
                        break
                    with obs.span("cg/iteration", "cg", {"k": k}) as sp:
                        modelled_before = self._seconds
                        if use_mg:
                            z = self._precondition(r)  # z <- M r
                        else:
                            z = np.multiply(r, 1.0)
                            z += 0.0 * r               # z <- r
                            self._waxpby_cost(n)
                        if k == 1:
                            np.multiply(z, 1.0, out=p)
                            p += 0.0 * z               # p <- z
                            self._waxpby_cost(n)
                            rtz = self._dot(r, z)
                        else:
                            rtz_old = rtz
                            rtz = self._dot(r, z)
                            beta = rtz / rtz_old
                            p *= beta
                            p += 1.0 * z               # p <- z + beta p
                            self._waxpby_cost(n)
                        Ap = self._spmv(level0, p, "spmv", "cg/spmv")
                        pAp = self._dot(p, Ap)
                        alpha = rtz / pAp
                        x *= 1.0
                        x += alpha * p                 # x <- x + alpha p
                        self._waxpby_cost(n)
                        r *= 1.0
                        r += -alpha * Ap               # r <- r - alpha Ap
                        self._waxpby_cost(n)
                        normr = self._norm(r)
                        if sp is not None:
                            sp.set(normr=normr)
                            sp.tick(self._seconds - modelled_before)
                    residuals.append(normr)
                    if res_series is not None:
                        res_series.observe(normr, backend=self.backend)
                        iter_gauge.set(k)
                        res_gauge.set(normr)
                    iterations = k
            if rsp is not None:
                rsp.set(iterations=iterations)
                rsp.tick(self._seconds)

        manifest, run_metrics = self._obs_attachments(iterations)
        return DistRunResult(
            backend=self.backend,
            nprocs=self.nprocs,
            n=n,
            iterations=iterations,
            residuals=residuals,
            modelled_seconds=self._seconds,
            timers=self.timers,
            tracker=self.tracker,
            mg_levels=self.mg_levels,
            comm_mode=self.comm_mode,
            comm_seconds=self._comm_seconds,
            exposed_comm_seconds=self._exposed_comm_seconds,
            comm_timers=self.comm_timers,
            machine=self.machine.name,
            manifest=manifest,
            metrics=run_metrics,
            executed_local=self.executed_local,
            node_threads=self.node_threads or 0,
            node_speedup=self.node_speedup,
        )

    def _obs_attachments(self, iterations: int):
        """Manifest + compact metrics for the result (None when off)."""
        if not obs.enabled():
            return None, None
        recorder = obs.manifest_recorder()
        recorder.record_config(dist={
            "backend": self.backend,
            "nprocs": self.nprocs,
            "mg_levels": self.mg_levels,
            "machine": self.machine.name,
            "comm_mode": self.comm_mode,
            "overlap_efficiency": self.overlap_efficiency,
            "agglomerate_below": self.agglomerate_below,
            "execute_local": self.execute_local,
            "node_threads": self.node_threads or 0,
            "node_speedup": self.node_speedup,
        })
        if self.faults is not None and self.faults.active():
            recorder.record_config(faults=self.faults.to_dict())
            recorder.record_seed("fault_plan", self.faults.seed)
        manifest = obs.current().build_manifest()
        run_metrics = {
            "supersteps": self.tracker.num_syncs,
            "comm_bytes": self.tracker.total_bytes,
            "total_h": self.tracker.total_h,
            "modelled_seconds": self._seconds,
            "comm_seconds": self._comm_seconds,
            "exposed_comm_seconds": self._exposed_comm_seconds,
            "hidden_comm_seconds": (
                self._comm_seconds - self._exposed_comm_seconds),
            "iterations": iterations,
            "node_speedup": self.node_speedup,
        }
        return manifest, run_metrics
