"""The executed 2D block distribution (paper §VII-B, solution ii).

Matrix blocks ``A[i][j]`` live on a ``√p x √p`` process grid; the
vector is owned in ``n/√p`` blocks by the diagonal processes.  One
``mxv`` takes **two** supersteps:

1. *column broadcast* — the diagonal process of column ``j`` ships its
   vector block to the ``√p - 1`` other processes of the column;
2. *row reduction* — every process sends its partial output block to
   the diagonal process of its row.

Per-node traffic drops from ``n (p-1)/p`` to ``n/√p (√p - 1)`` values —
a constant-factor saving that remains Θ(n): the paper's observation
that solution ii "only partially alleviates the communication
bottleneck", bought at twice the barrier count.

The two supersteps route through the split-phase engine but tag no
overlappable work: an off-diagonal process owns *nothing* of the input
block it waits for, so the broadcast cannot hide behind local compute,
and the row reduction needs the partial outputs finished before it can
post — another face of the opaque-container limitation.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.dist.bsp import BSPMachine
from repro.dist.partition import Block1D, largest_square
from repro.dist.simulate import (
    SimLevel,
    SimulatedDistRun,
    _MXV_NNZ_BYTES,
    _MXV_ROW_BYTES,
    _RESTRICT_MXV_BYTES,
)
from repro.hpcg.problem import Problem
from repro.util.errors import InvalidValue


class Hybrid2DRun(SimulatedDistRun):
    """Simulated distributed HPCG over a 2D block matrix distribution."""

    backend = "alp-2d"

    def __init__(self, problem: Problem, nprocs: int, mg_levels: int = 4,
                 machine: Optional[BSPMachine] = None,
                 comm_mode: Optional[str] = None,
                 overlap_efficiency: Optional[float] = None,
                 agglomerate_below: int = 0,
                 execute_local: bool = False,
                 node_threads: Optional[int] = None,
                 faults=None):
        q = int(round(math.sqrt(nprocs)))
        if q * q != nprocs:
            raise InvalidValue(
                f"the 2D block distribution needs a square process count, "
                f"got {nprocs}"
            )
        self.q = q
        # off-diagonal ranks (i, j): the non-roots of every broadcast
        row, col = np.divmod(np.arange(nprocs), q)
        off = row != col
        self._off_rank = np.flatnonzero(off)
        self._off_row, self._off_col = row[off], col[off]
        super().__init__(problem, nprocs, mg_levels, machine,
                         comm_mode=comm_mode,
                         overlap_efficiency=overlap_efficiency,
                         agglomerate_below=agglomerate_below,
                         execute_local=execute_local,
                         node_threads=node_threads,
                         faults=faults)

    def _respawn(self, nprocs: int) -> "Hybrid2DRun":
        """The √p x √p grid needs a square node count: continue on the
        largest square subset of the survivors."""
        return type(self)(self.problem, largest_square(nprocs),
                          **self._respawn_kwargs())

    def _init_level_comm(self, level: SimLevel) -> None:
        q = self.q
        part = Block1D(level.n, q)
        level.partition = part
        level.block_bytes = part.sizes * 8
        # worst-block mxv work: blocks are ~uniform, price the average
        nnz_per_block = level.A.nnz / max(self.nprocs, 1)
        rows_per_block = level.n / q
        level.block_work = (nnz_per_block * _MXV_NNZ_BYTES
                            + rows_per_block * _MXV_ROW_BYTES)
        # per-colour output block sizes (bytes) for the row reduction
        level.color_block_bytes = []
        block_of = part.owner(np.arange(level.n, dtype=np.int64))
        for c in range(level.ncolors):
            counts = np.bincount(block_of[level.color_rows[c]], minlength=q)
            level.color_block_bytes.append(counts.astype(np.int64) * 8)

    # --- the two-superstep mxv ----------------------------------------------
    def _two_phase_mxv(self, in_bytes: np.ndarray, out_bytes: np.ndarray,
                       sync_label: str, timer_key: str,
                       work_bytes: float) -> None:
        diag = self.q + 1          # rank (k, k) is k * (q + 1)
        # phase 1: column broadcast of the input blocks — nothing to
        # overlap: the receivers own no part of the block they await
        self.tracker.send_many(self._off_col * diag, self._off_rank,
                               in_bytes[self._off_col], label=sync_label)
        self._close_superstep(sync_label, timer_key, 0.0)
        # phase 2: row reduction of the partial outputs — posted only
        # after the partials exist, so it too stays exposed
        self.tracker.send_many(self._off_rank, self._off_row * diag,
                               out_bytes[self._off_row], label=sync_label)
        self._close_superstep(sync_label, timer_key, work_bytes)

    # --- communication hooks -------------------------------------------------
    def _spmv_comm(self, level: SimLevel, sync_label: str,
                   timer_key: str) -> None:
        label = "spmv2d" if sync_label == "spmv" else sync_label
        self._two_phase_mxv(level.block_bytes, level.block_bytes,
                            label, timer_key, level.block_work)

    def _rbgs_comm(self, level: SimLevel, color: int,
                   next_color: Optional[int] = None) -> None:
        self._two_phase_mxv(
            level.block_bytes, level.color_block_bytes[color],
            "rbgs2d", f"mg/L{level.index}/rbgs",
            level.block_work / level.ncolors,
        )

    def _restrict_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        self._two_phase_mxv(
            fine.block_bytes, coarse.block_bytes,
            "restrict2d", f"mg/L{fine.index}/restrict",
            _RESTRICT_MXV_BYTES * coarse.n / self.q,
        )

    def _prolong_comm(self, fine: SimLevel, coarse: SimLevel) -> None:
        self._two_phase_mxv(
            coarse.block_bytes, fine.block_bytes,
            "refine2d", f"mg/L{fine.index}/prolong",
            _RESTRICT_MXV_BYTES * coarse.n / self.q,
        )

    def _vector_share(self, n: int) -> float:
        # vectors live in n/√p blocks on the diagonal processes
        return float(-(-n // self.q))
