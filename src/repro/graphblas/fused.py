"""Fused-kernel extensions (nonblocking ALP/GraphBLAS, paper ref. [32]).

Standard (blocking) GraphBLAS executes each primitive eagerly: the RBGS
colour step writes the masked ``mxv`` result to a workspace vector and
immediately re-reads it in the ``eWiseLambda`` — a full round trip
through memory for a value that is consumed once.  Mastoras et al.'s
nonblocking ALP fuses such producer-consumer pairs; the paper's Related
Work singles this out as the main shared-memory headroom.

Two such fusions live here.  They are *extensions*: HPCG code using
them is no longer portable GraphBLAS — which is why they live below the
operations API, and why the smoother reaches the colour-step fusion
only through its plan object:

* :class:`ColorSweepPlan` — the RBGS smoother's fast path and the
  subject of the §VI fusion-traffic ablation
  (:func:`repro.experiments.ablations.fusion_ablation`): a whole
  forward-or-backward multi-colour sweep executed by the active
  provider's prebuilt
  :class:`~repro.graphblas.substrate.base.ColorSweep` (colour
  substructures, row partitions and diagonals hoisted to construction,
  products through the jit lane when numba is available), version-
  validated against the operator, masks and diagonal, and priced as
  ``fused_mxv_lambda`` events through the provider's fused-traffic
  hook so collected byte streams stay honest.  ``REPRO_FUSED=0`` (or
  any unsupported configuration — sparse vectors, non-float64 domains)
  makes the plan decline, and the smoother falls back to the literal
  Listing 2/3 masked-mxv + eWiseLambda transcription — the
  bit-exactness oracle — bit for bit.
* :func:`fused_spmv_waxpby` — CG's hot pair ``w = alpha*x + beta*(A z)``
  (the residual updates in ``pcg`` init and the V-cycle) in one pass,
  eliding the intermediate product vector's 16-byte-per-row round trip;
  through the jit lane it is a single compiled kernel, serial or
  ``prange``-parallel per the ``REPRO_THREADS`` policy.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

import numpy as np

from repro.graphblas import backend
from repro.graphblas.matrix import Matrix
from repro.graphblas.substrate.base import ColorSweep
from repro.graphblas.vector import Vector
from repro.util.errors import InvalidValue

#: Kill switch for the fused smoother fast path: ``REPRO_FUSED=0``
#: restores the reference transcription everywhere.
ENV_FUSED = "REPRO_FUSED"


def fused_enabled(default: bool = True) -> bool:
    """The ``REPRO_FUSED`` switch (on unless explicitly disabled)."""
    raw = os.environ.get(ENV_FUSED, "").strip().lower()
    if raw in ("0", "off", "no", "false"):
        return False
    if raw in ("1", "on", "yes", "true"):
        return True
    return default


def fused_spmv_waxpby(w: Vector, alpha: float, x: Vector, beta: float,
                      A: Matrix, z: Vector) -> bool:
    """``w = alpha*x + beta*(A z)`` without materialising ``A z``.

    The fusion for CG's hot SpMV→waxpby pair.  Returns ``False`` when
    the call cannot be served bit-identically (kill switch, sparse or
    non-float64 operands, empty operator rows whose output presence the
    unfused pair would drop, or ``w`` aliasing the product input) and
    the caller falls back to the ``mxv`` + ``waxpby`` transcription.

    Bit-exactness: the product accumulates each row's partial products
    in ascending column order from ``+0.0`` — every provider's
    contract, so one CSR-order kernel serves all substrates — and
    ``fl(a)+fl(b)`` is commutative in IEEE-754 (signed zeros included),
    so ``alpha*x[i] + beta*acc`` matches both of ``waxpby``'s dense
    site orders.  The jit kernel writes one output element per row
    (``prange``-safe); the numpy fallback still elides the intermediate
    container, keeping the arithmetic of the unfused pair.
    """
    if not fused_enabled():      # the kill switch works per call
        return False
    if w is z:
        return False             # the product must read pre-update z
    if (A.dtype != np.float64 or w.dtype != np.float64
            or x.dtype != np.float64 or z.dtype != np.float64):
        return False
    if not (w.is_dense() and x.is_dense() and z.is_dense()):
        return False
    if w.size != A.nrows or z.size != A.ncols or x.size != w.size:
        return False
    prov = A.provider()
    if not bool((prov.row_nnz > 0).all()):
        return False
    from repro.graphblas.substrate import jit, threads

    wv, xv, zv = w._values, x._values, z._values
    flops, mxv_bytes = prov.mxv_traffic()
    if jit.available():
        jit.csr_mxv_waxpby(A._csr, zv, alpha, xv, beta, wv,
                           nthreads=threads.effective(mxv_bytes))
    else:
        s = prov.mxv(zv)
        np.multiply(xv, alpha, out=wv)
        wv += beta * s
    w._present.fill(True)
    w._bump()
    if backend.active():
        n = w.size
        # the unfused pair costs mxv traffic (tmp write+read included in
        # the provider's rows*16 term) plus waxpby's n*24; fusion elides
        # the intermediate's 16B/row round trip
        backend.record(
            "fused_spmv_waxpby", A.nrows, prov.nnz,
            flops + 3 * n, mxv_bytes + n * 8, fmt=prov.name,
        )
    return True


class ColorSweepPlan:
    """The fused smoother fast path: a provider sweep with caching.

    Binds an operator, its colour masks and its diagonal vector once;
    :meth:`run` executes a whole forward-or-backward sweep through the
    active provider's :class:`ColorSweep`, rebuilding it only when the
    operator, a mask or the diagonal changes (version counters — the
    same invalidation contract the masked-mxv substructure cache uses).

    :meth:`run` returns ``False`` when the fast path cannot serve the
    call bit-identically — non-dense vectors, a non-float64 domain, or
    a provider that opted out of the capability — and the caller is
    expected to fall back to the reference transcription.
    """

    def __init__(self, A: Matrix, colors: Sequence[Vector], diag: Vector,
                 level: Optional[int] = None):
        if not colors:
            raise InvalidValue("at least one colour mask is required")
        self.A = A
        self.colors: List[Vector] = list(colors)
        self.diag = diag
        #: owning MG level, when known — tags emitted events so byte
        #: streams recorded outside a ``labelled`` scope still carry
        #: the level attribution (an enclosing label always wins)
        self.level = level
        self._key = None
        self._sweep: Optional[ColorSweep] = None

    def _event_label(self) -> Optional[str]:
        return None if self.level is None else f"rbgs@L{self.level}"

    def _current_sweep(self) -> Optional[ColorSweep]:
        key = (
            self.A.version,
            self.A.substrate,   # set_substrate swaps providers silently
            self.diag.version,
            tuple(c.version for c in self.colors),
        )
        if key != self._key:
            self._key = key
            self._sweep = None
            if (self.A.dtype == np.float64
                    and self.diag.dtype == np.float64
                    and self.diag.is_dense()):
                rows = [np.flatnonzero(c._present) for c in self.colors]
                self._sweep = self.A.provider().gs_color_sweep(
                    rows, self.diag._values
                )
        return self._sweep

    def run(self, z: Vector, r: Vector, order) -> bool:
        """Execute one sweep over ``order``; False means "fall back"."""
        if not fused_enabled():      # the kill switch works per call
            return False
        if (z.dtype != np.float64 or r.dtype != np.float64
                or not z.is_dense() or not r.is_dense()):
            return False
        sweep = self._current_sweep()
        if sweep is None:
            return False
        zv, rv = z._values, r._values
        if backend.active():
            label = self._event_label()
            for k in order:
                sweep.step(k, zv, rv)
                flops, nbytes = sweep.traffic[k]
                backend.record(
                    "fused_mxv_lambda", sweep.rows[k].size, sweep.nnzs[k],
                    flops, nbytes, fmt=sweep.fmt, label=label,
                )
        else:
            sweep.run(zv, rv, order)
        z._bump()
        return True
