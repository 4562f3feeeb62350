"""Smoothers for the multigrid preconditioner.

The centrepiece is :class:`RBGSSmoother` — the paper's Red-Black
(multi-colour) Gauss-Seidel expressed purely in GraphBLAS primitives,
transcribing Listings 2 and 3:

* per colour ``k``: a *masked, structural* ``mxv`` computes
  ``s = (A z)`` restricted to the rows of colour ``k``;
* an ``ewise_lambda`` then updates those rows in place:
  ``z_i <- (r_i - s_i + z_i * d_i) / d_i`` where ``d`` is the diagonal
  held in a dedicated vector (GraphBLAS has no O(1) element access).

Colours are processed sequentially to honour inter-colour dependencies;
within one colour everything is data-parallel (here: vectorised).

**The fused fast path.**  Executing that transcription literally pays
mask materialisation, row re-extraction, a workspace round trip and
several layers of Python dispatch per colour × sweep × MG level × CG
iteration.  Since the fused-sweep PR the smoother therefore runs whole
sweeps through :class:`repro.graphblas.fused.ColorSweepPlan` — the
active substrate provider's prebuilt
:class:`~repro.graphblas.substrate.base.ColorSweep`, with per-colour
row partitions, substructures and diagonals hoisted to construction
and products on the compiled jit lane when numba is available.  The
fast path is *bit-identical* to the transcription (same kernels, same
accumulation order — ``tests/test_fused_smoother.py`` proves it per
provider, colouring and sweep order) and declines whenever it cannot
be: ``REPRO_FUSED=0``, an explicit ``fused=False``, sparse vectors or
non-float64 domains all fall back to the literal Listing 2/3 path.

The smoothers stay *substrate-agnostic*: both paths execute whichever
kernel provider the matrix's substrate selection picked (CSR,
SELL-C-σ, dense-blocked — see :mod:`repro.graphblas.substrate`), with
bit-identical iterates.

A damped Jacobi smoother (a plain ``mxv`` + ``ewise_lambda`` loop, no
fused path) is provided for the smoother-choice ablation; it is *not*
HPCG-legal (fails the symmetry requirement less strictly speaking — it
is symmetric, but converges slower) and is benchmarked as such.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro import graphblas as grb
from repro import obs
from repro.graphblas import fused as fused_mod
from repro.graphblas.substrate import threads as threads_mod
from repro.util.errors import DimensionMismatch, InvalidValue


class RBGSSmoother:
    """Multi-colour Gauss-Seidel over GraphBLAS containers.

    One ``smooth`` call performs a forward sweep (colours in increasing
    order) followed by a backward sweep (decreasing order) — the
    symmetric variant HPCG requires of its smoother.

    This is the one RBGS implementation.  ``fused`` selects the path:
    ``None`` (default) follows the ``REPRO_FUSED`` environment switch,
    ``False`` pins the literal Listing 2/3 transcription (the
    bit-exactness oracle and the fusion ablation's unfused arm),
    ``True`` arms the fused
    :class:`~repro.graphblas.fused.ColorSweepPlan` (the ablation's
    fused arm).  An armed plan still falls back per call — when it
    cannot serve the request bit-identically (sparse vectors,
    non-float64 domains), and whenever ``REPRO_FUSED=0`` is set at
    call time (the kill switch works on already-built smoothers too).
    """

    def __init__(
        self,
        A: grb.Matrix,
        A_diag: grb.Vector,
        colors: Sequence[grb.Vector],
        fused: Optional[bool] = None,
    ):
        if A.nrows != A.ncols:
            raise InvalidValue("smoother requires a square operator")
        if A_diag.size != A.nrows:
            raise DimensionMismatch(
                f"diagonal size {A_diag.size} != operator rows {A.nrows}"
            )
        if not colors:
            raise InvalidValue("at least one colour mask is required")
        for c in colors:
            if c.size != A.nrows:
                raise DimensionMismatch("colour mask size mismatch")
        self.A = A
        self.A_diag = A_diag
        self.colors: List[grb.Vector] = list(colors)
        #: owning MG level when built by ``build_hierarchy`` (None for
        #: a standalone smoother); tags spans and fused-event streams
        self.level: Optional[int] = None
        # Workspace for the masked products; allocated once, like the
        # explicit `tmp` buffer of Listing 3.
        self._tmp = grb.Vector.dense(A.nrows)
        use_fused = fused_mod.fused_enabled() if fused is None else fused
        self._plan = (
            fused_mod.ColorSweepPlan(A, self.colors, A_diag)
            if use_fused else None
        )

    def set_level(self, index: Optional[int]) -> "RBGSSmoother":
        """Record the owning MG level (propagated into the fused plan)."""
        self.level = index
        if self._plan is not None:
            self._plan.level = index
        return self

    @property
    def n(self) -> int:
        return self.A.nrows

    @property
    def fused_active(self) -> bool:
        """True when the fused fast path is armed (it may still fall
        back per call on configurations it cannot serve)."""
        return self._plan is not None

    @staticmethod
    def _pointwise(idx: np.ndarray, z: np.ndarray, r: np.ndarray,
                   s: np.ndarray, d: np.ndarray) -> None:
        """The Listing-3 lambda, vectorised over one colour."""
        dd = d[idx]
        z[idx] = (r[idx] - s[idx] + z[idx] * dd) / dd

    def _sweep(self, z: grb.Vector, r: grb.Vector, order) -> None:
        with obs.span("smoother/rbgs_sweep", "smoother") as sp:
            if self._plan is not None and self._plan.run(z, r, order):
                if sp is not None:
                    sp.set(fused=True, colors=len(self.colors),
                           level=self.level, n=self.n,
                           lane=threads_mod.lane_name())
                return
            for k in order:
                mask = self.colors[k]
                grb.mxv(self._tmp, mask, self.A, z,
                        desc=grb.descriptors.structural)
                grb.ewise_lambda(
                    self._pointwise, mask, z, r, self._tmp, self.A_diag
                )
            if sp is not None:
                sp.set(fused=False, colors=len(self.colors),
                       level=self.level, n=self.n,
                       lane=threads_mod.lane_name())

    def forward(self, z: grb.Vector, r: grb.Vector) -> grb.Vector:
        """One forward multi-colour Gauss-Seidel sweep (Listing 2)."""
        self._check(z, r)
        self._sweep(z, r, range(len(self.colors)))
        return z

    def backward(self, z: grb.Vector, r: grb.Vector) -> grb.Vector:
        """One backward sweep: colours in decreasing order."""
        self._check(z, r)
        self._sweep(z, r, range(len(self.colors) - 1, -1, -1))
        return z

    def smooth(self, z: grb.Vector, r: grb.Vector, sweeps: int = 1) -> grb.Vector:
        """``sweeps`` symmetric (forward+backward) Gauss-Seidel passes."""
        for _ in range(sweeps):
            self.forward(z, r)
            self.backward(z, r)
        return z

    def _check(self, z: grb.Vector, r: grb.Vector) -> None:
        if z.size != self.n or r.size != self.n:
            raise DimensionMismatch(
                f"vector sizes ({z.size}, {r.size}) != operator size {self.n}"
            )


class JacobiSmoother:
    """Damped Jacobi: ``z += omega * D^-1 (r - A z)``.

    Fully parallel (no colouring needed) but a weaker smoother; kept for
    the ablation study comparing smoother choices.  It runs as a plain
    GraphBLAS ``mxv`` + ``ewise_lambda`` loop — there is no fused path.
    """

    def __init__(self, A: grb.Matrix, A_diag: grb.Vector,
                 omega: float = 2.0 / 3.0):
        if not 0 < omega <= 1.0:
            raise InvalidValue(f"damping factor must be in (0, 1], got {omega}")
        self.A = A
        self.A_diag = A_diag
        self.omega = omega
        self.level: Optional[int] = None
        self._tmp = grb.Vector.dense(A.nrows)

    def set_level(self, index: Optional[int]) -> "JacobiSmoother":
        """Record the owning MG level (tags the sweep spans)."""
        self.level = index
        return self

    @property
    def n(self) -> int:
        return self.A.nrows

    def smooth(self, z: grb.Vector, r: grb.Vector, sweeps: int = 1) -> grb.Vector:
        with obs.span("smoother/jacobi_sweep", "smoother") as sp:
            if sp is not None:
                sp.set(sweeps=sweeps, level=self.level, n=self.n,
                       fused=False, lane=threads_mod.lane_name())
            omega = self.omega

            def update(idx, zv, rv, sv, dv):
                zv[idx] = zv[idx] + omega * (rv[idx] - sv[idx]) / dv[idx]

            for _ in range(sweeps):
                grb.mxv(self._tmp, None, self.A, z)
                grb.ewise_lambda(update, None, z, r, self._tmp, self.A_diag)
            return z

    # Jacobi's forward and backward halves are identical.
    def forward(self, z: grb.Vector, r: grb.Vector) -> grb.Vector:
        return self.smooth(z, r, sweeps=1)

    backward = forward
