"""The dot-product kernel every solver shares.

``np.dot`` on long float64 vectors hands the reduction to the BLAS,
which splits it across its thread pool once the vectors pass about ten
thousand elements.  Waking the pool costs more than the product at
HPCG sizes, and the thread count then decides the summation order.
:func:`blocked_dot` sums ``np.dot`` over fixed :data:`BLOCK`-element
blocks, left to right: each block stays below the threading threshold,
so the result does not depend on the BLAS thread count.  The GraphBLAS
solver (``graphblas.operations.dot``), the reference solver
(``ref.kernels.compute_dot``) and the simulated distributed solver all
call it, which keeps their residual histories byte-identical to each
other.  Vectors of at most :data:`BLOCK` elements get exactly
``np.dot``.
"""

from __future__ import annotations

import numpy as np

#: Elements per partial product (below OpenBLAS's ddot threading cut).
BLOCK = 4096


def blocked_dot(x: np.ndarray, y: np.ndarray) -> float:
    """``x' y`` as a fixed-order sum of per-block ``np.dot`` partials."""
    total = float(np.dot(x[:BLOCK], y[:BLOCK]))
    for lo in range(BLOCK, x.shape[0], BLOCK):
        total += float(np.dot(x[lo:lo + BLOCK], y[lo:lo + BLOCK]))
    return total
