"""``repro.graphblas.substrate`` — pluggable storage formats & kernels.

The substrate layer is the reproduction of the paper's key freedom: the
algorithm (``repro.hpcg``) names GraphBLAS operations; *this* package
decides how each matrix stores its entries and which kernel executes
them, per matrix, with an explicit override and a CI-enforced
bit-exactness contract across formats.

Public surface:

* :class:`KernelProvider` / :class:`MatrixProfile` — the format
  contract and the structure statistics selection reads;
* :class:`CsrProvider`, :class:`SellCSigmaProvider`,
  :class:`BlockedDenseProvider` — the three built-in formats;
* :func:`register` / :func:`available` / :func:`get` — the registry;
* :func:`resolve` / :func:`make` / :func:`choose_model` — per-matrix
  selection: an explicit pin, else the ``REPRO_SUBSTRATE`` force, else
  CSR.  ``REPRO_SUBSTRATE=model`` or ``selection="model"`` prices the
  candidates with the measured :mod:`repro.tune` machine profile
  (CSR when none is cached); nothing is guessed from structure;
* :class:`ColorSweep` — the fused multi-colour Gauss-Seidel sweep
  capability every provider serves (the smoother fast path);
* :mod:`~repro.graphblas.substrate.jit` — the optional numba-compiled
  kernel lane that transparently accelerates the providers
  (``REPRO_JIT=0`` disables; numba absent means pure numpy, bit for
  bit).
"""

from repro.graphblas.substrate import jit
from repro.graphblas.substrate.base import (
    ColorSweep,
    KernelProvider,
    MatrixProfile,
)
from repro.graphblas.substrate.blocked import BlockedDenseProvider
from repro.graphblas.substrate.csr import CsrProvider
from repro.graphblas.substrate.registry import (
    ENV_VAR,
    MODEL,
    available,
    choose_model,
    forced,
    get,
    make,
    register,
    resolve,
    validate_request,
)
from repro.graphblas.substrate.sellcs import SellCSigmaProvider

__all__ = [
    "KernelProvider",
    "MatrixProfile",
    "ColorSweep",
    "jit",
    "CsrProvider",
    "SellCSigmaProvider",
    "BlockedDenseProvider",
    "register",
    "available",
    "get",
    "choose_model",
    "resolve",
    "make",
    "forced",
    "validate_request",
    "ENV_VAR",
    "MODEL",
]
