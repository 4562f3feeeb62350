"""Model-driven substrate selection: measured rates, not assumed ones.

Unpinned, unforced matrices stay on CSR
(:mod:`repro.graphblas.substrate.registry`).  This module is the only
way a non-CSR format is chosen automatically, and it chooses one only
when a measured :class:`~repro.tune.profile.MachineProfile` says it is
faster:

1. classify the matrix's :class:`MatrixProfile` onto the shape grid the
   SpMV probes covered (``uniform`` / ``highcv`` / ``dense``);
2. predict each candidate provider's SpMV seconds as
   ``useful_bytes / measured_rate(fmt, shape)``, where ``useful_bytes``
   is the csr-equivalent stream ``nnz*16 + nrows*16`` (the same
   normalisation the probes used, so padding-heavy formats are charged
   through their measured rate, not through a guessed padding model);
3. pick the cheapest candidate.

Structural *guards* stay: tiny matrices never amortise a format
conversion regardless of steady-state rates (:data:`AUTO_MIN_SIZE`),
and a single outlier megarow can explode blocked/SELL-C-σ storage in
ways no steady-state rate captures — those remain hard gates.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.graphblas.substrate.base import MatrixProfile
from repro.tune.profile import SHAPE_CLASSES, MachineProfile

#: Formats whose probes the shape grid covers; anything else is priced
#: via the profile's neutral fallback (triad bandwidth).
_CSR = "csr"
_SELLCS = "sellcs"
_BLOCKED = "blocked"

#: Model mode's conversion-amortisation floor: below this many rows
#: the answer is CSR whatever the measured rates say.
AUTO_MIN_SIZE = 32768


def shape_class(p: MatrixProfile) -> str:
    """Map a matrix structure onto the probed shape grid."""
    if p.density > 0.25:
        return "dense"
    if p.cv_row_nnz <= 0.25 and p.mean_row_nnz >= 8.0:
        return "uniform"
    return "highcv"


def useful_bytes(p: MatrixProfile) -> float:
    """The csr-equivalent SpMV stream: the probes' rate normaliser."""
    return float(p.nnz) * 16.0 + float(p.nrows) * 16.0


def candidates(p: MatrixProfile,
               names: Iterable[str]) -> Dict[str, bool]:
    """Which registered providers are structurally safe for ``p``.

    The gates are pathology bounds: blocked-dense pads every block to
    the widest row (memory explodes on skew unless the matrix is
    genuinely dense), and SELL-C-σ degenerates to a scalar loop past
    extreme skew.  CSR is always safe.
    """
    mean = p.mean_row_nnz or 1.0
    out: Dict[str, bool] = {}
    for name in names:
        if name == _SELLCS:
            out[name] = p.max_row_nnz <= 16.0 * mean
        elif name == _BLOCKED:
            out[name] = (p.density > 0.25
                         or p.max_row_nnz <= 4.0 * mean)
        else:
            out[name] = True
    return out


def predict_seconds(p: MatrixProfile, profile: MachineProfile,
                    names: Iterable[str]) -> Dict[str, float]:
    """Predicted SpMV seconds per provider from the measured rates."""
    shape = shape_class(p)
    nbytes = useful_bytes(p)
    return {name: nbytes / profile.spmv_rate(name, shape)
            for name in names}


def choose_model(p: MatrixProfile, profile: MachineProfile,
                 names: Iterable[str],
                 min_size: int = 0) -> str:
    """The cheapest structurally-safe provider under the profile.

    ``min_size`` is the conversion-amortisation floor (the registry
    passes :data:`AUTO_MIN_SIZE`): below it the answer is CSR no matter
    what the steady-state rates say, because selection happens at
    construction time and small operators never pay back a format
    build.
    """
    names = list(names)
    if _CSR not in names:
        names = [_CSR] + names
    if p.nrows < min_size or p.nnz == 0:
        return _CSR
    safe = candidates(p, names)
    costs = predict_seconds(p, profile, names)
    best = _CSR
    for name in names:
        if safe.get(name) and costs[name] < costs[best]:
            best = name
    return best


__all__ = [
    "AUTO_MIN_SIZE",
    "SHAPE_CLASSES",
    "shape_class",
    "useful_bytes",
    "candidates",
    "predict_seconds",
    "choose_model",
]
