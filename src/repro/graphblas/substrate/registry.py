"""Provider registry, forcing, and per-matrix selection.

Selection order, mirroring how ALP picks a backend:

1. an explicit request (``Matrix(..., substrate="sellcs")`` or
   ``Matrix.set_substrate``) always wins — algorithm studies need to
   pin a format.  The request may also be the selection *mode*
   ``"model"``, pinning this matrix to model-driven selection;
2. the ``REPRO_SUBSTRATE`` environment variable forces every
   *unpinned* matrix onto one provider — the CI lever proving the
   algorithm layer is substrate-independent — or, with
   ``REPRO_SUBSTRATE=model``, onto model-driven selection;
3. otherwise the matrix stays on CSR, at every size and shape.

**Model-driven selection** (``"model"``, either as a pin, as a
``selection="model"`` argument to :func:`resolve`/:func:`make`, or via
the environment force) prices every registered provider with the
measured per-format byte rates of the cached
:class:`repro.tune.MachineProfile` and picks the cheapest
structurally-safe one (:mod:`repro.tune.select`).  When no profile is
cached (or it is stale or schema-incompatible) the mode falls back to
CSR, silently.

A non-CSR format therefore comes only from a pin, the force, or a
measured win.  Nothing is inferred from matrix structure alone:
``python -m repro.tune measure --fast`` on a 2-vCPU Xeon VM (numba
absent) rates CSR SpMV at 9–16 GB/s on every probed shape against at
most 1.1 GB/s for ``sellcs`` and ``blocked``, so a structural guess
that moves a matrix off CSR makes it slower.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Type

import scipy.sparse as sp

from repro.graphblas.substrate.base import KernelProvider, MatrixProfile
from repro.graphblas.substrate.blocked import BlockedDenseProvider
from repro.graphblas.substrate.csr import CsrProvider
from repro.graphblas.substrate.sellcs import SellCSigmaProvider
from repro.util.errors import InvalidValue

ENV_VAR = "REPRO_SUBSTRATE"

#: the selection-mode sentinel: not a provider, a way of choosing one
MODEL = "model"

_REGISTRY: Dict[str, Type[KernelProvider]] = {}


def register(cls: Type[KernelProvider],
             replace: bool = False) -> Type[KernelProvider]:
    """Add a provider class under ``cls.name`` (usable as a decorator).

    Name collisions raise — silently shadowing a built-in (especially
    ``csr``, the bit-exactness reference) would reroute every fallback
    path through foreign code.  Pass ``replace=True`` to do it on
    purpose.
    """
    if not cls.name or cls.name == "abstract":
        raise InvalidValue("provider classes must define a unique name")
    if cls.name.lower() in (MODEL, "auto"):
        raise InvalidValue(
            f"{cls.name!r} is a reserved selection-mode name"
        )
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls and not replace:
        raise InvalidValue(
            f"substrate {cls.name!r} is already registered "
            f"({existing.__name__}); pass replace=True to override"
        )
    _REGISTRY[cls.name] = cls
    return cls


def available() -> Tuple[str, ...]:
    """Registered provider names, registration order."""
    return tuple(_REGISTRY)


def get(name: str) -> Type[KernelProvider]:
    """The provider class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidValue(
            f"unknown substrate {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None


def forced() -> Optional[str]:
    """The ``REPRO_SUBSTRATE`` override, validated; None when unset/auto.

    Besides a provider name, the value may be :data:`MODEL` — the
    model-driven selection mode, returned as the literal ``"model"``.
    """
    name = os.environ.get(ENV_VAR, "").strip()
    if name.lower() in ("", "auto"):
        return None
    if name.lower() == MODEL:
        return MODEL
    get(name)  # raise on typos rather than silently ignoring the force
    return name


def validate_request(name: str) -> str:
    """Check a pin string: a registered provider name or ``"model"``."""
    if name != MODEL:
        get(name)
    return name


def choose_model(csr: sp.csr_matrix, profile=None) -> str:
    """Pick a provider by predicted cost under a measured profile.

    ``profile`` defaults to the cached :func:`repro.tune.current_profile`;
    with none available the answer is CSR — model mode on an
    uncalibrated machine is the default, no warnings.
    """
    from repro.tune import cache as tune_cache
    from repro.tune import select as tune_select

    if profile is None:
        profile = tune_cache.current_profile()
    if profile is None:
        return CsrProvider.name
    p = MatrixProfile.from_csr(csr)
    return tune_select.choose_model(p, profile, available(),
                                    min_size=tune_select.AUTO_MIN_SIZE)


def _decided(csr: sp.csr_matrix, request: Optional[str],
             selection: Optional[str], chosen: str, reason: str) -> str:
    """Report one selection decision to the observability layer.

    ``reason`` names the rung of the selection ladder that fired:
    ``pin`` (explicit request), ``env`` (``REPRO_SUBSTRATE`` force),
    ``model`` (profile-priced) or ``default`` (CSR).  With a tune
    profile cached the record also carries ``profile_choice`` — what
    model mode would pick — and ``contradicts_profile``, so a decision
    the machine's own measurements disagree with is flagged.
    Free when observability is off: one lazy import + one stack read.
    """
    from repro import obs

    if obs.enabled():
        from repro.tune import cache as tune_cache

        fields = dict(
            nrows=int(csr.shape[0]), ncols=int(csr.shape[1]),
            nnz=int(csr.nnz), request=request, selection=selection,
            chosen=chosen, reason=reason,
        )
        profile = tune_cache.current_profile()
        if profile is not None:
            profile_choice = choose_model(csr, profile)
            fields.update(profile_choice=profile_choice,
                          contradicts_profile=chosen != profile_choice)
        obs.record_selection(**fields)
    return chosen


def resolve(csr: sp.csr_matrix, request: Optional[str] = None,
            selection: Optional[str] = None) -> str:
    """Apply the selection order: explicit > environment force > CSR.

    ``request`` is a provider name (or ``"model"``, equivalent to
    ``selection="model"``); ``selection`` is ``"model"`` — a pin on
    model-driven selection, beating the environment force exactly as
    an explicit provider request does — or ``None``/``"auto"``.

    When observability is enabled every call records its decision —
    which provider was chosen and *why* — on the run manifest (see
    :func:`repro.obs.record_selection`).
    """
    if request == MODEL:
        request, selection = None, MODEL
    if request is not None:
        get(request)
        return _decided(csr, request, selection, request, "pin")
    if selection not in (None, "auto", MODEL):
        raise InvalidValue(
            f"unknown selection mode {selection!r}; expected 'model' "
            f"or 'auto'"
        )
    env = None if selection == MODEL else forced()
    if selection == MODEL or env == MODEL:
        return _decided(csr, request, selection, choose_model(csr), "model")
    if env is not None:
        return _decided(csr, request, selection, env, "env")
    return _decided(csr, request, selection, CsrProvider.name, "default")


def make(csr: sp.csr_matrix, request: Optional[str] = None,
         selection: Optional[str] = None) -> KernelProvider:
    """Build the provider :func:`resolve` selects for ``csr``."""
    return get(resolve(csr, request, selection))(csr)


register(CsrProvider)
register(SellCSigmaProvider)
register(BlockedDenseProvider)
