"""Pluggable kernel registry for the checkerboard sweeps.

The sweep samplers (``qmc/worldline.py``, ``qmc/worldline2d.py``,
``qmc/classical_ising.py``) and the SPMD drivers (``qmc/parallel.py``)
dispatch their inner-loop work through a small table of *kernel ops* --
one callable per conflict-free independence-class update.  A backend is
a named provider of that table, and each Metropolis rule is written
twice under ``repro.kernels``, once batched and once per move:

* ``numpy``  -- the batched reference path (always available);
* ``numba``  -- the per-move loops of :mod:`repro.kernels.loops` under
  ``@njit(cache=True)``, bit-identical to ``numpy`` by construction;
* ``scalar`` -- the same loops interpreted: the per-move reference,
  always available, lowest priority.

Selection semantics
-------------------
``resolve_kernel(name)`` maps a requested name to a concrete registered
backend.  ``"auto"`` picks the highest-priority *available* backend
(numba over numpy when installed; never ``scalar``, which runs only
when asked for by name) and the legacy ``"vectorized"`` alias folds
onto ``"numpy"``.  Requesting an unavailable backend raises
:class:`KernelUnavailableError` -- a structured, actionable error
mirroring :class:`repro.vmp.mpi_backend.MpiUnavailableError` -- instead
of an ImportError from deep inside a sweep.  :func:`check_kernel_name`
is the name check alone (no availability probe), for config classes.

Backends registered here must honour the bit-identity contract
documented in DESIGN.md: identical trajectories (RNG draw for draw,
accept for accept) with the ``numpy`` path on every lattice the
registry serves.  World-line lattices off ``numpy``'s grid (open, odd
and 2 x N geometries) are served by the per-move backends alone, which
agree with each other there; see ``TableSweeps.resolve_sweep``.
"""

from __future__ import annotations

import importlib
import importlib.util
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "KernelBackend",
    "KernelUnavailableError",
    "available_backends",
    "backend_version",
    "check_kernel_name",
    "get_ops",
    "kernel_available",
    "known_backends",
    "register_backend",
    "resolve_kernel",
    "resolve_sweep_mode",
    "unregister_backend",
]

#: The op names every backend must provide.  Each op mutates the spin
#: array(s) in place for the accepted moves of ONE independence class
#: and returns acceptance counts; RNG draws and transcendentals stay in
#: the caller so trajectories cannot depend on the backend's libm.
#: ``strip_corner`` / ``strip_column`` are the plaquette-flip pair of
#: every world-line caller (chain, square lattice, strip driver);
#: ``wl1d_*`` are compatibility adapters over them; see DESIGN.md.
OP_NAMES = (
    "wl1d_corner",
    "wl1d_column",
    "ising_color",
    "strip_corner",
    "strip_column",
    "block_color",
)


class KernelUnavailableError(RuntimeError):
    """Raised when a kernel backend is requested but cannot run here.

    Mirrors ``MpiUnavailableError``: structured (carries the backend
    name and reason as attributes) and actionable (the message names
    the fallback and the install step).
    """

    def __init__(self, backend: str, reason: str, hint: str | None = None):
        self.backend = backend
        self.reason = reason
        self.hint = hint or (
            "fall back to the portable path with --kernel numpy "
            "(or kernel='numpy')"
        )
        super().__init__(
            f"kernel backend {backend!r} is unavailable: {reason}; {self.hint}"
        )


@dataclass
class KernelBackend:
    """One registered provider of the sweep kernel op table.

    Parameters
    ----------
    name:
        Registry key (``--kernel NAME``).
    priority:
        ``"auto"`` picks the available backend with the highest
        priority.
    probe:
        Cheap availability check; must not raise.  Result is memoized.
    loader:
        Called once, lazily, to build the op table (a mapping with the
        :data:`OP_NAMES` keys).  May import heavy dependencies.
    requires:
        The pip-installable distribution backing the backend, used in
        error hints and version reporting (None: stdlib/numpy only).
    """

    name: str
    priority: int
    probe: Callable[[], bool]
    loader: Callable[[], Mapping[str, Callable]]
    requires: str | None = None
    _avail: bool | None = field(default=None, repr=False, compare=False)
    _ops: Mapping[str, Callable] | None = field(default=None, repr=False,
                                                compare=False)

    def available(self) -> bool:
        """Memoized availability probe (never raises)."""
        if self._avail is None:
            try:
                self._avail = bool(self.probe())
            except Exception:
                self._avail = False
        return self._avail

    def ops(self) -> Mapping[str, Callable]:
        """The op table, built on first use."""
        if self._ops is None:
            ops = self.loader()
            missing = [n for n in OP_NAMES if n not in ops]
            if missing:
                raise KernelUnavailableError(
                    self.name,
                    f"backend op table is missing {missing}",
                )
            self._ops = ops
        return self._ops


_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> None:
    """Add (or replace) a backend in the registry."""
    _REGISTRY[backend.name] = backend


def unregister_backend(name: str) -> None:
    """Remove a backend (test helper; unknown names are ignored)."""
    _REGISTRY.pop(name, None)


def known_backends() -> tuple[str, ...]:
    """All registered backend names, best-priority first."""
    return tuple(sorted(_REGISTRY, key=lambda n: (-_REGISTRY[n].priority, n)))


def available_backends() -> tuple[str, ...]:
    """The registered backends that can actually run here."""
    return tuple(n for n in known_backends() if _REGISTRY[n].available())


def kernel_available(name: str) -> bool:
    """True when ``name`` is registered and its probe passes."""
    backend = _REGISTRY.get(name)
    return backend is not None and backend.available()


def check_kernel_name(name: str) -> None:
    """``ValueError`` unless ``name`` is ``"auto"``, the ``"vectorized"``
    alias or a registered backend: the one vocabulary check behind
    ``--kernel``, ``ParallelLayout.kernel`` and every driver ``mode``."""
    if name not in ("auto", "vectorized") and name not in _REGISTRY:
        raise ValueError(
            f"unknown kernel {name!r}: --kernel / kernel= / mode= take 'auto', "
            f"'vectorized' or a registered backend ({', '.join(known_backends())})"
        )


def resolve_kernel(name: str = "auto") -> str:
    """Map a requested backend name to a concrete available one.

    ``"auto"`` returns the highest-priority available backend
    (``numpy`` is always registered and available, so auto cannot
    fail, and outranks ``scalar``, so auto never runs the per-move
    reference).  The legacy ``"vectorized"`` alias
    resolves to ``"numpy"``.  Unknown names raise ``ValueError``;
    known-but-unavailable ones raise :class:`KernelUnavailableError`.
    """
    check_kernel_name(name)
    if name == "auto":
        for cand in known_backends():
            if _REGISTRY[cand].available():
                return cand
        raise KernelUnavailableError(
            "auto", "no kernel backend is available",
            "reinstall the package so the numpy backend registers",
        )
    if name == "vectorized":
        name = "numpy"
    backend = _REGISTRY[name]
    if not backend.available():
        requires = backend.requires or name
        raise KernelUnavailableError(
            name,
            f"the {requires!r} package is not importable in this environment",
            f"pip install {requires}, or fall back with --kernel numpy "
            f"(kernel='numpy')",
        )
    return name


#: Alias kept importable because ``benchmarks/e2e/child.py`` and
#: ``probes.py`` call it; nothing in ``src/`` does.
resolve_sweep_mode = resolve_kernel


def get_ops(name: str) -> Mapping[str, Callable]:
    """The op table for ``name`` (resolving ``auto``/aliases first)."""
    return _REGISTRY[resolve_kernel(name)].ops()


def backend_version(name: str) -> str | None:
    """Version string of the package backing ``name`` (None: absent or
    unavailable).  Package metadata is imported only to look up an
    installed optional backend: a process that never has one to report
    never pays that import."""
    backend = _REGISTRY.get(name)
    if backend is None or not backend.available():
        return None
    if backend.requires is None:
        return np.__version__
    import importlib.metadata

    try:
        return importlib.metadata.version(backend.requires)
    except Exception:
        try:
            mod = importlib.import_module(backend.requires)
            return getattr(mod, "__version__", None)
        except Exception:
            return None


# -- built-in backends -------------------------------------------------

def _table(module: str, attr: str) -> Callable[[], Mapping[str, Callable]]:
    """Loader of ``repro.kernels.<module>.<attr>``, imported on first use."""
    return lambda: getattr(importlib.import_module(f"repro.kernels.{module}"), attr)


register_backend(KernelBackend(
    name="numpy",
    priority=10,
    probe=lambda: True,
    loader=_table("numpy_backend", "OPS"),
))
register_backend(KernelBackend(
    name="numba",
    priority=20,
    probe=lambda: importlib.util.find_spec("numba") is not None,
    loader=_table("loops", "OPS"),
    requires="numba",
))
register_backend(KernelBackend(
    name="scalar",
    priority=0,
    probe=lambda: True,
    loader=_table("loops", "PY_OPS"),
))
