"""Interpreted stand-in for ``numba`` (test-only, no production seam).

``repro.kernels.numba_backend`` is plain Python under ``@njit``
decorators, and its promise is bit-identity with the NumPy backend --
a property of the loops' logic, not of the compiler.  A test module
imports :func:`numba_backend` (an autouse fixture) and marks the tests
or parameter sets that run ``--kernel numba`` with
``pytest.mark.needs_numba``.  Where numba is not installed, the
fixture puts a module named ``numba`` whose ``njit`` returns the
function unchanged into ``sys.modules`` for such a test, gives the
registry a fresh ``numba`` entry so its availability probe and loader
run against it, and takes all of it out again afterwards:
``resolve_kernel("auto")`` answers ``numpy`` in every test without the
mark.  Where numba *is* installed the fixture does nothing and the
same tests run the real JIT.

The production code cannot tell the difference: the registry finds a
``numba`` module, imports ``numba_backend`` over it, and the drivers
(forked mp ranks included) run its loops, interpreted.
"""

from __future__ import annotations

import dataclasses
import importlib.machinery
import sys
import types

import pytest

from repro import kernels
from repro.kernels import registry

#: Whether the real JIT is installed (probed before any stand-in exists).
HAVE_NUMBA = kernels.kernel_available("numba")


def njit(*args, **kwargs):
    """``@njit`` and ``@njit(cache=True)``: the function, unchanged."""
    if len(args) == 1 and callable(args[0]) and not kwargs:
        return args[0]
    return lambda fn: fn


@pytest.fixture(autouse=True)
def numba_backend(request, monkeypatch):
    """Make ``--kernel numba`` runnable for a ``needs_numba`` test."""
    if HAVE_NUMBA or request.node.get_closest_marker("needs_numba") is None:
        yield
        return
    fake = types.ModuleType("numba")
    fake.__spec__ = importlib.machinery.ModuleSpec("numba", None)
    fake.njit = njit
    monkeypatch.setitem(sys.modules, "numba", fake)
    # A fresh entry: the registered one has memoized "unavailable".
    monkeypatch.setitem(
        registry._REGISTRY, "numba",
        dataclasses.replace(registry._REGISTRY["numba"], _avail=None, _ops=None),
    )
    yield
    sys.modules.pop("repro.kernels.numba_backend", None)
    vars(kernels).pop("numba_backend", None)
