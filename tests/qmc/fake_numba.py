"""Makes the ``numba`` backend *name* selectable where numba is absent.

``repro.kernels.loops`` is one per-move source with two op tables: the
interpreted one is the ``scalar`` backend, which needs nothing from
here and is tested natively; the ``@njit`` one is the ``numba`` backend,
which the registry offers only where numba imports.  Without numba the
module's own identity ``njit`` makes that second table the same loops,
interpreted -- all that is missing is the registry saying "available".
A test module imports :func:`numba_backend` (an autouse fixture) and
marks the tests or parameter sets that run ``--kernel numba`` with
``pytest.mark.needs_numba``; for such a test the fixture swaps in a
``numba`` registry entry whose probe passes, and takes it out again
afterwards: ``resolve_kernel("auto")`` answers ``numpy`` in every test
without the mark.  Where numba *is* installed the fixture does nothing
and the same tests run the real JIT.

So the ``numba`` legs check, on any host, what belongs to the name: the
registry entry, its loader, ``--kernel numba`` through config, drivers
and forked mp ranks.  No ``numba`` module is ever faked.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import kernels
from repro.kernels import registry

#: Whether the real JIT is installed.
HAVE_NUMBA = kernels.kernel_available("numba")


@pytest.fixture(autouse=True)
def numba_backend(request, monkeypatch):
    """Make ``--kernel numba`` runnable for a ``needs_numba`` test."""
    if not HAVE_NUMBA and request.node.get_closest_marker("needs_numba"):
        # A fresh entry: the registered one has memoized "unavailable".
        monkeypatch.setitem(
            registry._REGISTRY, "numba",
            dataclasses.replace(registry._REGISTRY["numba"], probe=lambda: True,
                                _avail=None, _ops=None),
        )
