"""Lattice geometry and domain decomposition.

* :mod:`repro.lattice.lattice` -- chains and square lattices with
  periodic boundaries, bond lists, and bipartite (checkerboard)
  colorings.
* :mod:`repro.lattice.decomposition` -- strip and block domain
  decompositions with owned/ghost index bookkeeping for halo exchange.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "Chain": "repro.lattice.lattice",
    "SquareLattice": "repro.lattice.lattice",
    "StripDecomposition": "repro.lattice.decomposition",
    "BlockDecomposition": "repro.lattice.decomposition",
})
