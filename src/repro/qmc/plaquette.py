"""Exact Suzuki--Trotter plaquette weights for the XXZ bond Hamiltonian.

The checkerboard breakup factorizes ``exp(-beta H)`` into two-site
imaginary-time propagators ("shaded plaquettes").  For the spin-1/2 XXZ
bond

    h = Jz S^z_1 S^z_2 + (Jxy/2)(S^+_1 S^-_2 + S^-_1 S^+_2)

the 4x4 matrix ``exp(-dtau h)`` is known in closed form: in the basis
(dd, ud, du, uu) it is diagonal on dd/uu and a symmetric 2x2 block on
{ud, du}::

    W(uu->uu) = W(dd->dd) = exp(-dtau Jz/4)                       ("straight")
    W(ud->ud) = W(du->du) = exp(+dtau Jz/4) cosh(dtau Jxy/2)      ("continue")
    W(ud->du) = W(du->ud) = -exp(+dtau Jz/4) sinh(dtau Jxy/2)     ("jump")

For the antiferromagnet (``Jxy > 0``) the jump weight is negative; the
Marshall sublattice rotation (flip sigma^x,y on one sublattice of a
bipartite lattice) maps ``Jxy -> -Jxy`` and renders all weights
positive without changing the spectrum.  The table is therefore built
with ``|sinh|`` and records whether the rotation was needed; on
bipartite lattices this is exact, not an approximation.

A plaquette's four corners are encoded as a 4-bit integer::

    code = bl + 2*br + 4*tl + 8*tr

(bl = bottom-left spin in {0, 1}, etc.; bottom = earlier time slice).
``weights[code]`` is zero for the 10 particle-number-violating corner
states, which is how illegal Monte Carlo moves reject themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PlaquetteTable",
    "encode_corners",
    "corner_flat_indices",
    "codes_from_flat",
]


def encode_corners(bl: int, br: int, tl: int, tr: int) -> int:
    """4-bit corner code (vectorized-compatible: works on arrays too)."""
    return bl + 2 * br + 4 * tl + 8 * tr


def corner_flat_indices(
    site_a: np.ndarray, site_b: np.ndarray, t: np.ndarray, n_slices: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flat spin indices ``site * T + slice`` of plaquette corners.

    For plaquettes at bonds ``(site_a, site_b)`` and intervals ``t`` on a
    C-contiguous ``(n_sites, n_slices)`` spin array, returns the four
    gather index arrays ``(bl, br, tl, tr)`` into ``spins.reshape(-1)``.
    All inputs broadcast; the result shape is the broadcast shape.  The
    batched kernels precompute these tables once per geometry so the hot
    path is pure gather + table lookup.
    """
    t1 = (t + 1) % n_slices
    return (
        site_a * n_slices + t,
        site_b * n_slices + t,
        site_a * n_slices + t1,
        site_b * n_slices + t1,
    )


def codes_from_flat(
    flat_spins: np.ndarray,
    bl: np.ndarray,
    br: np.ndarray,
    tl: np.ndarray,
    tr: np.ndarray,
) -> np.ndarray:
    """Corner codes gathered through precomputed flat index tables.

    ``flat_spins`` is ``spins.reshape(-1)`` of the C-contiguous spin
    array the index tables were built for.  Values stay in 0..15, so
    int8 spin storage cannot overflow.
    """
    return flat_spins[bl] + 2 * flat_spins[br] + 4 * flat_spins[tl] + 8 * flat_spins[tr]


# Corner codes of the six legal plaquette states.
CODE_DD = 0  # dd -> dd
CODE_UU = 15  # uu -> uu
CODE_UD_UD = 5  # ud -> ud   (bl=1, br=0, tl=1, tr=0)
CODE_DU_DU = 10
CODE_UD_DU = 9  # ud -> du   (bl=1, br=0, tl=0, tr=1): a spin exchange
CODE_DU_UD = 6

LEGAL_CODES = (CODE_DD, CODE_UD_UD, CODE_DU_UD, CODE_UD_DU, CODE_DU_DU, CODE_UU)

#: XOR masks translating a neighbor's corner-spin flips into code space.
FLIP_BL = 1
FLIP_BR = 2
FLIP_TL = 4
FLIP_TR = 8


@dataclass(frozen=True)
class PlaquetteTable:
    """Weight and log-derivative tables for one (Jz, Jxy, dtau).

    Attributes
    ----------
    weights:
        ``weights[code]``; zero on the 10 illegal codes.
    dlog:
        ``d ln W / d dtau`` per code (the energy estimator reads this;
        entries at illegal codes are zero and never dereferenced for a
        weight-carrying configuration).
    marshall_rotated:
        True when ``Jxy > 0`` (the AFM sign was absorbed by the
        sublattice rotation).
    """

    jz: float
    jxy: float
    dtau: float
    weights: np.ndarray = field(repr=False)
    dlog: np.ndarray = field(repr=False)
    marshall_rotated: bool = False

    @classmethod
    def build(cls, jz: float, jxy: float, dtau: float) -> "PlaquetteTable":
        if dtau <= 0:
            raise ValueError("dtau must be positive")
        x = dtau * abs(jxy) / 2.0
        straight = math.exp(-dtau * jz / 4.0)
        continue_w = math.exp(dtau * jz / 4.0) * math.cosh(x)
        jump_w = math.exp(dtau * jz / 4.0) * math.sinh(x)

        w = np.zeros(16)
        w[CODE_DD] = w[CODE_UU] = straight
        w[CODE_UD_UD] = w[CODE_DU_DU] = continue_w
        w[CODE_UD_DU] = w[CODE_DU_UD] = jump_w

        d = np.zeros(16)
        d[CODE_DD] = d[CODE_UU] = -jz / 4.0
        d[CODE_UD_UD] = d[CODE_DU_DU] = jz / 4.0 + (abs(jxy) / 2.0) * math.tanh(x)
        if jxy != 0.0:
            d[CODE_UD_DU] = d[CODE_DU_UD] = jz / 4.0 + (abs(jxy) / 2.0) * (
                1.0 / math.tanh(x)
            )
        return cls(
            jz=jz,
            jxy=jxy,
            dtau=dtau,
            weights=w,
            dlog=d,
            marshall_rotated=jxy > 0,
        )

    def as_matrix(self) -> np.ndarray:
        """The 4x4 propagator ``exp(-dtau h)`` (possibly Marshall-rotated).

        Basis order (dd, ud, du, uu) with the bottom state as column.
        Used by unit tests to compare against ``scipy.linalg.expm``.
        """
        m = np.zeros((4, 4))
        for code in LEGAL_CODES:
            bottom = code & 3
            top = code >> 2
            m[top, bottom] = self.weights[code]
        return m
