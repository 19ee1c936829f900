"""Text visualization of world-line configurations.

Renders the space--time spin lattice the way the original papers drew
it: imaginary time running down the page, one column per site, with the
up-spin world lines shown as filled tracks.  Purely for inspection and
teaching -- estimators never go through this path; it lives here, next
to ``worldline_gallery.py``, its one user.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_worldlines", "kink_positions"]


def kink_positions(spins: np.ndarray) -> list[tuple[int, int]]:
    """(site, slice) pairs where a world line enters or leaves a site.

    A "kink" here is any slice boundary where a site's occupation
    changes -- the space-time locations of the off-diagonal plaquettes.
    """
    s = np.asarray(spins)
    if s.ndim != 2:
        raise ValueError("spins must be a (sites, slices) array")
    changed = s != np.roll(s, -1, axis=1)
    sites, slices = np.nonzero(changed)
    return list(zip(sites.tolist(), slices.tolist()))


def render_worldlines(
    spins: np.ndarray,
    up_char: str = "#",
    down_char: str = ".",
    max_sites: int = 64,
    max_slices: int = 64,
) -> str:
    """ASCII picture of a world-line configuration.

    Rows are imaginary-time slices (time increases downward), columns
    are lattice sites; ``up_char`` marks sites carrying an up-spin world
    line.  Larger configurations are cropped with an ellipsis note.
    """
    s = np.asarray(spins)
    if s.ndim != 2:
        raise ValueError("spins must be a (sites, slices) array")
    n_sites, n_slices = s.shape
    cropped = n_sites > max_sites or n_slices > max_slices
    view = s[:max_sites, :max_slices]

    header = "sites " + "".join(str(i % 10) for i in range(view.shape[0]))
    lines = [header]
    for t in range(view.shape[1]):
        row = "".join(
            up_char if view[i, t] else down_char for i in range(view.shape[0])
        )
        lines.append(f"t={t:<3d} {row}")
    n_kinks = len(kink_positions(s))
    lines.append(
        f"({n_sites} sites x {n_slices} slices, {n_kinks} kinks"
        + (", cropped)" if cropped else ")")
    )
    return "\n".join(lines)
