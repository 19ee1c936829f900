"""Domain decompositions with owned/ghost bookkeeping.

A decomposition assigns each spatial site (column of the space--time
lattice) to exactly one rank and names, per rank, the neighbours whose
boundary columns it mirrors as *ghosts*.  The QMC parallel drivers
(:mod:`repro.qmc.parallel`) build their halo link tables from these
pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["StripDecomposition", "BlockDecomposition"]


@dataclass(frozen=True)
class StripPiece:
    """One rank's share of a 1-D strip decomposition."""

    rank: int
    start: int  # first owned column (global index)
    stop: int  # one past last owned column
    left_rank: int
    right_rank: int

    @property
    def n_owned(self) -> int:
        return self.stop - self.start


class StripDecomposition:
    """Contiguous 1-D split of ``n_columns`` columns over ``n_ranks`` ranks.

    Columns are dealt in contiguous blocks of near-equal size (the first
    ``n_columns % n_ranks`` ranks get one extra).  For checkerboard QMC
    each rank's block size must be even so bond colors align across rank
    boundaries; ``require_even=True`` enforces this.
    """

    def __init__(self, n_columns: int, n_ranks: int, require_even: bool = False):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if n_columns < n_ranks:
            raise ValueError(
                f"cannot split {n_columns} columns over {n_ranks} ranks "
                "(each rank needs at least one column)"
            )
        self.n_columns = int(n_columns)
        self.n_ranks = int(n_ranks)
        base, extra = divmod(n_columns, n_ranks)
        sizes = [base + (1 if r < extra else 0) for r in range(n_ranks)]
        if require_even and any(s % 2 for s in sizes):
            raise ValueError(
                f"strip decomposition of {n_columns} columns over {n_ranks} ranks "
                f"yields odd block sizes {sizes}; checkerboard QMC needs even blocks"
            )
        starts = np.concatenate([[0], np.cumsum(sizes)])
        self.pieces = [
            StripPiece(
                rank=r,
                start=int(starts[r]),
                stop=int(starts[r + 1]),
                left_rank=(r - 1) % n_ranks,
                right_rank=(r + 1) % n_ranks,
            )
            for r in range(n_ranks)
        ]

    def piece(self, rank: int) -> StripPiece:
        return self.pieces[rank]

    def owner_of(self, column: int) -> int:
        """Rank owning a global column index."""
        if not 0 <= column < self.n_columns:
            raise ValueError(f"column {column} out of range")
        for p in self.pieces:
            if p.start <= column < p.stop:
                return p.rank
        raise AssertionError("unreachable")

    def scatter(self, global_array: np.ndarray, rank: int) -> np.ndarray:
        """The slice of a (columns, ...) array owned by ``rank`` (copy)."""
        p = self.pieces[rank]
        return np.array(global_array[p.start : p.stop])

    def gather(self, locals_: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank owned slices into the global array."""
        if len(locals_) != self.n_ranks:
            raise ValueError("need one local array per rank")
        for r, arr in enumerate(locals_):
            if arr.shape[0] != self.pieces[r].n_owned:
                raise ValueError(
                    f"rank {r} supplied {arr.shape[0]} columns, owns "
                    f"{self.pieces[r].n_owned}"
                )
        return np.concatenate(locals_, axis=0)


@dataclass(frozen=True)
class BlockPiece:
    """One rank's rectangular share of a 2-D block decomposition."""

    rank: int
    x_start: int
    x_stop: int
    y_start: int
    y_stop: int
    north: int  # rank owning the +y neighbor block
    south: int
    east: int  # +x
    west: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x_stop - self.x_start, self.y_stop - self.y_start)


class BlockDecomposition:
    """2-D split of an ``lx x ly`` grid over a ``px x py`` process grid.

    The process grid defaults to the most-square factorization of the
    rank count.  Ranks are row-major in the process grid, matching
    :class:`repro.vmp.topology.Mesh2D`, so neighbor exchanges map to
    physically adjacent mesh nodes.
    """

    def __init__(
        self,
        lx: int,
        ly: int,
        n_ranks: int,
        process_grid: tuple[int, int] | None = None,
        require_even: bool = False,
    ):
        if process_grid is None:
            px = int(math.isqrt(n_ranks))
            while n_ranks % px:
                px -= 1
            process_grid = (px, n_ranks // px)
        px, py = process_grid
        if px * py != n_ranks:
            raise ValueError(f"process grid {px}x{py} != {n_ranks} ranks")
        if lx < px or ly < py:
            raise ValueError(
                f"grid {lx}x{ly} too small for process grid {px}x{py}"
            )
        self.lx, self.ly = int(lx), int(ly)
        self.px, self.py = int(px), int(py)
        self.n_ranks = int(n_ranks)

        def cuts(n: int, parts: int) -> list[int]:
            base, extra = divmod(n, parts)
            sizes = [base + (1 if i < extra else 0) for i in range(parts)]
            if require_even and any(s % 2 for s in sizes):
                raise ValueError(
                    f"block decomposition yields odd extents {sizes}; "
                    "checkerboard QMC needs even blocks"
                )
            out = [0]
            for s in sizes:
                out.append(out[-1] + s)
            return out

        xs = cuts(self.lx, px)
        ys = cuts(self.ly, py)
        self.pieces = []
        for gx in range(px):
            for gy in range(py):
                rank = gx * py + gy
                self.pieces.append(
                    BlockPiece(
                        rank=rank,
                        x_start=xs[gx],
                        x_stop=xs[gx + 1],
                        y_start=ys[gy],
                        y_stop=ys[gy + 1],
                        east=((gx + 1) % px) * py + gy,
                        west=((gx - 1) % px) * py + gy,
                        north=gx * py + (gy + 1) % py,
                        south=gx * py + (gy - 1) % py,
                    )
                )

    def piece(self, rank: int) -> BlockPiece:
        return self.pieces[rank]

    def owner_of(self, x: int, y: int) -> int:
        if not (0 <= x < self.lx and 0 <= y < self.ly):
            raise ValueError(f"site ({x}, {y}) out of range")
        for p in self.pieces:
            if p.x_start <= x < p.x_stop and p.y_start <= y < p.y_stop:
                return p.rank
        raise AssertionError("unreachable")

    def scatter(self, global_array: np.ndarray, rank: int) -> np.ndarray:
        """The (x, y, ...) sub-block owned by ``rank`` (copy)."""
        p = self.pieces[rank]
        return np.array(global_array[p.x_start : p.x_stop, p.y_start : p.y_stop])

    def gather(self, locals_: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank blocks into the global (lx, ly, ...) array."""
        if len(locals_) != self.n_ranks:
            raise ValueError("need one local array per rank")
        trailing = locals_[0].shape[2:]
        out = np.empty((self.lx, self.ly) + trailing, dtype=locals_[0].dtype)
        for p, arr in zip(self.pieces, locals_):
            if arr.shape[:2] != p.shape:
                raise ValueError(
                    f"rank {p.rank} supplied block {arr.shape[:2]}, owns {p.shape}"
                )
            out[p.x_start : p.x_stop, p.y_start : p.y_stop] = arr
        return out
