"""The static halo schedule: sufficient, minimal, and tied to the tables.

The decomposed drivers ship a ghost only when it is stale and about to
be read (``repro.qmc.parallel``, "Halo schedule").  Four oracles hold
that schedule in place:

* a version-stamp simulation that restates the strip's ownership rules
  from the geometry alone (every global column carries a write counter,
  every local copy the counter it last received or computed) over rings
  cut at arbitrary even seams, running the moves the depth-``D`` walk
  names: no move reads a column behind its owner, every owned move
  runs, dropping any one scheduled refresh or any one redundant move
  makes some later read do exactly that, and a sweep posts one refresh
  on two ranks, and beyond two wherever every piece is as wide as the
  ghost depth; and the same on the block (a version per column and
  color), its moves and measurement restated from the Ising model:
  depth two, one refresh a sweep, before color 0, none to measure, and
  every ring plane color 0 updates redundantly read;
* every move of each stage's own gather / flip tables against the
  columns the walk calls fresh, each color row conflict-free on the
  local rows, and every sending half-link against a receiving half on
  the destination rank;
* poison: every ghost column / plane overwritten with wrong spins at
  the start of each sweep, and in a saved bundle before a resume, on
  both drivers -- trajectories and series equal the clean run; and,
  for the block measurement that posts no halo at all, every site a
  sweep leaves stale overwritten right before each ``measure()``;
* a ``start % 4 == 2`` geometry through the bit-identity matrix.
"""

import itertools
import warnings

import numpy as np
import pytest

from repro.kernels.chain_tables import CORNER_COLORS
from repro.qmc import parallel
from repro.qmc.chains import _run_decomposed
from repro.qmc.parallel import (
    N_WL_STAGES,
    WL_STAGES,
    _STRIP_STENCIL,
    IsingBlockConfig,
    WorldlineStripConfig,
    _BlockState,
    _build_block_plan,
    _ghost_depth,
    _halo_walk,
    _StripState,
    halo_traffic,
    worldline_strip_program,
)
from repro.run.checkpoint import (
    CheckpointConfig,
    load_rank_checkpoint,
    save_rank_checkpoint,
)
from repro.vmp.machines import PARAGON
from repro.vmp.scheduler import run_spmd
from tests.conftest import (
    BLOCK_KEYS,
    STRIP_KEYS,
    assert_bit_identical,
    run_driver_matrix,
)
from tests.qmc.test_parallel_worldline import gather_spins

#: The ghost depth of pieces wide enough not to cap it.
DEPTH = _ghost_depth(_STRIP_STENCIL, [64, 64])


# ======================================================================
# (1) version-stamp simulation
# ======================================================================


class StaleRead(AssertionError):
    pass


def _moves(kind, index, lo, hi):
    """The moves of stage ``(kind, index)`` that touch global columns
    ``[lo, hi)`` as ``{x: (reads, writes)}`` in global columns, restated
    from the chain's move set: corner color ``index`` flips bonds of the
    parity of its classes (bond ``x`` reads ``x-1 .. x+2``, writes ``x,
    x+1``), column parity ``index`` its columns (reads ``x-1 .. x+1``)."""
    if kind == "corner":
        parity, reads, writes = CORNER_COLORS[index][0][0] % 2, (-1, 0, 1, 2), (0, 1)
    else:
        parity, reads, writes = index, (-1, 0, 1), (0,)
    return {
        x: ([x + o for o in reads], [x + o for o in writes])
        for x in range(lo - 2, hi + 1)
        if x % 2 == parity and any(lo <= x + o < hi for o in writes)
    }


def simulate_sweep(sizes, drop=None, skip=None):
    """One sweep plus a measurement on a ring cut into ``sizes`` pieces.

    Restates the ownership conventions, not the driver's tables: rank
    ``r`` owns ``[start, stop)`` and holds ``D`` ghosts a side (on two
    ranks ``D`` may exceed the neighbor's piece: the ring wraps), runs
    every move that writes an owned column and, of the others, the ones
    the walk lists, and measures the shaded plaquettes of its own bonds
    (columns ``start .. stop``).  The owner's version of every global
    column is the truth; a local copy holds the version it last received
    or computed, every ghost none at sweep start.  A refresh copies each
    owner's columns into all its neighbors' ghosts, one half-link
    ``(stage, rank, side)`` per side.  ``drop`` loses the refresh before
    that stage, ``skip = (stage, rank, x)`` one redundant move.  Returns
    the posted half-links; raises :class:`StaleRead` on a read behind
    the owner.
    """
    L, P = sum(sizes), len(sizes)
    starts = [sum(sizes[:r]) for r in range(P)]
    owner_of = [r for r, n in enumerate(sizes) for _ in range(n)]
    D = _ghost_depth(_STRIP_STENCIL, list(sizes))
    truth = [0] * L
    held = [
        {g: (0 if start <= g < start + n else -1) for g in range(start - D, start + n + D)}
        for start, n in zip(starts, sizes)
    ]
    walks = [_halo_walk(_STRIP_STENCIL, n, D) for n in sizes]
    posted = []
    for s, (kind, index) in enumerate((*WL_STAGES, ("measure", None))):
        for r, (start, n) in enumerate(zip(starts, sizes)):
            if not walks[r].refresh[s]:
                continue
            for side, ghosts in (
                ("left", range(start - D, start)),
                ("right", range(start + n, start + n + D)),
            ):
                posted.append((s, r, side))
                if s != drop:
                    for g in ghosts:  # from its owner, r itself included
                        held[r][g] = held[owner_of[g % L]][g % L]
        if kind == "measure":
            for r, (start, n) in enumerate(zip(starts, sizes)):
                for g in range(start, start + n + 1):
                    if held[r][g] != truth[g % L]:
                        raise StaleRead(f"sizes {sizes}: the measurement on rank "
                                        f"{r} reads column {g} behind its owner")
            break
        writes_after = {}
        for r, (start, n) in enumerate(zip(starts, sizes)):
            run = {start - D + x for x in walks[r].runs[s].tolist()}
            frame = _moves(kind, index, start - D, start + n + D)
            for x, (reads, writes) in frame.items():
                mine = any(start <= w < start + n for w in writes)
                if mine and x not in run:
                    raise AssertionError(f"sizes {sizes}: stage {s} rank {r} "
                                         f"skips owned move {x}")
                if x not in run or (not mine and (s, r, x - start + D) == skip):
                    continue
                for g in reads:
                    if held[r].get(g) != truth[g % L]:
                        raise StaleRead(
                            f"sizes {sizes}: stage {s} {WL_STAGES[s]} rank {r} "
                            f"move {x} reads column {g} at version "
                            f"{held[r].get(g)}, owner has {truth[g % L]}")
                for w in writes:
                    writes_after[r, w] = truth[w % L] + 1
        # one stage: every read precedes every write; a column the stage
        # writes moves on wherever its move ran and falls behind elsewhere
        for g in range(L):
            if _moves(kind, index, g, g + 1):
                truth[g] += 1
        for (r, w), version in writes_after.items():
            if w in held[r]:
                held[r][w] = version
    return posted


def even_cuts():
    """Every even-block ring with L <= 48, P <= 6 the strip driver can
    be given (equal pieces), plus every uneven cut into pieces of 4, 6
    or 8 columns -- seams of both kinds next to thin and thick ranks."""
    cuts = {
        (L // p,) * p
        for L in range(4, 49, 4) for p in range(1, 7)
        if L % p == 0 and (L // p) % 2 == 0 and (p == 1 or L // p >= 4)
    }
    for p in range(2, 7):
        for sizes in itertools.product((4, 6, 8), repeat=p):
            if sum(sizes) % 4 == 0 and sum(sizes) <= 48:
                cuts.add(sizes)
    return sorted(cuts)


class TestVersionStampOracle:
    def test_geometries_cover_both_seam_kinds_and_uneven_pieces(self):
        cuts = even_cuts()
        assert (10,) * 4 in cuts and (6, 6) in cuts  # start % 4 == 2
        assert any(len(set(c)) > 1 for c in cuts)
        assert any(min(c) >= DEPTH for c in cuts if len(c) > 1)
        assert len(cuts) > 300

    def test_schedule_is_sufficient_and_minimal(self):
        for sizes in even_cuts():
            posted = simulate_sweep(sizes)  # raises on a stale read
            assert len(set(posted)) == len(posted)
            stages = {s for s, _, _ in posted}
            assert len(posted) == 2 * len(sizes) * len(stages)  # all ghosts
            for stage in stages:
                with pytest.raises(StaleRead):
                    simulate_sweep(sizes, drop=stage)
            refreshes = len(stages)
            if len(sizes) == 2:  # two ranks: no cap, one refresh
                assert _ghost_depth(_STRIP_STENCIL, list(sizes)) == DEPTH
                assert refreshes == 1
            elif len(sizes) > 2:
                assert _ghost_depth(_STRIP_STENCIL, list(sizes)) <= min(sizes)
                assert (refreshes == 1) == (min(sizes) >= DEPTH), sizes
            assert not [m for m in posted if m[0] == N_WL_STAGES]  # measurement

    @pytest.mark.parametrize(
        "sizes", [(8,), (4, 4), (24, 24), (12, 12, 12, 12), (4, 8, 6, 6)])
    def test_every_redundant_move_is_read(self, sizes):
        D = _ghost_depth(_STRIP_STENCIL, list(sizes))
        for r, n in enumerate(sizes):
            walk = _halo_walk(_STRIP_STENCIL, n, D)
            for s, ((kind, _), run) in enumerate(zip(WL_STAGES, walk.runs)):
                writes = (0, 1) if kind == "corner" else (0,)
                for x in run.tolist():
                    if any(D <= x + o < D + n for o in writes):
                        continue  # owned: runs whatever reads it
                    with pytest.raises(StaleRead):
                        simulate_sweep(sizes, skip=(s, r, x))

    def test_counts_the_issue_names(self):
        # two ranks of 32 columns: one message per rank and sweep,
        # before the first stage, carrying 2 * DEPTH columns
        assert DEPTH == 10
        assert simulate_sweep((32, 32)) == [(0, 0, "left"), (0, 0, "right"),
                                             (0, 1, "left"), (0, 1, "right")]
        def traffic(n_sites, n_slices, p):
            return halo_traffic("worldline_strip", (n_sites, n_slices), p)

        assert traffic(64, 16, 2) == (1, 1, 2 * DEPTH * 16)
        assert traffic(64, 16, 4) == (1, 2, DEPTH * 16)
        # pieces of 8 cap the depth: two refreshes at best, the first
        # at depth 6
        assert traffic(64, 16, 8) == (2, 2, 6 * 16)
        assert traffic(64, 16, 1) == (5, 0, 0)  # local wraps
        # two ranks of 4: the ghosts wrap around the ring; the 12 of 20
        # the neighbor owns travel, the rank's own 8 copy locally
        assert traffic(8, 8, 2) == (1, 1, 12 * 8)


def simulate_block_sweep(lx, ly, p, drop=False, skip=None):
    """One block sweep plus a measurement on ``p`` ranks, with a version
    per cell ``(x, y, c)``: the color-``c`` sites of column ``(x, y)``.

    Restates the block's ownership rules, not its tables: rank ``r``
    owns its piece and holds its plan's frame; color ``c`` updates the
    box the kernel takes -- the color's mask, centred in the frame --
    which must cover the owned sites, a move reading the other color at
    its column and its neighbours along every axis of extent > 1, and
    itself; the measurement reads the owned sites and, on a ghosted
    axis, the color-0 partner of each face bond (its owned end is the
    color-1 one).  A refresh copies every ghost from its owner.
    ``drop`` loses the refresh, ``skip = (rank, axis, plane)`` every
    color-0 move on one redundant plane.  Returns the ``(stage, rank)``
    refreshes; raises :class:`StaleRead` on a read behind the owner.
    """
    plans = [_build_block_plan(lx, ly, 2, p, r) for r in range(p)]
    spans = [((q.piece.x_start, q.piece.x_stop), (q.piece.y_start, q.piece.y_stop))
             for q in plans]
    ghosted = [n > 1 for n in (lx, ly)]

    def owner_of(x, y):
        return next(r for r, ((x0, x1), (y0, y1)) in enumerate(spans)
                    if x0 <= x % lx < x1 and y0 <= y % ly < y1)

    def owned(r, x, y):
        (x0, x1), (y0, y1) = spans[r]
        return x0 <= x < x1 and y0 <= y < y1

    def frame(r):
        return [range(a0 - d, a1 + d) for (a0, a1), d in zip(spans[r], plans[r].frame.depths)]

    truth = {(x, y, c): 0 for x in range(lx) for y in range(ly) for c in (0, 1)}
    held = [{(x, y, c): 0 if owned(r, x, y) else -1
             for x in frame(r)[0] for y in frame(r)[1] for c in (0, 1)} for r in range(p)]
    posted = []
    for s in (0, 1, 2):
        for r in range(p):
            if plans[r].frame.refresh[s]:
                posted.append((s, r))
                for (x, y, c) in held[r] if not drop else ():
                    held[r][x, y, c] = held[owner_of(x, y)][x % lx, y % ly, c]
        if s == 2:  # the measurement
            for r, ((x0, x1), (y0, y1)) in enumerate(spans):
                reads = [(x, y, c) for x in range(x0, x1) for y in range(y0, y1)
                         for c in (0, 1)]
                if ghosted[0]:
                    reads += [(x, y, 0) for x in (x0 - 1, x1) for y in range(y0, y1)]
                if ghosted[1]:
                    reads += [(x, y, 0) for x in range(x0, x1) for y in (y0 - 1, y1)]
                for x, y, c in reads:
                    if held[r][x, y, c] != truth[x % lx, y % ly, c]:
                        raise StaleRead(f"{lx}x{ly} P={p}: the measurement on rank "
                                        f"{r} reads {(x, y, c)} behind its owner")
            return posted
        c = s
        writes_after = {}
        for r, q in enumerate(plans):
            box = [rng[(len(rng) - m) // 2 : (len(rng) + m) // 2]
                   for rng, m in zip(frame(r), q.masks[c].shape)]
            assert all(owned(r, x, y) <= (x in box[0] and y in box[1])
                       for x in frame(r)[0] for y in frame(r)[1]), (lx, ly, p, r, c)
            for x in box[0]:
                for y in box[1]:
                    if (not owned(r, x, y) and c == 0 and skip is not None
                            and skip[0] == r and (x, y)[skip[1]] == skip[2]):
                        continue
                    reads = [(x, y, c), (x, y, 1 - c)]
                    if ghosted[0]:
                        reads += [(x - 1, y, 1 - c), (x + 1, y, 1 - c)]
                    if ghosted[1]:
                        reads += [(x, y - 1, 1 - c), (x, y + 1, 1 - c)]
                    for cell in reads:
                        if held[r].get(cell) != truth[cell[0] % lx, cell[1] % ly, cell[2]]:
                            raise StaleRead(
                                f"{lx}x{ly} P={p}: color {c} on rank {r} at {(x, y)} "
                                f"reads {cell} at version {held[r].get(cell)}")
                    writes_after[r, (x, y, c)] = truth[x % lx, y % ly, c] + 1
        for cell in truth:
            if cell[2] == c:
                truth[cell] += 1
        for (r, cell), version in writes_after.items():
            held[r][cell] = version


#: Block lattices and rank counts: chains cut into pieces of 2, 4 and 6
#: (two-rank ones 2 wide: east and west are one rank), both axes' chain,
#: 2 x 2 grids of pieces 2, 4 and 6, 1 x 2 and 1 x 3 grids, a 2 x 4 one,
#: and a rank alone (local wraps).
BLOCK_CUTS = [
    (8, 1, 4), (4, 1, 2), (16, 1, 4), (8, 1, 2), (18, 1, 3), (12, 1, 2), (1, 8, 4),
    (4, 4, 4), (8, 8, 4), (12, 12, 4), (8, 8, 2), (12, 12, 3), (4, 8, 2),
    (16, 16, 8), (8, 8, 1), (12, 1, 1),
]


class TestBlockVersionStampOracle:
    @pytest.mark.parametrize("lx,ly,p", BLOCK_CUTS)
    def test_schedule_is_sufficient_depth_two_and_one_refresh(self, lx, ly, p):
        posted = simulate_block_sweep(lx, ly, p)  # raises on a stale read
        assert posted == [(0, r) for r in range(p)]  # color 0; none to measure
        for r in range(p):
            depths = _build_block_plan(lx, ly, 2, p, r).frame.depths
            assert depths == tuple(2 if n > 1 else 0 for n in (lx, ly))
        with pytest.raises(StaleRead):
            simulate_block_sweep(lx, ly, p, drop=True)

    @pytest.mark.parametrize(
        "lx,ly,p", [(8, 1, 4), (4, 1, 2), (4, 4, 4), (12, 12, 3), (8, 8, 1)])
    def test_every_redundant_color0_plane_is_read(self, lx, ly, p):
        for r in range(p):
            plan = _build_block_plan(lx, ly, 2, p, r)
            piece = plan.piece
            for axis, (a0, a1) in enumerate(
                    ((piece.x_start, piece.x_stop), (piece.y_start, piece.y_stop))):
                if plan.frame.depths[axis]:
                    for plane in (a0 - 1, a1):  # the ring color 0 updates
                        with pytest.raises(StaleRead):
                            simulate_block_sweep(lx, ly, p, skip=(r, axis, plane))


# ======================================================================
# (2) the stage tables against the walk
# ======================================================================


def _inspect_strip(comm, cfg):
    """Rank program: per stage, the local rows each move of the stage's
    tables reads and writes, the walk's fresh rows, and the refresh's
    sends, receives and local copy, as ``(rank, sites)``."""
    st = _StripState(comm, cfg)
    T, plan = st.T, st._plan
    out = {"n": st.n_owned, "depth": st.depth, "stages": []}
    for s, key in enumerate((*range(N_WL_STAGES), "measure")):
        if key == "measure":
            read = [plan.dlog_corners.ravel() // T]
            written = [np.array([], dtype=int)]
        elif WL_STAGES[s][0] == "corner":
            cache = plan.stages[s]
            read = list(cache["env"] // T)
            written = list(cache["flip"].T // T)
        else:
            cache = plan.stages[s]
            # the op reads each column's neighbors and its own spin
            read = [np.append(row // T, lc) for row, lc in zip(cache["nbr"], cache["lc"])]
            written = [np.array([lc]) for lc in cache["lc"]]
        ((sends, recvs, wrap),) = plan.frame.phases[key] or (((), (), None),)
        out["stages"].append({
            "sends": [(dest, sites.size) for dest, _, sites in sends],
            "recvs": [(source, sites.size) for source, _, sites in recvs],
            "wrap": 0 if wrap is None else wrap[0].size,
            "read": read,
            "written": written,
            "cells": (cache["flip"].T, cache["env"]) if key != "measure"
            and WL_STAGES[s][0] == "corner" else None,
            "fresh": plan.frame.walks[0].fresh[s],
            "posts": bool(plan.frame.phases[key]),
        })
    return out


GEOMETRIES = [(16, 1), (16, 2), (16, 4), (12, 2), (20, 2), (40, 4), (24, 6), (64, 2)]


def _stage_tables(comm, cfg):
    """Rank program: the rank's stage caches, measurement gathers, frame."""
    st = _StripState(comm, cfg)
    plan = st._plan
    dlog = (plan.dlog_corners[: plan.n_even], plan.dlog_corners[plan.n_even :])
    return (plan.stages, dlog,
            (st.start, st.stop, st.n_owned, st.depth, plan.frame.walks[0].runs))


@pytest.mark.parametrize("n_sites,p", GEOMETRIES)
def test_stage_tables_equal_the_index_algebra_they_replaced(n_sites, p):
    """The strip's gather / flip tables come from ``chain_tables`` on the
    local frame; here is the index algebra written out (rows ``j-1 ..
    j+2`` of a move, no wrap, *global* bond parity and class)."""
    T = 8
    cfg = WorldlineStripConfig(
        n_sites=n_sites, jz=1.0, jxy=0.8, beta=0.9, n_slices=T, n_sweeps=1,
    )
    t_even, t_odd = np.arange(0, T, 2), np.arange(1, T, 2)
    for cache, dlog, (start, stop, n, D, runs) in run_spmd(
            _stage_tables, p, PARAGON, seed=1, args=(cfg,)).values:
        assert start % 2 == 0 and D % 2 == 0
        for (kind, index), got, x in zip(WL_STAGES, cache, runs):
            g = (start - D + x) % n_sites
            if kind == "corner":
                (a, b), (a2, b2) = CORNER_COLORS[index]
                assert set(g % 4) <= {a, a2}
                J = np.repeat(x, T // 4)
                Tt = (np.where(g % 4 == a, b, b2)[:, None] + np.arange(0, T, 4)).ravel()
                t1, tm1 = (Tt + 1) % T, (Tt - 1) % T
                lb = np.stack([J - 1, J + 1, J, J])
                pt = np.stack([Tt, Tt, tm1, t1])
                pt1 = (pt + 1) % T
                corners = (lb * T + pt, (lb + 1) * T + pt,
                           lb * T + pt1, (lb + 1) * T + pt1)
                want = {
                    # packed: column 4k + c = corner c of plaquette k
                    "env": np.array(
                        [corners[c][k] for k in range(4) for c in range(4)]).T,
                    "flip": np.stack([J * T + Tt, J * T + t1,
                                      (J + 1) * T + Tt, (J + 1) * T + t1]),
                    "uflat": (g // 2 * (T // 4))[:, None] + Tt.reshape(-1, T // 4) // 4,
                }
                assert got["env"].flags.c_contiguous  # a gather keeps its index's order
            else:
                lb = x[:, None]
                # bond lc (right of column lc) is shaded at t = index (mod
                # 2), bond lc - 1 (left) at the other slices
                t = np.arange(T)
                want = {"nbr": np.where((t - index) % 2 == 0, lb + 1, lb - 1) * T + t,
                        "uc": g // 2}
            lo, hi = np.searchsorted(x, [D, D + n])
            assert got["counted"] == slice(lo, hi)
            # uniforms one row per bond (column) iff some go uncounted
            assert got["grouped"] == ((lo, hi) != (0, x.size))
            for name, table in want.items():
                have = got[name]
                if name in ("uflat", "uc"):
                    assert have.ndim == 1 + got["grouped"], name
                    have = have.reshape(table.shape)
                np.testing.assert_array_equal(have, table, err_msg=name)
                assert have.dtype == np.intp
        for parity, got in enumerate(dlog):
            lb = np.arange(D + parity, D + n, 2)[:, None]
            ts = (t_even if parity == 0 else t_odd)[None, :]
            ts1 = (ts + 1) % T
            want = np.stack(
                [lb * T + ts, (lb + 1) * T + ts, lb * T + ts1, (lb + 1) * T + ts1],
                axis=-1,
            ).reshape(-1, 4)
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n_sites,p", GEOMETRIES)
def test_facts_match_the_stage_tables_and_links_pair_up(n_sites, p):
    """Every move of every stage -- owned or redundant -- and the
    measurement read only rows the walk calls fresh; each color row is
    conflict-free on the local rows (no cell a move flips is touched by
    another move of the row); every send has its receive."""
    cfg = WorldlineStripConfig(
        n_sites=n_sites, jz=1.0, jxy=0.8, beta=0.9, n_slices=8, n_sweeps=1,
    )
    ranks = run_spmd(_inspect_strip, p, PARAGON, seed=1, args=(cfg,)).values
    for r, info in enumerate(ranks):
        n, D = info["n"], info["depth"]
        for s, stage in enumerate(info["stages"]):
            fresh = stage["fresh"]
            for rows in stage["read"]:
                assert fresh[rows].all(), (r, s)
            # a stage's moves write disjoint rows ...
            written = np.concatenate(stage["written"])
            if s == N_WL_STAGES:
                pass  # the measurement writes nothing
            elif stage["cells"] is None:
                assert np.unique(written).size == written.size, (r, s)
                for i, rows in enumerate(stage["written"]):
                    others = np.concatenate(stage["read"][:i] + stage["read"][i + 1:])
                    assert not np.isin(rows, others).any(), (r, s)
            else:
                # ... and a corner move's flipped cells no other move reads
                flips, env = stage["cells"]
                move_of = np.repeat(np.arange(len(flips)), 20)
                cells = np.concatenate([env, flips], axis=1).ravel()
                pairs = np.unique(np.stack([cells, move_of]), axis=1)
                per_cell = np.bincount(pairs[0])
                assert (per_cell[flips.ravel()] == 1).all(), (r, s)
            # the refresh: a receive from each neighbor, a local copy of
            # the ghosts the rank owns itself, a send to each neighbor of
            # as many sites as its receive from this rank takes
            posts = stage["posts"]
            assert ranks[0]["stages"][s]["posts"] == posts
            if not posts:
                continue
            neighbors = {(r - 1) % p, (r + 1) % p} - {r}
            assert {src for src, _ in stage["recvs"]} == neighbors
            assert {dest for dest, _ in stage["sends"]} == neighbors
            ghosts = sum(g for _, g in stage["recvs"]) + stage["wrap"]
            assert ghosts == 2 * D * 8, (r, s)  # every ghost column, T = 8
            for dest, sent in stage["sends"]:
                (took,) = [g for src, g in ranks[dest]["stages"][s]["recvs"] if src == r]
                assert sent == took, (r, s, dest)
        assert info["stages"][0]["posts"], "every ghost is stale at sweep start"
        assert not info["stages"][-1]["posts"], "the measurement posts nothing"
        assert D == {1: 2, 2: DEPTH}.get(p, min(D, n))


# ======================================================================
# (3) poison
# ======================================================================


def _poisoned(state, ghost_views, wrong):
    """Make ``state`` overwrite its ghosts with wrong spins before every
    sweep (``wrong(view)``: a legal-looking value that differs
    everywhere, so any stale read changes an accept decision)."""
    clean_sweep = state._sweep_stages

    def sweep():
        for view in ghost_views:
            view[...] = wrong(view)
        clean_sweep()

    state._sweep_stages = sweep
    return state


def _strip_ghosts(st):
    d = st.depth
    return [st.loc[:d], st.loc[d + st.n_owned :]]


def _block_ghosts(st):
    """Both ghost planes a side of every axis that has them."""
    (dx, dy), g = st._plan.frame.depths, st.g
    return [g[:dx], g[g.shape[0] - dx :], g[:, :dy], g[:, g.shape[1] - dy :]]


def poisoned_strip_program(comm, cfg, checkpoint=None):
    st = _StripState(comm, cfg)
    return _run_decomposed(
        _poisoned(st, _strip_ghosts(st), lambda v: 1 - v), checkpoint, None
    )


def poisoned_block_program(comm, cfg, checkpoint=None):
    st = _BlockState(comm, cfg)
    return _run_decomposed(
        _poisoned(st, _block_ghosts(st), lambda v: -v), checkpoint, None
    )


def _strip_cfg(overlap=False, n_sweeps=8, **kw):
    kw.setdefault("n_sites", 40)
    return WorldlineStripConfig(
        jz=1.0, jxy=0.8, beta=0.9, n_slices=8, n_sweeps=n_sweeps,
        n_thermalize=2, overlap=overlap, **kw,
    )


def _block_cfg(overlap=False, n_sweeps=8):
    return IsingBlockConfig(
        lx=8, ly=8, lt=4, kx=0.25, ky=0.25, kt=0.4, n_sweeps=n_sweeps,
        n_thermalize=2, overlap=overlap,
    )


BACKENDS = ["thread", pytest.param("mp", marks=pytest.mark.tier1_fault)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("overlap", [False, True])
class TestPoisonedGhosts:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_strip_trajectory_ignores_ghosts_at_sweep_start(
        self, backend, overlap, p
    ):
        cfg = _strip_cfg(overlap, measure_every=2)
        clean = run_driver_matrix(
            worldline_strip_program, p, cfg, seed=42, backend=backend)
        dirty = run_driver_matrix(
            poisoned_strip_program, p, cfg, seed=42, backend=backend)
        assert_bit_identical(clean, dirty, STRIP_KEYS, accounting=True)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_block_trajectory_ignores_ghosts_at_sweep_start(
        self, backend, overlap, p
    ):
        cfg = _block_cfg(overlap)
        clean = run_driver_matrix(
            parallel.ising_block_program, p, cfg, seed=42, backend=backend)
        dirty = run_driver_matrix(
            poisoned_block_program, p, cfg, seed=42, backend=backend)
        assert_bit_identical(clean, dirty, BLOCK_KEYS, accounting=True)


def poisoned_measurement_program(comm, cfg, checkpoint=None):
    """Block program whose every ``measure()`` first finds wrong spins
    in each ghost site a full sweep leaves stale: the outer planes, and
    the color-1 sites of the inner ones (color 0 updates the inner ring,
    corners included; color 1 only the owned sites)."""
    st = _BlockState(comm, cfg)
    p, (dx, dy) = st.piece, st._plan.frame.depths
    gx = np.arange(p.x_start - dx, p.x_stop + dx)[:, None, None]
    gy = np.arange(p.y_start - dy, p.y_stop + dy)[None, :, None]
    stale = (gx + gy + np.arange(st.lt)) % 2 == 1
    ring = tuple(slice(d // 2, n - d // 2) for d, n in zip((dx, dy), st.g.shape))
    outer = np.ones(st.g.shape, dtype=bool)
    outer[ring] = False
    stale |= outer
    stale[dx : dx + st.bx, dy : dy + st.by] = False  # owned sites
    clean_measure = st.measure

    def measure():
        st.g[stale] *= -1
        return clean_measure()

    st.measure = measure
    return _run_decomposed(st, checkpoint, None)


#: Block lattices through the poison tests: an inert y axis, an inert x
#: axis, a square whose P = 4 grid is 2 x 2 (corners), pieces of two
#: planes (the ghost depth) at P = 4 on a chain, and on a 2 x 2 grid.
POISON_SHAPES = [(64, 1, 8), (1, 8, 8), (8, 8, 4), (8, 1, 8), (4, 4, 4)]


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize(
    "shape", POISON_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_block_measurement_reads_no_stale_ghost(shape, p, overlap):
    """The measurement posts no halo, so it may read no ghost site the
    sweep before it left stale -- and whatever it finds there must not
    leak into the next sweep either."""
    lx, ly, lt = shape
    cfg = IsingBlockConfig(
        lx=lx, ly=ly, lt=lt, kx=0.25 if lx > 1 else 0.0,
        ky=0.25 if ly > 1 else 0.0, kt=0.4, n_sweeps=8, n_thermalize=2,
        overlap=overlap,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # thin blocks fall back to lockstep
        clean = run_driver_matrix(
            parallel.ising_block_program, p, cfg, seed=42)
        dirty = run_driver_matrix(
            poisoned_measurement_program, p, cfg, seed=42)
    assert_bit_identical(clean, dirty, BLOCK_KEYS, accounting=True)


@pytest.mark.parametrize(
    "shape", [(8, 1, 8), (4, 4, 4), (8, 4, 4)], ids=lambda s: "x".join(map(str, s)))
def test_thin_and_cornered_block_trajectory_ignores_ghosts(shape):
    """Pieces as thin as the ghost depth, on a chain and on 2 x 2 grids
    (whose corner ghosts only the y phase fills): every ghost at sweep
    start is wrong, and nothing changes."""
    lx, ly, lt = shape
    cfg = IsingBlockConfig(
        lx=lx, ly=ly, lt=lt, kx=0.25, ky=0.25 if ly > 1 else 0.0, kt=0.4,
        n_sweeps=8, n_thermalize=2,
    )
    clean = run_driver_matrix(parallel.ising_block_program, 4, cfg, seed=42)
    dirty = run_driver_matrix(poisoned_block_program, 4, cfg, seed=42)
    x0, x1, y0, y1 = clean.values[0]["piece"]
    assert 2 in (x1 - x0, y1 - y0)
    assert_bit_identical(clean, dirty, BLOCK_KEYS, accounting=True)


def _poison_bundles(directory, n_ranks, key, ghosts_of, wrong):
    for rank in range(n_ranks):
        meta, arrays = load_rank_checkpoint(directory, rank)
        for view in ghosts_of(arrays[key]):
            view[...] = wrong(view)
        save_rank_checkpoint(directory, rank, meta, arrays)


def assert_same_results(ref, got, keys):
    """Trajectory and series equality (a resumed run restarts its move
    counters, so ``assert_bit_identical`` does not apply)."""
    for rank, (r, g) in enumerate(zip(ref.values, got.values)):
        for key in keys:
            np.testing.assert_array_equal(g[key], r[key], err_msg=f"{rank} {key}")


class TestPoisonedBundles:
    """A bundle's ghosts carry no information a resume needs."""

    def test_strip_resume_ignores_bundle_ghosts(self, tmp_path):
        ref = run_driver_matrix(
            worldline_strip_program, 4, _strip_cfg(), seed=42)
        run_driver_matrix(
            worldline_strip_program, 4, _strip_cfg(n_sweeps=5), seed=42,
            checkpoint=CheckpointConfig(tmp_path, every=5))
        d = _ghost_depth(_STRIP_STENCIL, [10] * 4)
        _poison_bundles(
            tmp_path, 4, "loc", lambda a: [a[:d], a[-d:]], lambda v: 1 - v)
        resumed = run_driver_matrix(
            worldline_strip_program, 4, _strip_cfg(), seed=42,
            checkpoint=CheckpointConfig(tmp_path, resume=True))
        assert_same_results(ref, resumed, STRIP_KEYS)

    def test_block_resume_ignores_bundle_ghosts(self, tmp_path):
        ref = run_driver_matrix(
            parallel.ising_block_program, 4, _block_cfg(), seed=42)
        run_driver_matrix(
            parallel.ising_block_program, 4, _block_cfg(n_sweeps=5), seed=42,
            checkpoint=CheckpointConfig(tmp_path, every=5))
        _poison_bundles(
            tmp_path, 4, "g",
            lambda a: [a[:2], a[-2:], a[:, :2], a[:, -2:]], lambda v: -v)
        resumed = run_driver_matrix(
            parallel.ising_block_program, 4, _block_cfg(), seed=42,
            checkpoint=CheckpointConfig(tmp_path, resume=True))
        assert_same_results(ref, resumed, BLOCK_KEYS)


# ======================================================================
# (4) a start % 4 == 2 geometry through the bit-identity matrix
# ======================================================================


@pytest.mark.parametrize("measure_every", [1, 3])
def test_odd_seam_geometry_bit_identity_matrix(tmp_path, measure_every):
    """L = 40 over P = 4 puts ranks 1 and 3 at ``start % 4 == 2``, where
    a seam bond's class within each color is the other one.  P x kernel
    x schedule x mid-run resume against the P = 1 lockstep run."""
    base = dict(measure_every=measure_every, n_sweeps=7)
    ref = run_driver_matrix(
        worldline_strip_program, 1, _strip_cfg(**base), seed=42)
    for p in (1, 2, 4):
        per_p = None
        for mode, overlap, resume in itertools.product(
            ("vectorized", "scalar"), (False, True), (False, True)
        ):
            cfg = _strip_cfg(overlap, mode=mode, **base)
            ckpt = None
            if resume:
                d = tmp_path / f"p{p}-{mode}-{overlap}"
                run_driver_matrix(
                    worldline_strip_program, p,
                    _strip_cfg(overlap, mode=mode, **{**base, "n_sweeps": 4}),
                    seed=42, checkpoint=CheckpointConfig(d, every=4))
                ckpt = CheckpointConfig(d, resume=True)
            got = run_driver_matrix(
                worldline_strip_program, p, cfg, seed=42, checkpoint=ckpt)
            cell = (p, mode, overlap, resume)
            assert all(
                v["overlap_active"] == (overlap and p > 1) for v in got.values
            ), cell
            # across P: spins exact, energy to summation order
            np.testing.assert_array_equal(
                gather_spins(got.values), gather_spins(ref.values),
                err_msg=str(cell))
            np.testing.assert_allclose(
                got.values[0]["energy"], ref.values[0]["energy"], rtol=1e-12)
            # at equal P: everything, bit for bit
            if per_p is None:
                per_p = got
            assert_same_results(per_p, got, STRIP_KEYS)
