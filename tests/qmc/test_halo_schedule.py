"""The static halo schedule: sufficient, minimal, and tied to the tables.

The decomposed drivers ship a ghost only when it is stale and about to
be read (``repro.qmc.parallel``, "Halo schedule").  Four oracles hold
that schedule in place:

* a version-stamp simulation that restates the strip's ownership rules
  from the geometry alone (every owned column carries a write counter,
  every ghost the counter it last received) over rings cut at arbitrary
  even seams: no stage reads a ghost behind its owner, and dropping any
  one scheduled message makes some stage do exactly that;
* the read and leaves-stale sets of ``_SEAM_FACTS`` against the ghost
  rows in each stage's own gather / flip tables, and every sending
  half-link against a receiving half on the destination rank;
* poison: every ghost column / plane overwritten with wrong spins at
  the start of each sweep, and in a saved bundle before a resume, on
  both drivers -- trajectories and series equal the clean run, which is
  what entitles bundles written before the schedule existed to resume;
  and, for the block measurement that posts no halo at all, every site
  a sweep leaves stale overwritten right before each ``measure()``;
* a ``start % 4 == 2`` geometry through the bit-identity matrix.
"""

import itertools
import warnings

import numpy as np
import pytest

from repro.qmc import parallel
from repro.qmc.parallel import (
    N_WL_STAGES,
    WL_STAGES,
    IsingBlockConfig,
    WorldlineStripConfig,
    _BlockState,
    _run_decomposed,
    _seam_schedule,
    _StripState,
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

STAGES = (*WL_STAGES, ("measure", 0, None))


# ======================================================================
# (1) version-stamp simulation
# ======================================================================


class StaleRead(AssertionError):
    pass


def simulate_sweep(sizes, drop=None):
    """One sweep plus a measurement on a ring cut into ``sizes`` pieces.

    Restates the ownership conventions, not the driver's tables: rank
    ``r`` owns ``[start, stop)``, executes corner bonds ``start-1 ..
    stop-1`` (both ends redundantly with its neighbors, writing one
    ghost column each) and the column moves and shaded plaquettes of
    its own columns.  Stamps live per local row ``(rank, row)``, row =
    global column - start + 2; rows ``2 .. n+1`` are the truth.  Every
    ghost starts stale.  ``drop = (stage, seam, pair)`` loses that one
    message.  Returns the scheduled ``(stage, seam, pair)`` messages;
    raises :class:`StaleRead` on a read behind the owner.
    """
    L, P = sum(sizes), len(sizes)
    starts = [sum(sizes[:r]) for r in range(P)]
    owner = {}
    for r, (start, n) in enumerate(zip(starts, sizes)):
        for col in range(start, start + n):
            owner[col] = (r, col - start + 2)
    stamp = {
        (r, row): 0 if 2 <= row < n + 2 else -1
        for r, n in enumerate(sizes) for row in range(n + 4)
    }
    schedules = [_seam_schedule(start) for start in starts]
    posted = []
    for s, (kind, a, _) in enumerate(STAGES):
        # messages posted before the stage: pre-stage owner stamps
        for b, seam in enumerate(starts):
            left_of = (b - 1) % P
            for pair, rank, rows, cols in (
                (0, b, (0, 1), (seam - 2, seam - 1)),
                (1, left_of, (sizes[left_of] + 2, sizes[left_of] + 3),
                 (seam, seam + 1)),
            ):
                if not schedules[b][s][pair]:
                    continue
                posted.append((s, seam, pair))
                if (s, seam, pair) != drop:
                    for row, col in zip(rows, cols):
                        stamp[rank, row] = stamp[owner[col % L]]
        reads, writes = [], []
        for r, (start, n) in enumerate(zip(starts, sizes)):
            if kind == "corner":
                for j in range(1, n + 2):
                    if (start - 2 + j) % 4 == a:
                        reads += [(r, row) for row in range(j - 1, j + 3)]
                        writes += [(r, j), (r, j + 1)]
            elif kind == "column":
                for row in range(2, n + 2):
                    if (start - 2 + row) % 2 == a:
                        reads += [(r, row - 1), (r, row), (r, row + 1)]
                        writes.append((r, row))
            else:
                reads += [(r, row) for row in range(2, n + 3)]
        # one independence class: every read precedes every write
        for r, row in reads:
            truth = owner[(starts[r] - 2 + row) % L]
            if stamp[r, row] != stamp[truth]:
                raise StaleRead(
                    f"sizes {sizes}: stage {s} {STAGES[s]} rank {r} reads "
                    f"row {row} at stamp {stamp[r, row]}, owner has "
                    f"{stamp[truth]}"
                )
        for key in writes:
            stamp[key] += 1
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
        assert len(cuts) > 300

    def test_schedule_is_sufficient_and_minimal(self):
        for sizes in even_cuts():
            posted = simulate_sweep(sizes)  # raises on a stale read
            assert len(set(posted)) == len(posted)
            for message in posted:
                with pytest.raises(StaleRead):
                    simulate_sweep(sizes, drop=message)

    def test_counts_the_issue_names(self):
        # seams at 0 (mod 4): L...R.L..R. -- four receives per rank,
        # none at the measurement, whatever P
        for p in (1, 2, 4):
            posted = simulate_sweep((16,) * p)
            assert len(posted) == 4 * p
            assert not [m for m in posted if m[0] == N_WL_STAGES]
        per_seam = {
            seam % 4: "".join(
                ".LRB"[left + 2 * right] for left, right in _seam_schedule(seam)
            )
            for seam in (0, 10)
        }
        assert per_seam == {0: "L...R.L..R.", 2: "R.L......R."}


# ======================================================================
# (2) the schedule's facts against the kernels' own tables
# ======================================================================


def _inspect_strip(comm, cfg):
    """Rank program: ghost rows each stage's tables touch, and the links."""
    st = _StripState(comm, cfg)
    n, T = st.n_owned, st.T
    ghosts = {0, 1, n + 2, n + 3}
    out = {"n": n, "start": st.start, "stop": st.stop, "stages": []}
    for s, (kind, _, _) in enumerate(STAGES):
        if kind == "corner":
            cache = st._stage_cache[s]
            read = cache["env"].ravel() // T
            flip = cache["flip"] // T  # (4, n_moves) rows a move toggles
            mirrored = np.isin(flip, list(ghosts)).any(axis=0)
            written = flip[:, ~mirrored].ravel()
        elif kind == "column":
            cache = st._stage_cache[s]
            # the op reads each column's neighbors and its own spin
            read = np.concatenate([cache["nbr"].ravel() // T, cache["lc"]])
            written = cache["lc"]
        else:
            read = np.concatenate([t.ravel() for t in st._dlog_tables]) // T
            written = np.array([], dtype=int)
        key = s if s < N_WL_STAGES else "measure"
        (links,) = st._links[key]
        out["stages"].append({
            "ghost_reads": sorted(ghosts & set(read.tolist())),
            "unmirrored_writes": sorted(set(written.tolist())),
            "links": [(ln.dest, ln.source, ln.tag) for ln in links],
        })
    return out


GEOMETRIES = [(16, 1), (16, 2), (16, 4), (12, 2), (20, 2), (40, 4), (24, 6)]


def _stage_tables(comm, cfg):
    """Rank program: the rank's stage caches, measurement gathers, frame."""
    st = _StripState(comm, cfg)
    return st._stage_cache, st._dlog_tables, (st.start, st.stop, st.n_owned)


@pytest.mark.parametrize("n_sites,p", GEOMETRIES)
def test_stage_tables_equal_the_index_algebra_they_replaced(n_sites, p):
    """The strip's gather / flip tables come from ``chain_tables`` on the
    local frame; here is the algebra the driver used to carry, written
    out (rows ``j-1 .. j+2`` of a move, no wrap, *global* bond parity)."""
    T = 8
    cfg = WorldlineStripConfig(
        n_sites=n_sites, jz=1.0, jxy=0.8, beta=0.9, n_slices=T, n_sweeps=1,
    )
    t_even, t_odd = np.arange(0, T, 2), np.arange(1, T, 2)
    for cache, dlog, (start, stop, n) in run_spmd(
            _stage_tables, p, PARAGON, seed=1, args=(cfg,)).values:
        assert start % 2 == 0
        want_dlog = []
        for (kind, a, b), got in zip(WL_STAGES, cache):
            if kind == "corner":
                j0 = 1 + ((a - (start - 1)) % 4)
                J, Tt = np.meshgrid(
                    np.arange(j0, n + 2, 4), np.arange(b, T, 4), indexing="ij")
                J, Tt = J.ravel(), Tt.ravel()
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
                }
                assert got["env"].flags.c_contiguous  # a gather keeps its index's order
            else:
                gc = np.arange(start + ((a - start) % 2), stop, 2)
                lb = (gc - start + 2)[:, None]
                # bond lc (right of column lc) is shaded at t = a (mod 2),
                # bond lc - 1 (left) at the other slices
                t = np.arange(T)
                want = {"nbr": np.where((t - a) % 2 == 0, lb + 1, lb - 1) * T + t}
                ts = (t_even if a % 2 == 0 else t_odd)[None, :]
                ts1 = (ts + 1) % T
                want_dlog.append(np.stack(
                    [lb * T + ts, (lb + 1) * T + ts, lb * T + ts1, (lb + 1) * T + ts1],
                    axis=-1,
                ).reshape(-1, 4))
            for name, table in want.items():
                np.testing.assert_array_equal(got[name], table, err_msg=name)
                assert got[name].dtype == np.intp
        for got, want in zip(dlog, want_dlog, strict=True):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n_sites,p", GEOMETRIES)
def test_facts_match_the_stage_tables_and_links_pair_up(n_sites, p):
    cfg = WorldlineStripConfig(
        n_sites=n_sites, jz=1.0, jxy=0.8, beta=0.9, n_slices=8, n_sweeps=1,
    )
    ranks = run_spmd(_inspect_strip, p, PARAGON, seed=1, args=(cfg,)).values
    for r, info in enumerate(ranks):
        n = info["n"]
        at_start, at_stop = (
            _seam_schedule(info["start"]), _seam_schedule(info["stop"])
        )
        for s, ((kind, a, _), stage) in enumerate(zip(STAGES, info["stages"])):
            want_reads, want_stale = set(), set()
            # G0..G3 of a seam sit at this rank's local rows row0 + 0..3
            for seam, row0, mine, theirs in (
                (info["start"], 0, (0, 1), (2, 3)),
                (info["stop"], n, (2, 3), (0, 1)),
            ):
                reads, stale = parallel._SEAM_FACTS[
                    kind, (a - seam) % 4 if kind == "corner" else a
                ]
                want_reads |= {row0 + g for g in reads if g in mine}
                want_stale |= {row0 + g for g in stale if g in theirs}
            assert set(stage["ghost_reads"]) == want_reads, (r, s)
            # owned boundary rows this rank rewrites alone: the columns
            # its neighbors mirror and are left stale on
            mirrored_rows = {2, 3, n, n + 1}
            assert (
                set(stage["unmirrored_writes"]) & mirrored_rows == want_stale
            ), (r, s)
            # links: tag 0 travels rightward, tag 1 leftward
            if p == 1:
                want = [(None, None, tag) for tag in (0, 1) if at_start[s][tag]]
                assert at_start == at_stop
            else:
                left, right = (r - 1) % p, (r + 1) % p
                want = [
                    (right if at_stop[s][0] else None,
                     left if at_start[s][0] else None, 0),
                    (left if at_start[s][1] else None,
                     right if at_stop[s][1] else None, 1),
                ]
                want = [ln for ln in want if ln[:2] != (None, None)]
            assert stage["links"] == want, (r, s)
            # every send has its receive on the destination, same stage
            for dest, _source, tag in stage["links"]:
                if dest is not None:
                    assert (r, tag) in [
                        (source, t)
                        for _d, source, t in ranks[dest]["stages"][s]["links"]
                    ], (r, s, tag)


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
    n = st.n_owned
    return [st.loc[0:2], st.loc[n + 2 : n + 4]]


def _block_ghosts(st):
    return [st.g[0], st.g[-1], st.g[:, 0], st.g[:, -1]]


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
    in each ghost site a full sweep leaves stale: the color-1 ones, and
    every ghost along an extent-1 axis (no stage refreshes those)."""
    st = _BlockState(comm, cfg)
    p = st.piece
    gx = np.arange(p.x_start - 1, p.x_stop + 1)[:, None, None]
    gy = np.arange(p.y_start - 1, p.y_stop + 1)[None, :, None]
    stale = (gx + gy + np.arange(st.lt)) % 2 == 1
    if cfg.lx == 1:
        stale[[0, -1]] = True
    if cfg.ly == 1:
        stale[:, [0, -1]] = True
    stale[1:-1, 1:-1] = False  # owned sites
    clean_measure = st.measure

    def measure():
        st.g[stale] *= -1
        return clean_measure()

    st.measure = measure
    return _run_decomposed(st, checkpoint, None)


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize(
    "shape", [(64, 1, 8), (1, 8, 8), (8, 8, 4)],
    ids=lambda s: "x".join(map(str, s)))
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
        _poison_bundles(
            tmp_path, 4, "loc", lambda a: [a[0:2], a[-2:]], lambda v: 1 - v)
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
            lambda a: [a[0], a[-1], a[:, 0], a[:, -1]], lambda v: -v)
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
    a rank's sends and receives fall on different stages.  P x kernel x
    schedule x mid-run resume against the P = 1 lockstep run."""
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
