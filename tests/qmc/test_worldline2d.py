"""Tests for the 2-D (square lattice) world-line sampler.

Validation strategy: the local move set samples the fixed-winding
sector (period-accurate), and on width-2 lattices the excluded winding
weight is *not* negligible -- so the strongest test compares the
sampler against the **sector-exact** average, computed by exhaustively
enumerating the move-reachable configuration set on a 2x2 lattice.
Full-partition-function agreement is separately verified for the
weights/estimator layer via the transfer-matrix walk (no sampler
involved), and qualitative physics (staggered order) on larger
lattices.
"""

import itertools
from collections import deque

import numpy as np
import pytest

from repro.models.hamiltonians import XXZSquareModel
from repro.models.trotter_ref import trotter_reference_energy_colors
from repro.qmc.chains import run_chain
from repro.qmc.worldline2d import WorldlineSquareQmc
from repro.stats.binning import BinningAnalysis
from repro.stats.finite_size import susceptibility

from tests.conftest import assert_within
from tests.qmc.raster_reference import RasterSquareQmc


def make(lx=2, ly=4, beta=0.75, n_slices=8, jz=1.0, jxy=1.0, seed=0,
         cls=WorldlineSquareQmc):
    model = XXZSquareModel(lx=lx, ly=ly, jz=jz, jxy=jxy)
    return cls(model, beta, n_slices, seed=seed)


class TestConstruction:
    def test_geometry(self):
        q = make(n_slices=16)
        assert q.n_trotter == 4
        assert q.dtau == pytest.approx(0.75 / 4)
        assert q.spins.shape == (8, 16)

    def test_neel_is_legal(self):
        q = make()
        assert np.isfinite(q.config_log_weight())
        q.check_invariants()

    def test_slice_count_validation(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            make(n_slices=4)
        with pytest.raises(ValueError):
            make(n_slices=10)

    def test_open_lattice_rejected(self):
        model = XXZSquareModel(lx=4, ly=4, periodic=False)
        with pytest.raises(ValueError, match="periodic"):
            WorldlineSquareQmc(model, 1.0, 8)

    def test_bond_tables_tile_every_color(self):
        q = make(lx=4, ly=4)
        assert np.all(q.partner >= 0)
        # partner is an involution per color.
        for c in range(4):
            for s in range(q.n_sites):
                assert q.partner[q.partner[s, c], c] == s

    def test_doubled_pairs_detected(self):
        assert len(make(lx=2, ly=4).doubled_pairs) > 0
        assert len(make(lx=4, ly=4).doubled_pairs) == 0


class TestWeightsAndEstimator:
    def test_neel_energy_closed_form(self):
        # All shaded plaquettes of the straight Neel state are
        # antiparallel-continue: dlogW = Jz/4 + (Jxy/2) tanh(dtau Jxy/2).
        q = make(lx=4, ly=4, beta=0.5, n_slices=8)
        n_plaq = q.n_bonds * q.n_trotter
        per = 0.25 + 0.5 * np.tanh(q.dtau * 0.5)
        assert q.energy_estimate() == pytest.approx(-n_plaq * per / q.n_trotter)

    def test_full_partition_function_matches_reference(self):
        """Transfer-matrix walk over ALL legal configs == matrix reference.

        Validates the shaded-plaquette decomposition and the energy
        estimator with no Monte Carlo involved.
        """
        model = XXZSquareModel(lx=2, ly=2)
        beta, m = 0.6, 2
        q = WorldlineSquareQmc(model, beta, 4 * m, seed=0)
        w, d = q.table.weights, q.table.dlog
        n, t_total = 4, 4 * m

        def active_pairs(color):
            out, done = [], set()
            for s in range(n):
                p = int(q.partner[s, color])
                key = (min(s, p), max(s, p))
                if key not in done:
                    done.add(key)
                    out.append((s, p))
            return out

        def bit(state, s):
            return (state >> s) & 1

        z_total, e_total = 0.0, 0.0
        for s0 in range(2**n):
            cur = {s0: (1.0, 0.0)}
            for t in range(t_total):
                nxt: dict[int, tuple[float, float]] = {}
                for st, (sw, swd) in cur.items():
                    outs = [(0, 1.0, 0.0)]
                    for a, b in active_pairs(t % 4):
                        sa, sb = bit(st, a), bit(st, b)
                        new_outs = []
                        for ta, tb in itertools.product((0, 1), (0, 1)):
                            code = sa + 2 * sb + 4 * ta + 8 * tb
                            if w[code] > 0:
                                for ns, ww, dd in outs:
                                    new_outs.append(
                                        (
                                            ns | (ta << a) | (tb << b),
                                            ww * float(w[code]),
                                            dd + float(d[code]),
                                        )
                                    )
                        outs = new_outs
                    for ns, ww, dd in outs:
                        acc = nxt.get(ns, (0.0, 0.0))
                        nxt[ns] = (acc[0] + sw * ww, acc[1] + swd * ww + sw * ww * dd)
                cur = nxt
            if s0 in cur:
                sw, swd = cur[s0]
                z_total += sw
                e_total += -swd / m
        ref = trotter_reference_energy_colors(model, beta, m)
        assert e_total / z_total == pytest.approx(ref, abs=1e-8)


class TestMoves:
    def test_sweeps_preserve_invariants(self):
        q = make(seed=3)
        for _ in range(25):
            q.sweep()
        q.check_invariants()

    def test_segment_flip_rejects_wrong_interval(self):
        q = make(cls=RasterSquareQmc)
        bond = 0
        c = int(q.bond_colors[bond])
        wrong = np.array([(c + 1) % 4], dtype=np.intp)
        with pytest.raises(ValueError, match="activation intervals"):
            q.segment_flip_class(bond, wrong)

    def test_window_flip_validates_pair(self):
        q = make(lx=4, ly=4, cls=RasterSquareQmc)
        with pytest.raises(ValueError, match="connecting"):
            q.attempt_window_flip(0, 5, 0, 1)  # not even neighbors

    def test_acceptance_nontrivial(self):
        q = make(beta=0.5, seed=4)
        for _ in range(30):
            q.sweep()
        assert 0.01 < q.acceptance_rate < 0.95

    def test_segment_ratio_equals_global_ratio(self):
        """Local affected-plaquette ratio == global weight ratio."""
        q = make(seed=7, cls=RasterSquareQmc)
        for _ in range(10):
            q.sweep()
        rng = np.random.default_rng(2)
        w = q.table.weights
        for _ in range(25):
            bond = int(rng.integers(0, q.n_bonds))
            c = int(q.bond_colors[bond])
            t0 = int(rng.choice(np.arange(c, q.n_slices, 4)))
            affected = q._affected_for(bond)

            def local():
                p = 1.0
                for ab, off in affected:
                    tau = np.array([(t0 + off) % q.n_slices], dtype=np.intp)
                    p *= float(w[q._codes(ab, tau)][0])
                return p

            lw_old = q.config_log_weight()
            p_old = local()
            i, j = q.bond_sites[bond]
            win = q._segment_window(np.array([t0]))
            q.spins[i, win] ^= 1
            q.spins[j, win] ^= 1
            lw_new = q.config_log_weight()
            p_new = local()
            q.spins[i, win] ^= 1
            q.spins[j, win] ^= 1
            if np.isfinite(lw_new):
                assert np.log(p_new / p_old) == pytest.approx(
                    lw_new - lw_old, abs=1e-9
                )
            else:
                assert p_new == 0.0


def sector_exact_energy_2x2(q: WorldlineSquareQmc) -> float:
    """Exact average over the move-reachable sector (BFS enumeration)."""
    w, d = q.table.weights, q.table.dlog
    probe = q.spins.copy()
    z, e = 0.0, 0.0
    for config in reachable_sector(q):
        q.spins = config
        codes = q.shaded_codes()
        ww = w[codes]
        weight = float(np.prod(ww))
        z += weight
        e += weight * float(-np.sum(d[codes]) / q.n_trotter)
    q.spins = probe
    return e / z


def move_vectors(q: WorldlineSquareQmc) -> list[np.ndarray]:
    """The move set as (sites, slices) flip masks: every segment move,
    every column, and every doubled pair's mixed-color window."""
    n, t_total = q.n_sites, q.n_slices
    move_vectors = []
    for bond in range(q.n_bonds):
        c = int(q.bond_colors[bond])
        for t0 in range(c, t_total, 4):
            i, j = q.bond_sites[bond]
            win = (t0 + np.arange(1, 5)) % t_total
            v = np.zeros((n, t_total), dtype=np.int8)
            v[i, win] ^= 1
            v[j, win] ^= 1
            move_vectors.append(v)
    for site in range(n):
        v = np.zeros((n, t_total), dtype=np.int8)
        v[site, :] = 1
        move_vectors.append(v)
    for (i, j), colors in q.doubled_pairs.items():
        acts = sorted(t for c in colors for t in range(c, t_total, 4))
        for k2, t1 in enumerate(acts):
            t2 = acts[(k2 + 1) % len(acts)]
            if t1 % 4 == t2 % 4:
                continue
            length = (t2 - t1) % t_total
            win = (t1 + 1 + np.arange(length)) % t_total
            v = np.zeros((n, t_total), dtype=np.int8)
            v[i, win] ^= 1
            v[j, win] ^= 1
            move_vectors.append(v)
    return move_vectors


def reachable_sector(q: WorldlineSquareQmc) -> list[np.ndarray]:
    """Every configuration the move set reaches from ``q.spins``,
    breadth first over :func:`move_vectors`."""
    n, t_total = q.n_sites, q.n_slices
    w = q.table.weights
    moves = move_vectors(q)

    def key_of(s):
        return int("".join(map(str, s.ravel().tolist())), 2)

    def config_from_key(k):
        return np.array(
            [int(x) for x in format(k, f"0{n * t_total}b")], dtype=np.int8
        ).reshape(n, t_total)

    probe = q.spins.copy()

    def legal(s):
        q.spins = s
        return bool(np.all(w[q.shaded_codes()] > 0))

    start = probe.copy()
    seen = {key_of(start)}
    queue = deque([key_of(start)])
    while queue:
        s = config_from_key(queue.popleft())
        for v in moves:
            s2 = s ^ v
            if legal(s2):
                k2 = key_of(s2)
                if k2 not in seen:
                    seen.add(k2)
                    queue.append(k2)
    q.spins = probe
    return [config_from_key(k) for k in seen]


@pytest.mark.slow
class TestSectorExactValidation:
    def test_sampler_matches_sector_exact_average(self):
        """The decisive test: long run vs exhaustive sector enumeration."""
        model = XXZSquareModel(lx=2, ly=2)
        beta = 0.6
        q = WorldlineSquareQmc(model, beta, 8, seed=11)
        sector_ref = sector_exact_energy_2x2(q)
        meas = run_chain(q, ("energy",), 5000, n_thermalize=500)
        ba = BinningAnalysis.from_series(meas["energy"])
        assert_within(ba.mean, sector_ref, ba.error, n_sigma=4.5,
                      label="2x2 sector-exact E")

    def test_winding_restriction_is_bounded(self):
        """The excluded winding weight raises E by a bounded amount
        (documented limitation; grossly exaggerated at width 2)."""
        model = XXZSquareModel(lx=2, ly=4)
        beta, m = 0.75, 2
        full_ref = trotter_reference_energy_colors(model, beta, m)
        q = WorldlineSquareQmc(model, beta, 4 * m, seed=13)
        meas = run_chain(q, ("energy",), 3000, n_thermalize=300)
        e = float(np.mean(meas["energy"]))
        assert full_ref - 0.01 < e < 0.85 * full_ref, (
            f"E={e} vs full reference {full_ref}"
        )


@pytest.mark.slow
class TestPhysics:
    def test_staggered_order_grows_as_t_falls(self):
        model = XXZSquareModel(lx=4, ly=4)
        def s_afm(beta, n_slices, seed):  # S(pi, pi) = N <m_st^2>
            q = WorldlineSquareQmc(model, beta, n_slices, seed=seed)
            return 16 * np.mean(run_chain(q, ("m_stag_sq",), 600, 100)["m_stag_sq"])

        assert s_afm(2.0, 16, 19) > s_afm(0.5, 8, 17)

    def test_energy_decreases_with_beta(self):
        model = XXZSquareModel(lx=4, ly=4)
        e_hot = np.mean(run_chain(
            WorldlineSquareQmc(model, 0.5, 8, seed=23), ("energy",), 500, 100
        )["energy"])
        e_cold = np.mean(run_chain(
            WorldlineSquareQmc(model, 1.5, 16, seed=29), ("energy",), 500, 100
        )["energy"])
        assert e_cold < e_hot

    def test_susceptibility_positive(self):
        model = XXZSquareModel(lx=4, ly=4)
        meas = run_chain(WorldlineSquareQmc(model, 0.75, 8, seed=31),
                         ("magnetization",), 800, 150)
        assert susceptibility(meas["magnetization"], 0.75, 16) > 0
