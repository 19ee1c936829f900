"""Property-based detailed-balance and stationarity checks.

These are the deepest correctness guards of the sampler layer: for
randomly generated parameters and configurations, each Monte Carlo
kernel's acceptance ratio must equal the true weight ratio of the
global configurations it connects.  Two kernels are held exhaustively
instead, on lattices small enough to enumerate: every move of every
world-line table row is the Metropolis rule on pi for every
configuration of the open 4-site chain at T = 4 and of the 2 x 2 x 8
reachable sector, and the block driver's color update flips exactly
the Metropolis set, whose transition matrix leaves the Boltzmann
weights invariant.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import kernels
from repro.models.hamiltonians import XXZChainModel, XXZSquareModel
from repro.qmc.classical_ising import AnisotropicIsing
from repro.qmc.parallel import IsingBlockConfig, _BlockState
from repro.qmc.worldline import WorldlineChainQmc
from repro.qmc.worldline2d import WorldlineSquareQmc
from repro.vmp.machines import IDEAL
from repro.vmp.scheduler import run_spmd
from tests.qmc.fake_numba import numba_backend  # noqa: F401 (autouse: needs_numba)
from tests.qmc.raster_reference import RasterChainQmc
from tests.qmc.test_worldline2d import reachable_sector

couplings = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
positive_dtau = st.floats(min_value=0.02, max_value=0.4, allow_nan=False)


class TestWorldlineWeightRatios:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        jz=couplings,
        jxy=st.floats(min_value=0.1, max_value=1.5),
        beta=st.floats(min_value=0.2, max_value=2.0),
        seed=st.integers(0, 10_000),
    )
    def test_corner_flip_ratio_equals_global_ratio(self, jz, jxy, beta, seed):
        """Local 4-plaquette ratio == global config-weight ratio."""
        model = XXZChainModel(n_sites=4, jz=jz, jxy=jxy, periodic=True)
        q = RasterChainQmc(model, beta, 8, seed=seed)
        for _ in range(10):
            q.sweep()
        rng = np.random.default_rng(seed)
        for _ in range(5):
            i = int(rng.integers(0, q.n_bonds))
            t = int(rng.integers(0, q.n_slices))
            if (i + t) % 2 == 0:
                continue
            lw_old = q.config_log_weight()
            # Apply the candidate flip manually and compare ratios.
            j, t1 = (i + 1) % q.L, (t + 1) % q.n_slices
            idx = ([i, i, j, j], [t, t1, t, t1])
            q.spins[idx] ^= 1
            lw_new = q.config_log_weight()
            q.spins[idx] ^= 1
            # Reproduce the sampler's local ratio.
            w = q.table.weights
            im1, ip1 = (i - 1) % q.L, (i + 1) % q.L
            tm1, tp1 = (t - 1) % q.n_slices, (t + 1) % q.n_slices
            a = np.array
            prod_old = float(
                (
                    w[q._codes(a([im1]), a([t]))]
                    * w[q._codes(a([ip1]), a([t]))]
                    * w[q._codes(a([i]), a([tm1]))]
                    * w[q._codes(a([i]), a([tp1]))]
                )[0]
            )
            q.spins[idx] ^= 1
            prod_new = float(
                (
                    w[q._codes(a([im1]), a([t]))]
                    * w[q._codes(a([ip1]), a([t]))]
                    * w[q._codes(a([i]), a([tm1]))]
                    * w[q._codes(a([i]), a([tp1]))]
                )[0]
            )
            q.spins[idx] ^= 1
            if np.isfinite(lw_new):
                assert np.log(prod_new / prod_old) == pytest.approx(
                    lw_new - lw_old, abs=1e-9
                )
            else:
                assert prod_new == 0.0

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), beta=st.floats(0.2, 1.5))
    def test_sweeps_never_leave_the_legal_manifold(self, seed, beta):
        model = XXZChainModel(n_sites=8, periodic=True)
        q = WorldlineChainQmc(model, beta, 8, seed=seed)
        for _ in range(15):
            q.sweep()
        q.check_invariants()
        assert np.isfinite(q.config_log_weight())


class TestIsingStationarity:
    @settings(max_examples=20, deadline=None)
    @given(
        kx=st.floats(min_value=-0.8, max_value=0.8),
        ky=st.floats(min_value=-0.8, max_value=0.8),
        seed=st.integers(0, 10_000),
    )
    def test_metropolis_ratio_is_boltzmann(self, kx, ky, seed):
        """One accepted color-sweep step changes the reduced energy in a
        way consistent with the Boltzmann acceptance rule: every flip
        with dE < 0 would always be accepted, so running at strong
        negative field from aligned start must lower the energy."""
        s = AnisotropicIsing((6, 6), (kx, ky), seed=seed, hot_start=True)
        e0 = s.reduced_energy()
        for _ in range(30):
            s.sweep()
        # Stationarity proxy: reduced energy moved toward (or stayed in)
        # the typical set; with |K| < 0.9 it must remain finite & bounded.
        e1 = s.reduced_energy()
        bound = (abs(kx) + abs(ky)) * s.n_sites + 1e-9
        assert -bound <= e1 <= bound
        assert np.isfinite(e0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_ferromagnetic_ground_state_is_absorbing_at_zero_t(self, seed):
        # Huge couplings ~ zero temperature: aligned lattice never moves.
        s = AnisotropicIsing((4, 4), (20.0, 20.0), seed=seed)
        for _ in range(5):
            s.sweep()
        assert abs(s.magnetization()) == 1.0


# ======================================================================
# the world-line table rows: exhaustive Metropolis on pi
# ======================================================================

LOOP_KERNELS = ["scalar", pytest.param("numba", marks=pytest.mark.needs_numba)]
EPS = 1e-9


@functools.lru_cache(maxsize=None)
def _worldline_lattice(name):
    """``(sampler, configurations, shaded corners)``: every legal
    configuration of the open 4-site chain at T = 4, or the 2 x 2 x 8
    sector the move set reaches from the Neel state (the enumeration of
    ``sector_exact_energy_2x2``), as flat spin rows."""
    if name == "open-chain-4x4":
        q = WorldlineChainQmc(XXZChainModel(4, jz=0.7, periodic=False), 1.3, 4)
        n = q.L * q.n_slices
        configs = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(np.int8)
        configs = configs[np.isfinite(_log_pi(q, configs, q._shaded.T))]
        return q, configs, q._shaded.T
    q = WorldlineSquareQmc(XXZSquareModel(2, 2), 0.6, 8, seed=11)
    configs = np.array([c.reshape(-1) for c in reachable_sector(q)])
    return q, configs, np.stack(q._shaded_gather)


def _log_pi(q, configs, corners):
    """log of each configuration's weight (-inf where illegal)."""
    s = configs[:, corners]
    with np.errstate(divide="ignore"):
        w = q.table.weights[s[:, 0] + 2 * s[:, 1] + 4 * s[:, 2] + 8 * s[:, 3]]
        return np.log(w).sum(axis=1)


def _metropolis_ratio(q, configs, corners, cells):
    """``min(1, pi'/pi)`` of flipping ``cells`` in every configuration."""
    target = configs.copy()
    target[:, cells] ^= 1
    delta = _log_pi(q, target, corners) - _log_pi(q, configs, corners)
    return np.exp(np.minimum(delta, 0.0)), target


def _forced_uniforms(ratio):
    """Uniforms a hair below and a hair above each ``min(1, pi'/pi)``,
    kept inside [0, 1)."""
    return ratio * (1 - EPS), np.minimum(np.maximum(ratio * (1 + EPS), EPS), 1 - EPS)


@pytest.mark.parametrize("kernel", LOOP_KERNELS)
@pytest.mark.parametrize("lattice", ["open-chain-4x4", "square-2x2x8"])
def test_every_row_move_is_the_metropolis_rule_on_pi(lattice, kernel):
    """Each move of each corner and column row, applied to every
    configuration at once (configuration c lives at offset c of one
    flat array, so the copies never meet), accepts iff u < min(1,
    pi'/pi) -- for u just below and just above it -- and then leaves
    exactly the flipped configuration, which stays in the set.  Every
    move is its own inverse, so this is detailed balance, and pi P = pi
    for the sweep that composes them."""
    q, configs, corners = _worldline_lattice(lattice)
    ops = kernels.get_ops(kernel)
    n_cfg, n_cells = configs.shape
    offset = np.arange(n_cfg, dtype=np.intp) * n_cells
    members = {c.tobytes() for c in configs}
    outcomes = set()

    def check(run, ratio, target, proposed):
        for u in _forced_uniforms(ratio):
            flat = configs.copy().reshape(-1)
            with np.errstate(divide="ignore"):  # log u of u = 0
                n_acc = run(flat, u)
            accepted = proposed & (u < ratio)
            after = flat.reshape(n_cfg, n_cells)
            np.testing.assert_array_equal(after, np.where(accepted[:, None], target, configs))
            assert n_acc == np.count_nonzero(accepted)
            assert all(t.tobytes() in members for t in target[accepted])
            outcomes.update(accepted.tolist())

    n_moves = 0
    for weights, gather, flip in q._corner_tables:
        for m in range(flip.shape[1]):
            if isinstance(gather, tuple):  # each move's gather, once per configuration
                *idx, xmask = (g[:, m, None] for g in gather)
                one = (*(i + offset for i in idx), np.repeat(xmask, n_cfg, axis=1))
            else:
                one = gather[m] + offset[:, None]
            cells = flip[:, m]
            ratio, target = _metropolis_ratio(q, configs, corners, cells)
            check(lambda flat, u: ops["strip_corner"](
                flat, weights, one, cells[:, None] + offset, u),
                ratio, target, np.ones(n_cfg, dtype=bool))
            n_moves += 1
    assert n_moves == q._n_corner_moves
    T = q.n_slices
    for thr, sites, nbr in q._column_tables:
        for c, site in enumerate(sites):
            column = configs[:, site * T:(site + 1) * T]
            straight = (column == column[:, :1]).all(axis=1)
            ratio, target = _metropolis_ratio(
                q, configs, corners, np.arange(site * T, (site + 1) * T))
            rows = offset // T + site
            one = nbr[c] + offset[:, None]  # this column's neighbors, per configuration
            check(lambda flat, u: ops["strip_column"](
                flat.reshape(-1, T), thr, rows, one, straight, np.log(u)),
                ratio, target, straight)
            n_moves += 1
    assert outcomes == {True, False}


# ======================================================================
# the block driver's color update: exhaustive small-lattice stationarity
# ======================================================================

#: Lattices small enough to enumerate (8 sites, 256 configurations) that
#: still have every awkward feature: 2-wide axes (both neighbours are the
#: same site), an inert extent-1 axis, couplings of both signs.
SMALL_LATTICES = {
    "2x1x4": dict(lx=2, ly=1, lt=4, kx=0.3, ky=0.0, kt=0.7),
    "2x2x2": dict(lx=2, ly=2, lt=2, kx=0.3, ky=-0.45, kt=0.7),
}
COLOR_KERNELS = [
    "scalar", "numpy", pytest.param("numba", marks=pytest.mark.needs_numba),
]


def _all_configurations(shape) -> np.ndarray:
    n = int(np.prod(shape))
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    return (2 * bits - 1).astype(np.int8).reshape((-1, *shape))


def _reduced_energies(configs, couplings) -> np.ndarray:
    """-sum over sites and axes of K s(r) s(r + e): the exponent the
    sampler's weight exp(-E) is defined by, periodic images and all."""
    e = np.zeros(len(configs))
    for axis, k in enumerate(couplings, start=1):
        e -= k * np.sum(
            configs * np.roll(configs, -1, axis=axis), axis=(1, 2, 3),
            dtype=np.int64,
        )
    return e


def _flip_costs(configs, couplings) -> np.ndarray:
    """dE[c, site]: brute-force E(config with site flipped) - E(config)."""
    energies = _reduced_energies(configs, couplings)
    costs = np.empty(configs.shape)
    for site in np.ndindex(*configs.shape[1:]):
        flipped = configs.copy()
        flipped[(slice(None), *site)] *= -1
        costs[(slice(None), *site)] = (
            _reduced_energies(flipped, couplings) - energies
        )
    return costs


def _probe_color_updates(comm, cfg, configs, costs, wanted):
    """Rank program: for every configuration, color and probe, load the
    configuration, run the sweep's one refresh and update with
    ``log_u`` a hair below -dE on the ``wanted`` sites and a hair above
    it elsewhere, and report which sites flipped."""
    st = _BlockState(comm, cfg)
    flipped = np.empty((len(configs), 2, len(wanted), *st.spins.shape), bool)
    for i, (config, cost) in enumerate(zip(configs, costs)):
        for color, mask in enumerate(st.color_masks):
            for j, want in enumerate(wanted):
                st.g[...] = 3  # no ghost survives from the previous probe
                st.spins[...] = config
                st._exchange(0)  # the refresh, before color 0
                n_acc = st._update_color(
                    mask, -cost + np.where(want, -EPS, EPS))
                flipped[i, color, j] = st.spins != config
                assert n_acc == np.count_nonzero(flipped[i, color, j])
    return flipped, np.array(st.color_masks)


@pytest.mark.parametrize("kernel", COLOR_KERNELS)
@pytest.mark.parametrize("lattice", sorted(SMALL_LATTICES))
def test_block_color_flip_set_is_the_metropolis_rule(lattice, kernel):
    """A site flips iff it has the stage's color and log u < -dE."""
    geometry = SMALL_LATTICES[lattice]
    cfg = IsingBlockConfig(n_sweeps=1, mode=kernel, **geometry)
    shape = (cfg.lx, cfg.ly, cfg.lt)
    configs = _all_configurations(shape)
    costs = _flip_costs(configs, (cfg.kx, cfg.ky, cfg.kt))
    rng = np.random.default_rng(5)
    wanted = [np.ones(shape, bool), np.zeros(shape, bool),
              rng.random(shape) < 0.5]
    flipped, color_masks = run_spmd(
        _probe_color_updates, 1, machine=IDEAL,
        args=(cfg, configs, costs, wanted),
    ).values[0]
    assert (color_masks[0] ^ color_masks[1]).all()
    for color in (0, 1):
        for j, want in enumerate(wanted):
            np.testing.assert_array_equal(
                flipped[:, color, j],
                np.broadcast_to(want & color_masks[color], flipped[:, 0, 0].shape),
                err_msg=f"color {color} probe {j}",
            )


@pytest.mark.parametrize("lattice", sorted(SMALL_LATTICES))
def test_block_color_transition_matrix_is_stationary(lattice):
    """pi P = pi for each color stage and for the sweep, where P flips
    every site of the color independently with the probability the rule
    above implies, P(log u < -dE) = min(1, exp(-dE)) -- which is only a
    Markov kernel for pi if same-color sites never see each other, the
    property the 2-wide and extent-1 axes put under stress."""
    g = SMALL_LATTICES[lattice]
    shape = (g["lx"], g["ly"], g["lt"])
    couplings = (g["kx"], g["ky"], g["kt"])
    configs = _all_configurations(shape)
    n = len(configs)
    flat = configs.reshape(n, -1)
    index = {row.tobytes(): i for i, row in enumerate(flat)}
    p_flip = np.minimum(1.0, np.exp(-_flip_costs(configs, couplings))).reshape(n, -1)
    parity = np.indices(shape).sum(axis=0).reshape(-1) % 2
    pi = np.exp(-_reduced_energies(configs, couplings))
    pi /= pi.sum()
    stages = []
    for color in (0, 1):
        sites = np.flatnonzero(parity == color)
        P = np.zeros((n, n))
        for i in range(n):
            for subset in range(2 ** len(sites)):
                chosen = (subset >> np.arange(len(sites))) & 1 == 1
                target = flat[i].copy()
                target[sites[chosen]] *= -1
                P[i, index[target.tobytes()]] = np.prod(
                    np.where(chosen, p_flip[i, sites], 1.0 - p_flip[i, sites]))
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(pi @ P, pi, atol=1e-12)
        stages.append(P)
    np.testing.assert_allclose(pi @ stages[0] @ stages[1], pi, atol=1e-12)
