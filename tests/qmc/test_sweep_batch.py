"""A batch of R world-line chains is R solo runs, bit for bit.

``chain_program`` with R streams holds R chains on one rank and sweeps
them as one disconnected lattice (:class:`repro.qmc.worldline.SweepBatch`,
one kernel call per row).  Chain ``i`` must be the one-chain run at
``seeds[i]``: its series, final spins, move counters and per-sweep
acceptance histogram array-equal, on on-grid and off-grid chains and
square lattices, on every kernel backend (``numba`` through the
stand-in of ``tests/qmc/fake_numba.py``).
"""

import numpy as np
import pytest

from repro.kernels import get_ops
from repro.models.hamiltonians import XXZChainModel, XXZSquareModel
from repro.obs.metrics import MetricsFanout, MetricsRegistry
from repro.qmc.chains import ChainConfig, _chain_values, chain_program
from repro.qmc.worldline import SweepBatch, WorldlineChainQmc
from repro.qmc.worldline2d import WorldlineSquareQmc
from repro.util.rng import SeedSequenceFactory
from repro.vmp.machines import IDEAL
from repro.vmp.scheduler import run_spmd

from tests.qmc.fake_numba import numba_backend  # noqa: F401 (autouse: needs_numba)


def _chain(n_sites, n_slices, periodic=True):
    def build(stream, _mode):
        model = XXZChainModel(n_sites=n_sites, periodic=periodic)
        return WorldlineChainQmc(model, 1.3, n_slices, stream=stream)
    return build


def _square(lx, ly, n_slices):
    def build(stream, _mode):
        return WorldlineSquareQmc(XXZSquareModel(lx=lx, ly=ly), 0.8, n_slices,
                                  stream=stream)
    return build


#: name -> (ChainConfig.build, series, the batched kernel the geometry runs)
GEOMETRIES = {
    "chain-8x8": (_chain(8, 8), ("energy", "magnetization", "szsz"), "numpy"),
    "chain-64x16": (_chain(64, 16), ("energy", "m_stag_sq"), "numpy"),
    "open-6x8": (_chain(6, 8, periodic=False), ("energy", "szsz"), "scalar"),
    "chain-10x8": (_chain(10, 8), ("energy", "magnetization"), "scalar"),
    "odd-M-8x10": (_chain(8, 10), ("energy", "magnetization"), "scalar"),
    "square-4x4x8": (_square(4, 4, 8), ("energy", "m_stag_sq"), "numpy"),
    "square-2x4x8": (_square(2, 4, 8), ("energy", "magnetization"), "scalar"),
    "square-6x6x8": (_square(6, 6, 8), ("energy", "m_stag_sq"), "scalar"),
}

CASES = [
    pytest.param(name, kernel, id=f"{name}-{kernel}", marks=marks)
    for name, (_b, _s, native) in GEOMETRIES.items()
    for kernel, marks in ((native, ()), ("numba", pytest.mark.needs_numba))
]


def _run(build, series, kernel, seeds):
    """One rank of ``chain_program`` with a chain at each of ``seeds``:
    each chain's value and metric summary."""
    cfg = ChainConfig(build=build, series=series, health_series=(), n_sweeps=10,
                      n_thermalize=3, measure_every=2, mode=kernel,
                      streams=tuple((seed, 0) for seed in seeds))
    registries = [MetricsRegistry() for _ in seeds]
    res = run_spmd(chain_program, 1, machine=IDEAL, args=(cfg,),
                   metrics=MetricsFanout([(r, 0) for r in registries]))
    return (_chain_values(res.values[0], series),
            [r.summary()[0] for r in registries])


@pytest.mark.parametrize("n_chains", [1, 2, 3, 8])
@pytest.mark.parametrize("geometry, kernel", CASES)
def test_each_chain_of_a_batch_is_its_solo_run(geometry, kernel, n_chains):
    build, series, _native = GEOMETRIES[geometry]
    seeds = tuple(100 + 7 * i for i in range(n_chains))
    batch, batch_metrics = _run(build, series, kernel, seeds)
    for i, seed in enumerate(seeds):
        (solo,), (solo_metrics,) = _run(build, series, kernel, (seed,))
        assert batch[i]["kernel"] == solo["kernel"] == kernel
        for name in series:
            np.testing.assert_array_equal(batch[i][name], solo[name], err_msg=name)
        np.testing.assert_array_equal(batch[i]["spins"], solo["spins"])
        assert batch[i]["n_attempted"] == solo["n_attempted"] > 0
        assert batch[i]["n_accepted"] == solo["n_accepted"]
        for key in ("sweep.count", "sweep.attempted", "sweep.accepted",
                    "sweep.acceptance"):
            assert batch_metrics[i][key] == solo_metrics[key], key
        assert batch_metrics[i].keys() == solo_metrics.keys()


def test_a_batch_rebinds_spins_to_views_and_keeps_invariants():
    samplers = [_chain(8, 8)(SeedSequenceFactory(s).rank_stream(0), "auto")
                for s in (1, 2, 3)]
    batch = SweepBatch(samplers)
    kernel, sweep = batch.resolve_sweep("auto")
    assert kernel == "numpy"
    for _ in range(20):
        sweep()
    for q in samplers:
        assert q.spins.shape == (8, 8) and q.spins.flags.c_contiguous
        assert np.shares_memory(q.spins, samplers[0].spins) == (q is samplers[0])
        q.check_invariants()
        assert q.n_attempted > 0


def test_samplers_of_different_geometries_are_no_batch():
    a = _chain(8, 8)(SeedSequenceFactory(1).rank_stream(0), "auto")
    b = _chain(8, 12)(SeedSequenceFactory(2).rank_stream(0), "auto")
    with pytest.raises(ValueError, match="one geometry"):
        SweepBatch([a, b])


def test_numpy_off_its_grid_is_a_value_error_for_a_batch_too():
    samplers = [_chain(10, 8)(SeedSequenceFactory(s).rank_stream(0), "auto")
                for s in (1, 2)]
    with pytest.raises(ValueError, match="per-move"):
        SweepBatch(samplers).resolve_sweep("numpy")
    assert SweepBatch(samplers).resolve_sweep("auto")[0] == "scalar"


@pytest.mark.parametrize("kernel", ["numpy", "scalar"])
def test_row_ops_count_per_chain_for_a_2d_draw(kernel):
    """``(R, n)`` uniforms: per-chain counts; 1-D: the total, an int."""
    ops = get_ops(kernel)
    samplers = [_chain(8, 8)(SeedSequenceFactory(s).rank_stream(0), "auto")
                for s in (1, 2)]
    spins, corner_rows, _ = SweepBatch(samplers)._stacked
    weights, gather, flip = corner_rows[0]
    n = flip.shape[1] // 2
    u = np.full((2, n), 1e-9)  # every legal move accepts
    counts = ops["strip_corner"](spins.reshape(-1).copy(), weights, gather, flip, u)
    assert isinstance(counts, np.ndarray) and counts.shape == (2,)
    total = ops["strip_corner"](spins.reshape(-1).copy(), weights, gather, flip,
                                u.reshape(-1))
    assert type(total) is int and total == counts.sum() > 0
