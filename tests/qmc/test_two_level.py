"""Two-level ensemble x domain parallelism: R replicas in each strip rank.

An ``R x P`` run is the strip driver on ``P`` ranks with
``WorldlineStripConfig.replicas = R``: every rank holds its strip of all
R chains, stacked, and sweeps them with one kernel call a stage; one
halo message a neighbour carries every chain's ghosts.  The anchor of
this suite: each replica's trajectory depends neither on the rank
count nor on the chains stacked beside it -- replica ``r`` of an
``R x P`` run is bit-identical to replica ``r`` of the ``R x 1`` run,
and replica 0 to the flat strip run at the seed -- on the thread, mp
and (where available) mpi backends.  On top of the anchor:

* pooling: a run's series are the replicas' exact mean, computed in
  the rank with no communication;
* the configuration surfaces: ``replicas`` validation and the
  ``ParallelLayout.replicas`` / Simulation facade wiring (P ranks, not
  R P).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.qmc.parallel import WorldlineStripConfig, worldline_strip_program
from repro.vmp.mpi_backend import mpi_available, mpiexec_available
from tests.conftest import (
    STRIP_KEYS,
    assert_bit_identical,
    run_driver_matrix,
)

HAVE_REAL_MPI = mpi_available() and mpiexec_available()
BACKENDS = [
    "thread",
    pytest.param("mp", marks=pytest.mark.tier1_fault),
] + ([pytest.param("mpi", marks=pytest.mark.tier1_fault)] if HAVE_REAL_MPI else [])


def _base(n_sweeps=6, **kw):
    return WorldlineStripConfig(
        n_sites=16, jz=1.0, jxy=0.8, beta=0.9, n_slices=8,
        n_sweeps=n_sweeps, n_thermalize=2, **kw,
    )


def _replica(value: dict, r: int) -> dict:
    """Replica ``r``'s share of a stacked rank value."""
    return {
        "energy": value["energy"][:, r],
        "magnetization": value["magnetization"][:, r],
        "owned_spins": value["owned_spins"][r],
        "n_attempted": value["n_attempted"][r],
        "n_accepted": value["n_accepted"][r],
    }


class _Values:
    def __init__(self, values):
        self.values = values


# ======================================================================
# the anchor: a replica's trajectory is its own
# ======================================================================


@pytest.mark.parametrize("backend", BACKENDS)
class TestComposedBitIdentity:
    def test_composed_matches_flat_strip_runs(self, backend):
        cfg = _base(replicas=2)
        composed = run_driver_matrix(
            worldline_strip_program, 2, cfg, seed=42, backend=backend
        )
        one_rank = run_driver_matrix(worldline_strip_program, 1, cfg, seed=42)
        flat = run_driver_matrix(worldline_strip_program, 2, _base(), seed=42)
        assert_bit_identical(
            flat, _Values([_replica(v, 0) for v in composed.values]), STRIP_KEYS
        )
        for r in range(cfg.replicas):
            got = np.concatenate(
                [v["owned_spins"][r] for v in composed.values])
            np.testing.assert_array_equal(got, one_rank.values[0]["owned_spins"][r])
            for key in ("energy", "magnetization"):
                np.testing.assert_allclose(
                    composed.values[0][key][:, r], one_rank.values[0][key][:, r],
                    rtol=0, atol=1e-12)
            assert sum(v["n_accepted"][r] for v in composed.values) == \
                one_rank.values[0]["n_accepted"][r]

    def test_a_replica_is_independent_of_the_chains_beside_it(self, backend):
        two = run_driver_matrix(worldline_strip_program, 2, _base(replicas=2),
                                seed=42, backend=backend)
        three = run_driver_matrix(worldline_strip_program, 2, _base(replicas=3),
                                  seed=42, backend=backend)
        for r in range(2):
            assert_bit_identical(
                _Values([_replica(v, r) for v in two.values]),
                _Values([_replica(v, r) for v in three.values]), STRIP_KEYS)

    def test_pooled_series_is_exact_ensemble_mean(self, backend):
        from repro.run.config import ParallelLayout, XXZRunConfig
        from repro.run.simulation import Simulation

        layout = ParallelLayout("strip", 2, "Paragon", replicas=2, backend=backend)
        cfg = XXZRunConfig(n_sites=16, beta=0.9, jz=1.0, jxy=0.8, n_slices=8,
                           n_sweeps=6, n_thermalize=2, seed=12345, layout=layout)
        result = Simulation(cfg).run()
        stacked = run_driver_matrix(
            worldline_strip_program, 2, _base(replicas=2), seed=42
        ).values[0]
        for name in ("energy", "magnetization"):
            want = (stacked[name][:, 0] + stacked[name][:, 1]) / 2
            np.testing.assert_array_equal(result.series[name], want)


@pytest.mark.tier1_fault
def test_thread_and_mp_agree_on_composed_accounting():
    cfg = _base(replicas=2)
    ref = run_driver_matrix(worldline_strip_program, 2, cfg, seed=42, backend="thread")
    got = run_driver_matrix(worldline_strip_program, 2, cfg, seed=42, backend="mp")
    assert_bit_identical(ref, got, STRIP_KEYS, accounting=True)


# ======================================================================
# configuration surfaces
# ======================================================================


class TestTwoLevelConfig:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(replicas=0), "at least one replica"),
    ])
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            _base(**kwargs)


class TestLayoutWiring:
    def test_layout_validates_replicas(self):
        from repro.run.config import ParallelLayout

        assert ParallelLayout("strip", 2, replicas=4).replicas == 4
        with pytest.raises(ValueError, match="replicas must be >= 1"):
            ParallelLayout("strip", 2, replicas=0)
        with pytest.raises(ValueError, match="'strip' strategy only"):
            ParallelLayout("serial", 1, replicas=2)

    def test_simulation_facade_runs_composed_layout(self):
        from repro.run.config import ParallelLayout, XXZRunConfig
        from repro.run.simulation import Simulation

        layout = ParallelLayout("strip", 2, "Paragon", replicas=2)
        cfg = XXZRunConfig(
            n_sites=16, beta=0.9, jz=1.0, jxy=0.8, n_slices=8,
            n_sweeps=6, n_thermalize=2, layout=layout,
        )
        result = Simulation(cfg).run()
        assert result.runtime["replicas"] == 2
        # P ranks, not R P; no ensemble level left to report.
        assert result.runtime["report"]["n_ranks"] == 2
        assert "comm_fraction_by_level" not in result.runtime
        assert result.comm_fraction > 0.0
        # Both replicas' moves count: twice a flat run's work.
        flat = Simulation(replace(cfg, layout=ParallelLayout("strip", 2, "Paragon"))).run()
        assert result.runtime["n_attempted"] > 1.5 * flat.runtime["n_attempted"]
        assert result.runtime["n_sweeps"] == 2 * flat.runtime["n_sweeps"] == 2 * 8
