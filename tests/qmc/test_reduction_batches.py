"""Reductions run in batches; the cadence never shows in a result.

The decomposed run loop (``repro.qmc.chains._run_decomposed``) lets
measurement rows pend and reduces them together when a global value is
due: at ``REDUCE_BATCH`` rows, before a checkpoint write, before a
health check and at the end of the run.  The sum is element-wise and in
one rank order whatever the batch, so every series must come out
bit-identical however the run was observed, saved or interrupted --
while the message totals show that the cadences really differed.
"""

import numpy as np
import pytest

from repro.obs.health import HealthRules
from repro.qmc.chains import REDUCE_BATCH
from repro.qmc.parallel import (
    IsingBlockConfig,
    WorldlineStripConfig,
    ising_block_program,
    worldline_strip_program,
)
from repro.run.checkpoint import CheckpointConfig
from repro.vmp.machines import PARAGON
from repro.vmp.scheduler import run_spmd
from tests.conftest import BLOCK_KEYS, STRIP_KEYS

N_SWEEPS = REDUCE_BATCH + 12  # every sweep measured: crosses the cap once
KILLED_AT = 7

DRIVERS = {
    "strip": (
        worldline_strip_program,
        lambda n_sweeps: WorldlineStripConfig(
            n_sites=16, jz=1.0, jxy=0.8, beta=0.9, n_slices=8,
            n_sweeps=n_sweeps, n_thermalize=2, sweep_seed=7),
        STRIP_KEYS,
    ),
    "block": (
        ising_block_program,
        lambda n_sweeps: IsingBlockConfig(
            lx=8, ly=8, lt=4, kx=0.25, ky=0.25, kt=0.4,
            n_sweeps=n_sweeps, n_thermalize=2, sweep_seed=7),
        BLOCK_KEYS,
    ),
}
BACKENDS = ["thread", pytest.param("mp", marks=pytest.mark.tier1_fault)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_flush_cadence_never_shows_in_a_result(driver, p, backend, tmp_path):
    program, make_cfg, keys = DRIVERS[driver]

    def run(n_sweeps=N_SWEEPS, checkpoint=None, health=None):
        return run_spmd(
            program, p, machine=PARAGON, seed=3, backend=backend,
            args=(make_cfg(n_sweeps), checkpoint, health),
        )

    plain = run()  # reduces at the cap and at the end
    run(KILLED_AT, CheckpointConfig(tmp_path / "killed", every=KILLED_AT))
    variants = {
        "health every 3": run(health=HealthRules(interval=3)),
        "health every sweep": run(health=HealthRules(interval=1)),
        "checkpoint every 4": run(
            checkpoint=CheckpointConfig(tmp_path / "saved", every=4)),
        f"resumed at {KILLED_AT}": run(
            checkpoint=CheckpointConfig(tmp_path / "killed", resume=True)),
    }
    for name, got in variants.items():
        for rank, (want, have) in enumerate(zip(plain.values, got.values)):
            for key in keys:
                assert have[key].dtype == want[key].dtype, (name, rank, key)
                np.testing.assert_array_equal(
                    have[key], want[key], err_msg=f"{name}: rank {rank} {key}")
            assert len(have[keys[0]]) == N_SWEEPS
    # ... and the cadences did differ.  An allreduce is a reduce and a
    # bcast tree of P - 1 messages each; the halo traffic is the same in
    # every variant, and reducing at every sweep is the known count.
    per_allreduce = 2 * (p - 1)
    halo = (
        variants["health every sweep"].total_messages - N_SWEEPS * per_allreduce
    )

    def n_allreduces(res):
        return (res.total_messages - halo) / per_allreduce

    assert n_allreduces(plain) == 2
    assert n_allreduces(variants["health every 3"]) == N_SWEEPS // 3 + 1
    assert n_allreduces(variants["checkpoint every 4"]) == N_SWEEPS // 4
