"""``run_chain``: every serial sampler runs on the drivers' one run loop.

Each sampler is a move set plus its ``ESTIMATORS``; the schedule is
``chain_program``'s.  Held here against the schedule written out by hand
(``tests.conftest.hand_run``) on all five samplers, vector series
included, and against the schedule errors of the drivers' configs.
"""

import numpy as np
import pytest

from repro.models.hamiltonians import XXZChainModel, XXZSquareModel
from repro.qmc.classical_ising import AnisotropicIsing
from repro.qmc.cluster import SwendsenWangIsing
from repro.qmc.parallel import run_chain
from repro.qmc.tfim import TfimQmc
from repro.qmc.worldline import WorldlineChainQmc
from repro.qmc.worldline2d import WorldlineSquareQmc

from tests.conftest import hand_run

SAMPLERS = {
    "chain": lambda seed: WorldlineChainQmc(XXZChainModel(n_sites=8), 1.0, 8, seed=seed),
    "square": lambda seed: WorldlineSquareQmc(XXZSquareModel(4, 4), 0.5, 8, seed=seed),
    "tfim": lambda seed: TfimQmc((6,), 1.0, 1.0, 1.0, 8, seed=seed),
    "ising": lambda seed: AnisotropicIsing((6, 4), (0.4, 0.3), seed=seed, hot_start=True),
    "swendsen_wang": lambda seed: SwendsenWangIsing(
        (6, 4), (0.4, 0.3), seed=seed, hot_start=True),
}


@pytest.mark.parametrize("n_thermalize", [0, 5])
@pytest.mark.parametrize("measure_every", [1, 3])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_run_chain_is_the_hand_written_schedule(sampler, measure_every, n_thermalize):
    a, b = SAMPLERS[sampler](7), SAMPLERS[sampler](7)
    series = tuple(a.ESTIMATORS)
    out = run_chain(a, series, 12, n_thermalize=n_thermalize,
                    measure_every=measure_every)
    ref = hand_run(b, series, 12, n_thermalize, measure_every)
    n_meas = len(range(0, 12, measure_every))
    for name in series:
        np.testing.assert_array_equal(out[name], ref[name], err_msg=name)
        assert len(out[name]) == n_meas
    np.testing.assert_array_equal(out["spins"], b.spins)
    np.testing.assert_array_equal(a.spins, b.spins)  # advanced in place
    assert out["n_attempted"] == a.n_attempted == b.n_attempted > 0
    assert out["n_accepted"] == a.n_accepted == b.n_accepted


@pytest.mark.parametrize("kw, field", [
    ({"measure_every": 0}, "measure_every"),  # run(): ZeroDivisionError
    ({"n_thermalize": -1}, "n_thermalize"),  # run(): accepted silently
    ({"n_sweeps": 0}, "n_sweeps"),
])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_bad_schedule_is_a_value_error_naming_the_field(sampler, kw, field):
    q = SAMPLERS[sampler](1)
    with pytest.raises(ValueError, match=field):
        run_chain(q, ("magnetization",), **{"n_sweeps": 4, **kw})
    assert q.n_attempted == 0  # rejected before any sweep


def test_unknown_series_and_foreign_kernel_are_value_errors():
    q = SAMPLERS["tfim"](1)
    with pytest.raises(ValueError, match="no estimator 'szsz'"):
        run_chain(q, ("szsz",), 2)
    with pytest.raises(ValueError, match="kernel='scalar'"):
        run_chain(q, ("energy",), 2, mode="scalar")
    assert q.n_attempted == 0
    scalar = TfimQmc((6,), 1.0, 1.0, 1.0, 8, kernel="scalar")
    assert run_chain(scalar, ("energy",), 2, mode="scalar")["kernel"] == "scalar"
