"""The block driver's rank plan, built and looked up as the strip's is.

A block rank's static geometry -- the frame its halo walk derives, the
boxes each color updates, the uniform spans, the bonds it counts and the
overlapped schedule's share -- is one read-only
:class:`~repro.qmc.parallel._BlockPlan` per rank, in the one-run memo
the strip's plans share.  These tests hold it to being read-only, to
being built where the launcher runs (threads, forked mp ranks) and
nowhere for an mpi layout, and to sharing the memo with the strip.
"""

import os
import pickle
from types import MappingProxyType

import pytest

from repro.qmc import parallel
from repro.qmc.parallel import (
    IsingBlockConfig,
    _BlockState,
    ising_block_program,
    rank_plans,
)
from repro.run.config import ParallelLayout, TfimRunConfig
from repro.run.simulation import Simulation, _Tfim
from repro.vmp import run_spmd
from repro.vmp.machines import IDEAL
from tests.qmc import test_strip_plan as strip_tests


def _cfg(lx, ly, lt=4):
    return IsingBlockConfig(lx=lx, ly=ly, lt=lt, kx=0.25 if lx > 1 else 0.0,
                            ky=0.25 if ly > 1 else 0.0, kt=0.4, n_sweeps=3)


def _tfim(backend):
    layout = ParallelLayout(strategy="block", n_ranks=2, backend=backend)
    return TfimRunConfig(spatial_shape=(8, 8), beta=1.0, n_slices=8, n_sweeps=4,
                         seed=3, layout=layout)


#: A rank alone, 1 x 2 and 2 x 2 grids, a chain on either axis, and
#: pieces two planes thin.
GEOMETRIES = [((8, 8), 1), ((8, 8), 2), ((8, 8), 4), ((16, 1), 4), ((1, 8), 2), ((4, 4), 4)]


@pytest.mark.parametrize("shape,p", GEOMETRIES)
def test_plans_are_read_only(shape, p):
    for plan in rank_plans(_cfg(*shape), p):
        arrays = list(strip_tests._arrays(plan))
        assert len(arrays) > 10
        assert [a.shape for a in arrays if a.flags.writeable] == []
        assert isinstance(plan.frame.phases, MappingProxyType)
        assert plan.schedule == {"block_schedule": {"ghost_depth": 2, "refreshes": 1}}


def test_a_block_run_evicts_a_strip_runs_plans():
    """The memo holds one run's plans whatever its driver: a block
    run's lookups hit its own plans, and the strip's are rebuilt."""
    strip = rank_plans(strip_tests._cfg(32), 2)
    block = rank_plans(_cfg(8, 8), 2)
    assert parallel._run_plans.cache_info().currsize == 1

    def rank_plan(comm, cfg):
        return _BlockState(comm, cfg)._plan

    got = run_spmd(rank_plan, 2, IDEAL, args=(_cfg(8, 8),)).values
    assert all(a is b for a, b in zip(got, block))
    again = rank_plans(strip_tests._cfg(32), 2)
    assert all(a is not b for a, b in zip(again, strip))


@pytest.mark.tier1_fault
def test_a_simulation_builds_every_plan_before_the_ranks_fork(tmp_path, monkeypatch):
    """The runner builds both block plans in the launching process; the
    forked ranks' lookups hit the memo they inherit."""
    builds = strip_tests._record_builds(
        monkeypatch, tmp_path / "builds", "_build_block_plan")
    result = Simulation(_tfim("mp")).run()
    assert result.runtime["n_attempted"] > 0
    assert builds() == [os.getpid()] * 2


@pytest.mark.tier1_fault
def test_a_direct_mp_run_builds_its_plans_in_the_ranks(tmp_path, monkeypatch):
    builds = strip_tests._record_builds(
        monkeypatch, tmp_path / "builds", "_build_block_plan")
    res = run_spmd(ising_block_program, 2, IDEAL, seed=3, args=(_cfg(8, 8),),
                   backend="mp")
    assert [len(v["magnetization"]) for v in res.values] == [3, 3]
    pids = builds()
    assert len(pids) == 2 and os.getpid() not in pids


def test_an_mpi_layout_pickles_its_args_and_builds_no_plan(tmp_path, monkeypatch):
    builds = strip_tests._record_builds(
        monkeypatch, tmp_path / "builds", "_build_block_plan")
    program, args, n_ranks = _Tfim.decomposed(_tfim("mpi"), "numpy", None, None)
    assert program is ising_block_program and n_ranks == 2
    assert pickle.loads(pickle.dumps(args))[0] == args[0]
    assert builds() == []
