"""The strip driver's rank plan and its one-gather sweep.

A strip rank's static geometry -- frame, halo walk and phases, stage
tables, pricing tables and the sweep's uniform index -- is one
read-only :class:`~repro.qmc.parallel._StripPlan` per rank, built once
per process; a launcher whose ranks share or inherit its memory builds
its run's plans before the ranks start.
These tests hold the plan to the per-stage index algebra it replaced
(one gather of every stage's uniforms, one log of the column stages'),
to being read-only, and to being built where the launcher runs.
"""

import dataclasses
import os
import pickle
from types import MappingProxyType

import numpy as np
import pytest

from repro.qmc import parallel
from repro.qmc.parallel import (
    WL_STAGES,
    WorldlineStripConfig,
    _StripState,
    rank_plans,
    worldline_strip_program,
)
from repro.run.config import ParallelLayout, XXZRunConfig
from repro.run.simulation import _XXZ, Simulation
from repro.vmp import run_spmd
from repro.vmp.machines import IDEAL


def _cfg(n_sites, n_slices=8, **kw):
    return WorldlineStripConfig(
        n_sites=n_sites, jz=1.0, jxy=0.8, beta=0.9, n_slices=n_slices,
        n_sweeps=1, **kw,
    )


def _first_sweep_inputs(comm, cfg):
    """Rank program: one sweep with the draw and both ops recorded --
    the sweep's uniform block and, per stage, what its op was handed
    (a corner stage's uniforms, a column stage's logs); plus the
    stage tables."""
    st = _StripState(comm, cfg)
    drawn, seen = [], []
    draw, ops = st._sweep_uniforms, dict(st._kops)

    def recording_draw():
        u = draw()
        drawn.append(u[0].copy())  # the one chain's row
        return u

    def corner(flat, weights, env, flip, uu):
        seen.append(uu.copy())
        return ops["strip_corner"](flat, weights, env, flip, uu)

    def column(loc, thr, lc, nbr, straight, log_uu):
        seen.append(log_uu.copy())
        return ops["strip_column"](loc, thr, lc, nbr, straight, log_uu)

    st._sweep_uniforms = recording_draw
    st._kops = {**ops, "strip_corner": corner, "strip_column": column}
    st.sweep()  # Neel start: every column straight, so both column ops run
    return drawn[0], seen, st._plan.stages


#: Wide pieces (one refresh a sweep), P = 1 (local wraps between the
#: column stages), thin pieces (depth capped, several refreshes) and the
#: 8-site ring on two ranks, whose deep ghosts wrap around it.
GEOMETRIES = [(64, 1), (64, 2), (48, 3), (64, 4), (24, 3), (16, 4), (8, 2)]


@pytest.mark.parametrize("n_sites,p", GEOMETRIES)
def test_each_stage_reads_the_uniforms_its_own_gather_would(n_sites, p):
    """Stage ``s``'s view of the one gather equals ``u[uflat]`` (a
    corner color) of its slice ``u`` of the sweep's block, and its view
    of the one log equals ``log(max(u[uc], 1e-300))`` (a column
    parity), shape included."""
    T = 8
    cfg = _cfg(n_sites, T)
    sizes = [n_sites * T // 8 if kind == "corner" else n_sites // 2
             for kind, _ in WL_STAGES]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    for drawn, seen, stages in run_spmd(
            _first_sweep_inputs, p, IDEAL, seed=1, args=(cfg,)).values:
        assert drawn.size == offsets[-1]
        assert len(seen) == len(WL_STAGES)
        for s, (stage, got) in enumerate(zip(stages, seen)):
            u = drawn[offsets[s] : offsets[s + 1]]
            if stage["kind"] == "corner":
                want = u[stage["uflat"]]
            else:
                want = np.log(np.maximum(u[stage["uc"]], 1e-300))
            assert got.shape == want.shape, s
            np.testing.assert_array_equal(got, want, err_msg=str(s))


def _arrays(obj):
    """Every ndarray reachable from a plan field."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (dict, MappingProxyType)):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _arrays(value)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


@pytest.mark.parametrize("n_sites,p", GEOMETRIES)
def test_plans_are_read_only(n_sites, p):
    for plan in rank_plans(_cfg(n_sites), p):
        arrays = list(_arrays(plan))
        assert len(arrays) > 20
        writable = [a.shape for a in arrays if a.flags.writeable]
        assert writable == []
        for mapping in (plan.frame.phases, *plan.stages):
            assert isinstance(mapping, MappingProxyType)


def test_a_plan_is_built_once_per_process_and_shared():
    cfg = _cfg(32)
    plans = rank_plans(cfg, 2)
    # the schedule and the seed are no part of a plan's key
    again = rank_plans(dataclasses.replace(cfg, n_sweeps=9, sweep_seed=5), 2)
    assert all(a is b for a, b in zip(again, plans))

    def rank_plan(comm, cfg):
        return _StripState(comm, cfg)._plan

    got = run_spmd(rank_plan, 2, IDEAL, args=(cfg,)).values
    assert all(a is b for a, b in zip(got, plans))


def test_the_memo_holds_one_runs_plans():
    """A plan is looked up by its rank's own couplings, and a new key
    drops the last run's plans."""
    cfg = _cfg(32)
    hot = dataclasses.replace(cfg, beta=2 * cfg.beta)
    plans, hot_plans = rank_plans(cfg, 2), rank_plans(hot, 2)
    assert parallel._run_plans.cache_info().currsize == 1
    for plan, hot_plan in zip(plans, hot_plans):
        assert plan is not hot_plan
        assert not np.array_equal(plan.table.weights, hot_plan.table.weights)

    def rank_weights(comm, cfg):
        return _StripState(comm, cfg)._plan.table.weights

    for c, want in ((cfg, plans), (hot, hot_plans)):
        for got, plan in zip(run_spmd(rank_weights, 2, IDEAL, args=(c,)).values, want):
            np.testing.assert_array_equal(got, plan.table.weights)


def _record_builds(monkeypatch, log, builder="_build_strip_plan"):
    """Empty the memo and patch the plan ``builder`` to append the
    building pid to ``log`` (a file, so forked ranks report too: they
    inherit the patch)."""
    parallel._run_plans.cache_clear()
    build = getattr(parallel, builder)

    def recording(*key):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return build(*key)

    monkeypatch.setattr(parallel, builder, recording)
    return lambda: [int(x) for x in log.read_text().split()] if log.exists() else []


def _xxz(backend, **kw):
    layout = ParallelLayout(strategy="strip", n_ranks=2, backend=backend, **kw)
    return XXZRunConfig(n_sites=16, beta=1.0, n_slices=8, n_sweeps=4, seed=3,
                        layout=layout)


@pytest.mark.tier1_fault
def test_a_simulation_builds_every_plan_before_the_ranks_fork(tmp_path, monkeypatch):
    """The runner builds both plans in the launching process; the forked
    ranks' lookups hit the memo they inherit."""
    builds = _record_builds(monkeypatch, tmp_path / "builds")
    result = Simulation(_xxz("mp")).run()
    assert result.runtime["n_attempted"] > 0
    assert builds() == [os.getpid()] * 2


@pytest.mark.tier1_fault
def test_a_direct_mp_run_builds_its_plans_in_the_ranks(tmp_path, monkeypatch):
    """A caller that builds no plans first still runs: each rank looks
    its own plan up, built in its own process."""
    builds = _record_builds(monkeypatch, tmp_path / "builds")
    res = run_spmd(worldline_strip_program, 2, IDEAL, seed=3,
                   args=(dataclasses.replace(_cfg(16), n_sweeps=3),), backend="mp")
    assert [len(v["energy"]) for v in res.values] == [3, 3]
    pids = builds()
    assert len(pids) == 2 and os.getpid() not in pids


@pytest.mark.parametrize("replicas", [1, 2])
def test_an_mpi_layout_pickles_its_args_and_builds_no_plan(tmp_path, monkeypatch,
                                                           replicas):
    """``mpiexec`` launches pickle the program's args, and an mpi rank
    is a process of its own: the runner builds no plans for it."""
    builds = _record_builds(monkeypatch, tmp_path / "builds")
    cfg = _xxz("mpi", replicas=replicas)
    program, args, n_ranks = _XXZ.decomposed(cfg, "numpy", None, None)
    assert n_ranks == 2  # replicas stack in the ranks
    assert pickle.loads(pickle.dumps(args))[0] == args[0]
    assert builds() == []
