"""Shared fixtures and test-speed knobs.

Statistical tests use short runs with wide (4-5 sigma + systematic
allowance) acceptance windows: they are correctness tripwires, not
precision measurements -- the benchmarks do the precision runs.
"""

from __future__ import annotations

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--no-fault",
        action="store_true",
        default=False,
        help="skip tier1_fault tests (fault injection spawns real "
        "processes and exercises wall-clock timeouts)",
    )


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--no-fault"):
        return
    skip = pytest.mark.skip(reason="--no-fault given")
    for item in items:
        if "tier1_fault" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for test-local noise."""
    return np.random.default_rng(20260705)


class ForcedStream:
    """Stream stub returning a constant uniform (0 = always accept
    legal proposals, 1 = always reject)."""

    def __init__(self, value: float):
        self.value = value

    def uniform(self, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


def assert_within(value: float, reference: float, error: float,
                  n_sigma: float = 4.0, atol: float = 0.0, label: str = "") -> None:
    """Assert a stochastic estimate agrees with a reference."""
    window = n_sigma * error + atol
    assert abs(value - reference) <= window, (
        f"{label or 'estimate'} {value:.6g} vs reference {reference:.6g}: "
        f"|diff| {abs(value - reference):.3g} > window {window:.3g} "
        f"({n_sigma} sigma x {error:.3g} + {atol:.3g})"
    )


# ----------------------------------------------------------------------
# shared driver bit-identity matrix
# ----------------------------------------------------------------------
# The overlap, backend-agreement, and kernel-registry suites all assert
# the same invariant -- two runs of an SPMD sweep driver produce the
# bit-identical trajectory -- over different (P, mode, backend) axes.
# The run-and-compare loop lives here once; each suite parameterizes it
# with its own configs, seeds, and backend markers.

#: Per-rank result keys the strip world-line driver must reproduce bitwise.
STRIP_KEYS = ("energy", "magnetization", "owned_spins")
#: Per-rank result keys of the block Ising/TFIM driver.
BLOCK_KEYS = ("magnetization", "bond_sums", "block")


def run_driver_matrix(program, n_ranks, cfg, *, seed, machine=None,
                      backend="thread", checkpoint=None):
    """Run one cell of a driver bit-identity matrix.

    A thin, keyword-explicit wrapper over ``run_spmd`` so every suite
    launches driver runs identically: ``args`` is always ``(cfg,
    checkpoint)`` -- the signature shared by the strip and block
    drivers -- and the machine defaults to PARAGON, whose nonzero
    latency/bandwidth exercises the modeled-time agreement too.
    """
    from repro.vmp.machines import PARAGON
    from repro.vmp.scheduler import run_spmd

    return run_spmd(
        program,
        n_ranks,
        machine=machine if machine is not None else PARAGON,
        seed=seed,
        args=(cfg, checkpoint),
        backend=backend,
    )


def assert_bit_identical(ref, got, keys, *, accounting=False):
    """Assert two SpmdResults carry the bit-identical trajectory.

    Compares the given per-rank result ``keys`` array-exactly plus the
    attempt/accept counters.  With ``accounting=True`` also asserts the
    modeled makespan and message totals agree exactly -- the
    cross-backend agreement contract (same trajectory AND same modeled
    cost on every transport).
    """
    assert len(got.values) == len(ref.values)
    for rank, (r, g) in enumerate(zip(ref.values, got.values)):
        for key in keys:
            np.testing.assert_array_equal(
                g[key], r[key], err_msg=f"rank {rank} key {key!r}"
            )
        assert g["n_attempted"] == r["n_attempted"], f"rank {rank}"
        assert g["n_accepted"] == r["n_accepted"], f"rank {rank}"
    if accounting:
        assert got.elapsed_model_time == ref.elapsed_model_time
        assert got.total_messages == ref.total_messages
        assert got.total_bytes == ref.total_bytes


# ----------------------------------------------------------------------
# the chain program on the 2-D world-line sampler
# ----------------------------------------------------------------------

#: Series :func:`square_chain_config` chains measure.
SQUARE_CHAIN_KEYS = ("energy", "m_stag_sq", "spins")


def _square_sampler(lx, ly, beta, n_slices, stream, mode):
    from repro.models.hamiltonians import XXZSquareModel
    from repro.qmc.worldline2d import WorldlineSquareQmc

    return WorldlineSquareQmc(XXZSquareModel(lx, ly), beta, n_slices, stream=stream)


def hand_run(q, series, n_sweeps, n_thermalize=0, measure_every=1):
    """The run schedule written out by hand -- thermalize, then sweep and
    measure every ``measure_every``-th sweep: the independent oracle of
    ``repro.qmc.chains.run_chain``.  One array per ``series`` name."""
    for _ in range(n_thermalize):
        q.sweep()
    rows = []
    for s in range(n_sweeps):
        q.sweep()
        if s % measure_every == 0:
            rows.append([getattr(q, q.ESTIMATORS[name])() for name in series])
    return {name: np.array(column) for name, column in zip(series, zip(*rows))}


def square_chain_config(lx=4, ly=4, beta=0.5, n_slices=8, **schedule):
    """A ``ChainConfig`` of Heisenberg chains on the ``lx x ly`` lattice:
    what the replica layout of an ``xxz2d`` run hands ``chain_program``,
    built on the samplers' public API."""
    import functools

    from repro.qmc.chains import ChainConfig

    return ChainConfig(
        build=functools.partial(_square_sampler, lx, ly, beta, n_slices),
        series=SQUARE_CHAIN_KEYS[:2],
        health_series=("energy",),
        **schedule,
    )


def square_corner_moves(q, flip):
    """``(bond, t0)`` of the segment moves behind the ``(8, n)`` flip
    cells of a ``WorldlineSquareQmc`` corner-table row: the windows of
    sites i then j over slices t0+1 .. t0+4."""
    i, first = np.divmod(flip[0], q.n_slices)
    t0 = (first - 1) % q.n_slices
    bond = q.bond_of[i, t0 % q.N_COLORS]
    window = (t0 + np.arange(1, 5)[:, None]) % q.n_slices
    for site, cells in zip(q.bond_sites[bond].T, (flip[:4], flip[4:])):
        assert np.array_equal(cells, site * q.n_slices + window)
    return bond, t0
