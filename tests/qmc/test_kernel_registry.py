"""The pluggable kernel registry: selection, errors, bit-identity.

Every registered backend must produce the *bit-identical* trajectory:
RNG draws stay in the callers, so a backend can only differ by the
order it evaluates the same accept inequalities -- and the per-move
loops (``scalar`` interpreted, ``numba`` compiled) replicate numpy's
reduction order exactly.  This suite pins:

* registry semantics: priority-ordered ``auto`` selection, the
  ``vectorized`` alias, unknown-name errors, fake-backend registration;
* the structured :class:`KernelUnavailableError` (backend/reason
  attributes, actionable ``--kernel numpy`` fallback in the message);
* serial samplers: ``mode="numpy"`` is bit-identical to the legacy
  ``mode="vectorized"`` path, and the numba backend is bit-identical
  to numpy on the chain, square-lattice and classical-Ising samplers;
* SPMD drivers: strip/block trajectories agree between the numpy,
  scalar and numba kernels across P in {1, 2, 4}, overlap on/off, and
  the thread/mp backends, and a checkpoint written under one kernel
  resumes under another bit for bit (the kernel is absent from the
  resume fingerprint, like the overlap knob);
* what ``scalar`` means: the per-move loops with the numpy trajectory
  on every layout, and on the world-line geometries off numpy's grid
  (open, odd and 2 x N / 6 x 6 lattices) the same rows as ``numba``,
  bit for bit;
* telemetry: per-sweep kernel time lands in a counter tagged by the
  backend name.

``scalar`` legs run natively everywhere.  The numba legs never skip:
where numba is not installed ``tests/qmc/fake_numba.py`` makes the
*name* selectable and ``repro.kernels.loops`` supplies the same loops
under its identity ``njit``; CI's numba job installs the real JIT and
runs this file as its bit-identity gate.
"""

import sys

import numpy as np
import pytest

from repro import kernels
from repro.kernels import KernelBackend, KernelUnavailableError
from repro.models.hamiltonians import XXZChainModel, XXZSquareModel
from repro.obs import MetricsRegistry
from repro.qmc.classical_ising import AnisotropicIsing
from repro.qmc.chains import chain_program
from repro.qmc.parallel import (
    IsingBlockConfig,
    WorldlineStripConfig,
    ising_block_program,
    worldline_strip_program,
)
from repro.qmc.worldline import WorldlineChainQmc
from repro.qmc.worldline2d import WorldlineSquareQmc
from repro.run.checkpoint import CheckpointConfig
from repro.run.config import (
    ParallelLayout,
    TfimRunConfig,
    XXZ2DRunConfig,
    XXZRunConfig,
)
from repro.run.simulation import Simulation
from repro.vmp.machines import PARAGON
from repro.vmp.scheduler import run_spmd
from tests.conftest import (
    BLOCK_KEYS,
    STRIP_KEYS,
    assert_bit_identical,
    run_driver_matrix,
    square_chain_config,
)
from tests.qmc.fake_numba import HAVE_NUMBA, numba_backend  # noqa: F401

#: Runs the test with the ``numba`` backend loadable: the real JIT
#: where installed, else the same loops interpreted (the imported
#: autouse fixture acts on this mark).
needs_numba = pytest.mark.needs_numba


def on_both_loop_backends(cases: dict):
    """Parameter sets ``(*case, backend)``: every case on ``numba`` under
    its historical id, and natively on ``scalar``."""
    return [
        *(pytest.param(*case, "numba", marks=needs_numba, id=name)
          for name, case in cases.items()),
        *(pytest.param(*case, "scalar", id=f"{name}-scalar")
          for name, case in cases.items()),
    ]


#: Kernel pairs whose trajectories must agree: the alias pair, and
#: numpy against the other batched backend.
PAIRS = [
    ("vectorized", "numpy"),
    pytest.param("numpy", "numba", marks=needs_numba),
]


# ======================================================================
# registry semantics
# ======================================================================


class TestRegistrySemantics:
    def test_numpy_always_registered_and_available(self):
        assert "numpy" in kernels.known_backends()
        assert kernels.kernel_available("numpy")
        assert "numpy" in kernels.available_backends()

    def test_known_backends_priority_ordered(self):
        names = kernels.known_backends()
        # numba (20) outranks numpy (10) outranks scalar (0); nothing
        # else is registered.
        assert names == ("numba", "numpy", "scalar")

    def test_auto_resolves_to_an_available_backend(self):
        assert kernels.resolve_kernel("auto") in kernels.available_backends()

    def test_auto_never_resolves_to_scalar(self):
        """The per-move reference runs only when asked for by name: it
        is always available and ranks below every batched backend."""
        assert kernels.kernel_available("scalar")
        assert kernels.known_backends()[-1] == "scalar"
        assert kernels.resolve_kernel("auto") != "scalar"
        assert kernels.resolve_kernel("scalar") == "scalar"

    def test_vectorized_alias_resolves_to_numpy(self):
        assert kernels.resolve_kernel("vectorized") == "numpy"

    def test_scalar_passes_through_resolve_sweep_mode(self):
        # An alias of the one resolver (benchmarks/e2e calls it).
        assert kernels.resolve_sweep_mode is kernels.resolve_kernel
        assert kernels.resolve_sweep_mode("scalar") == "scalar"

    def test_unknown_name_raises_value_error(self):
        """One vocabulary check, one message, behind every surface."""
        for check in (kernels.check_kernel_name, kernels.resolve_kernel,
                      kernels.get_ops):
            with pytest.raises(ValueError, match="unknown kernel 'simd'.*"
                               "'auto', 'vectorized'.*numba, numpy, scalar"):
                check("simd")
        for name in ("auto", "vectorized", *kernels.known_backends()):
            kernels.check_kernel_name(name)  # names only: numba may be absent

    def test_ops_table_complete(self):
        ops = kernels.get_ops("numpy")
        assert set(kernels.OP_NAMES) <= set(ops)
        assert all(callable(ops[n]) for n in kernels.OP_NAMES)

    @pytest.mark.parametrize(
        "backend",
        ["numpy", "scalar", pytest.param("numba", marks=needs_numba)])
    def test_one_plaquette_flip_pair_and_nothing_else(self, backend):
        """Six ops: every world-line caller shares ``strip_*``."""
        assert set(kernels.OP_NAMES) == {
            "wl1d_corner", "wl1d_column", "ising_color",
            "strip_corner", "strip_column", "block_color",
        }
        assert set(kernels.get_ops(backend)) == set(kernels.OP_NAMES)

    def test_numba_stand_in_stays_inside_its_tests(self):
        """The fixture of ``tests/qmc/fake_numba.py`` leaves nothing
        behind: outside it this host resolves what is installed, and no
        ``numba`` module is ever faked."""
        assert kernels.kernel_available("numba") == HAVE_NUMBA
        if not HAVE_NUMBA:
            assert kernels.resolve_kernel("auto") == "numpy"
            assert "numba" not in sys.modules

    def test_backend_version_reporting(self):
        assert kernels.backend_version("numpy") == np.__version__
        if not HAVE_NUMBA:
            assert kernels.backend_version("numba") is None

    def test_registered_fake_backend_wins_auto(self):
        fake = KernelBackend(
            name="fake-accel",
            priority=99,
            probe=lambda: True,
            loader=lambda: dict(kernels.get_ops("numpy")),
        )
        kernels.register_backend(fake)
        try:
            assert kernels.resolve_kernel("auto") == "fake-accel"
            assert set(kernels.OP_NAMES) <= set(kernels.get_ops("fake-accel"))
        finally:
            kernels.unregister_backend("fake-accel")
        assert kernels.resolve_kernel("auto") in ("numpy", "numba")

    def test_incomplete_op_table_rejected(self):
        fake = KernelBackend(
            name="fake-broken",
            priority=-1,
            probe=lambda: True,
            loader=lambda: {"wl1d_corner": lambda *a: 0},
        )
        kernels.register_backend(fake)
        try:
            with pytest.raises(KernelUnavailableError, match="missing"):
                kernels.get_ops("fake-broken")
        finally:
            kernels.unregister_backend("fake-broken")


class TestStructuredError:
    def test_attributes_and_message(self):
        err = KernelUnavailableError("numba", "not importable")
        assert isinstance(err, RuntimeError)
        assert err.backend == "numba"
        assert err.reason == "not importable"
        assert "--kernel numpy" in str(err)

    def test_unavailable_backend_raises_structured_error(self):
        fake = KernelBackend(
            name="fake-gpu",
            priority=-5,
            probe=lambda: False,
            loader=lambda: {},
            requires="fakepkg",
        )
        kernels.register_backend(fake)
        try:
            with pytest.raises(KernelUnavailableError) as exc:
                kernels.resolve_kernel("fake-gpu")
            assert exc.value.backend == "fake-gpu"
            assert "fakepkg" in str(exc.value)
            assert "--kernel numpy" in str(exc.value)
        finally:
            kernels.unregister_backend("fake-gpu")

    def test_cupy_unavailable_is_structured_and_actionable(self):
        # The GPU stub is gone: "cupy" is an unknown name like any
        # other, and the error lists what is registered.
        with pytest.raises(ValueError, match="unknown kernel 'cupy'") as exc:
            kernels.resolve_kernel("cupy")
        assert not isinstance(exc.value, KernelUnavailableError)
        assert "numba, numpy" in str(exc.value)

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed here")
    def test_numba_unavailable_is_structured_and_actionable(self):
        with pytest.raises(KernelUnavailableError) as exc:
            kernels.resolve_kernel("numba")
        assert exc.value.backend == "numba"
        assert "--kernel numpy" in str(exc.value)

    def test_probe_exceptions_mean_unavailable_not_crash(self):
        def bad_probe():
            raise ImportError("broken install")

        fake = KernelBackend(
            name="fake-bad", priority=-5, probe=bad_probe, loader=lambda: {}
        )
        kernels.register_backend(fake)
        try:
            assert not kernels.kernel_available("fake-bad")
        finally:
            kernels.unregister_backend("fake-bad")


# ======================================================================
# configuration surfaces
# ======================================================================


class TestConfigSurfaces:
    def test_layout_accepts_registry_names(self):
        for name in ("auto", "scalar", "vectorized", "numpy", "numba"):
            assert ParallelLayout(kernel=name).kernel == name

    def test_layout_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel 'bogus'"):
            ParallelLayout(kernel="bogus")

    def test_strip_config_accepts_backend_modes(self):
        cfg = WorldlineStripConfig(n_sites=8, jz=1, jxy=1, beta=1, n_slices=8,
                                   n_sweeps=1, mode="numpy")
        assert cfg.mode == "numpy"
        with pytest.raises(ValueError, match="unknown kernel 'simd'"):
            WorldlineStripConfig(n_sites=8, jz=1, jxy=1, beta=1, n_slices=8,
                                 n_sweeps=1, mode="simd")

    def test_block_config_accepts_backend_modes(self):
        cfg = IsingBlockConfig(lx=4, ly=4, lt=4, kx=0.2, ky=0.2, kt=0.3,
                               n_sweeps=1, mode="numpy")
        assert cfg.mode == "numpy"

    def test_replica_config_accepts_backend_modes(self):
        cfg = square_chain_config(n_sweeps=1, mode="numpy")
        assert cfg.mode == "numpy"
        with pytest.raises(ValueError, match="unknown kernel 'simd'"):
            square_chain_config(n_sweeps=1, mode="simd")

    def test_divisibility_error_names_scalar_fallback(self):
        model = XXZSquareModel(2, 4)
        q = WorldlineSquareQmc(model, beta=1.0, n_slices=8, seed=0)
        assert not q.can_vectorize
        with pytest.raises(ValueError, match="scalar"):
            q.sweep("numpy")

    def test_cli_kernel_cupy_exits_2_with_message(self, capsys):
        # No cupy backend is registered: the CLI rejects the name like
        # any unknown backend and names the ones it knows.
        from repro.cli import main

        rc = main(["run-xxz", "--sites", "8", "--beta", "1.0",
                   "--sweeps", "4", "--thermalize", "1", "--kernel", "cupy"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown kernel 'cupy'" in err and "numba, numpy" in err

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed here")
    def test_cli_kernel_numba_absent_exits_2_with_message(self, capsys):
        from repro.cli import main

        rc = main(["run-xxz", "--sites", "8", "--beta", "1.0",
                   "--sweeps", "4", "--thermalize", "1", "--kernel", "numba"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numba" in err and "--kernel numpy" in err


_RUN = dict(beta=1.0, n_slices=8, n_sweeps=12, n_thermalize=2, seed=1)
_RUN_KINDS = {
    "xxz": lambda layout: XXZRunConfig(n_sites=8, layout=layout, **_RUN),
    "xxz2d": lambda layout: XXZ2DRunConfig(lx=4, ly=4, layout=layout, **_RUN),
    "tfim": lambda layout: TfimRunConfig(spatial_shape=(8,), layout=layout, **_RUN),
}


@pytest.mark.parametrize("kind,strategy,same_trajectory", [
    ("xxz", "strip", True),
    ("tfim", "block", True),
    ("tfim", "replica", True),
    ("tfim", "serial", True),
    ("xxz", "serial", True),
    ("xxz", "replica", True),
    ("xxz2d", "serial", True),
])
def test_scalar_is_the_per_move_loops_or_the_raster_reference(
        kind, strategy, same_trajectory):
    """What ``--kernel scalar`` promises, on every layout: the per-move
    loops on numpy's trajectory.  (Serial and replica world-line runs
    once answered it with the samplers' raster sweep, a trajectory of
    its own; that sweep is now only the test oracle of
    ``tests/qmc/raster_reference.py``.)  The run records the kernel it
    ran."""
    scalar, batched = (
        Simulation(_RUN_KINDS[kind](ParallelLayout(
            strategy=strategy, n_ranks=1 if strategy == "serial" else 2,
            kernel=kernel))).run()
        for kernel in ("scalar", "numpy"))
    assert scalar.parameters["kernel"] == scalar.runtime["kernel"] == "scalar"
    assert batched.runtime["kernel"] == "numpy"
    assert same_trajectory == all(
        np.array_equal(scalar.series[name], batched.series[name])
        for name in batched.series)


# ======================================================================
# serial bit-identity
# ======================================================================


def _chain(seed=3):
    return WorldlineChainQmc(XXZChainModel(8), beta=0.9, n_slices=8, seed=seed)


def _square(seed=5):
    return WorldlineSquareQmc(XXZSquareModel(4, 4), beta=0.8, n_slices=8,
                              seed=seed)


@pytest.mark.parametrize("ref_mode,got_mode", PAIRS)
class TestSerialBitIdentity:
    def test_chain_trajectories_identical(self, ref_mode, got_mode):
        a, b = _chain(), _chain()
        for _ in range(6):
            a.sweep(mode=ref_mode)
            b.sweep(mode=got_mode)
        np.testing.assert_array_equal(a.spins, b.spins)
        assert a.n_attempted == b.n_attempted
        assert a.n_accepted == b.n_accepted
        b.check_invariants()

    def test_square_trajectories_identical(self, ref_mode, got_mode):
        a, b = _square(), _square()
        for _ in range(6):
            a.sweep(mode=ref_mode)
            b.sweep(mode=got_mode)
        np.testing.assert_array_equal(a.spins, b.spins)
        assert a.n_attempted == b.n_attempted
        assert a.n_accepted == b.n_accepted
        b.check_invariants()

    def test_ising_trajectories_identical(self, ref_mode, got_mode):
        kern = {"vectorized": "numpy"}.get  # the Ising sampler has no alias
        a = AnisotropicIsing((6, 6, 4), (0.3, 0.3, 0.4), seed=7, hot_start=True,
                             kernel=kern(ref_mode, ref_mode))
        b = AnisotropicIsing((6, 6, 4), (0.3, 0.3, 0.4), seed=7, hot_start=True,
                             kernel=kern(got_mode, got_mode))
        for _ in range(8):
            a.sweep()
            b.sweep()
        np.testing.assert_array_equal(a.spins, b.spins)
        assert a.n_accepted == b.n_accepted


class TestNumbaSerialShapes:
    """Geometry corners the fixed-signature loop kernels must cover."""

    @needs_numba
    def test_ising_2d_lifted_to_3d(self):
        a, *loops = (
            AnisotropicIsing((8, 8), (0.35, 0.35), seed=11, hot_start=True,
                             kernel=kernel)
            for kernel in ("numpy", "numba", "scalar"))
        for b in loops:
            assert b.kernel != "numpy"
            for _ in range(8):
                b.sweep()
        for _ in range(8):
            a.sweep()
        for b in loops:
            np.testing.assert_array_equal(a.spins, b.spins)
            assert a.n_accepted == b.n_accepted

    @needs_numba
    def test_square_larger_lattice(self):
        a = WorldlineSquareQmc(XXZSquareModel(8, 4), beta=1.1, n_slices=12,
                               seed=13)
        b = WorldlineSquareQmc(XXZSquareModel(8, 4), beta=1.1, n_slices=12,
                               seed=13)
        for _ in range(4):
            a.sweep(mode="numpy")
            b.sweep(mode="numba")
        np.testing.assert_array_equal(a.spins, b.spins)
        assert a.n_accepted == b.n_accepted
        b.check_invariants()

    @pytest.mark.parametrize("make,k,per_move_mask,loops", on_both_loop_backends({
        "square-4x4x8": (
            lambda: WorldlineSquareQmc(XXZSquareModel(4, 4), 0.8, 8, seed=2), 8, True),
        "square-8x4x12-odd-M": (
            lambda: WorldlineSquareQmc(XXZSquareModel(8, 4), 1.1, 12, seed=2), 8, True),
        "chain-8x8": (
            lambda: WorldlineChainQmc(XXZChainModel(8), 0.9, 8, seed=2), 4, False),
    }))
    def test_strip_ops_agree_row_by_row_on_both_mask_shapes(
            self, make, k, per_move_mask, loops):
        """``strip_corner`` takes packed K = 4 rows (the shared mask
        folded into the product tables) or unpacked K rows with a
        (K, n) mask: every table row of both samplers, the batched op
        against the per-move one."""
        q = make()
        for _ in range(5):
            q.sweep(mode="numpy")
        rng = np.random.default_rng(17)
        np_ops, nb_ops = kernels.get_ops("numpy"), kernels.get_ops(loops)
        n_acc = 0
        for weights, gather, flip in q._corner_tables:
            n = flip.shape[1]
            if per_move_mask:
                *corners, xmask = gather
                assert corners[0].shape == (k, n)
                assert xmask.shape == (k, n)
            else:
                assert gather.shape == (n, 4 * k)
            u = rng.uniform(size=n)
            a, b = q.spins.copy(), q.spins.copy()
            got = [ops["strip_corner"](s.reshape(-1), weights, gather, flip, u)
                   for ops, s in ((np_ops, a), (nb_ops, b))]
            assert got[0] == got[1]
            np.testing.assert_array_equal(a, b)
            n_acc += got[0]
        assert n_acc > 0
        start = np.ascontiguousarray(  # straight columns for the column op
            np.repeat(q.spins[:, :1], q.n_slices, axis=1))
        n_acc = 0
        for thr, sites, nbr in q._column_tables:
            assert nbr.shape == (sites.size, q.n_slices)
            assert thr.shape == (q.n_slices + 1,)
            log_u = np.log(rng.uniform(size=sites.size))
            straight = (start[sites] == start[sites, :1]).all(axis=1)
            a, b = start.copy(), start.copy()
            got = [ops["strip_column"](s, thr, sites, nbr, straight, log_u)
                   for ops, s in ((np_ops, a), (nb_ops, b))]
            assert got[0] == got[1] and straight.all()
            np.testing.assert_array_equal(a, b)
            # a bent column's slot is ignored, whatever its uniform
            bent = np.zeros(sites.size, dtype=bool)
            for ops in (np_ops, nb_ops):
                assert ops["strip_column"](
                    a, thr, sites, nbr, bent, np.full(sites.size, -np.inf)
                ) == 0
            np.testing.assert_array_equal(a, b)
            n_acc += got[0]
        assert n_acc > 0


#: Geometries off the batched op's grid, which only the per-move loops run.
OFF_GRID = {
    "chain-6-open": lambda: WorldlineChainQmc(
        XXZChainModel(6, jz=0.8, periodic=False), 1.0, 8, seed=4),
    "chain-10x8": lambda: WorldlineChainQmc(XXZChainModel(10), 1.0, 8, seed=4),
    "chain-8x10-odd-M": lambda: WorldlineChainQmc(XXZChainModel(8), 1.0, 10, seed=4),
    "square-2x2x8": lambda: WorldlineSquareQmc(XXZSquareModel(2, 2), 0.6, 8, seed=4),
    "square-2x4x8": lambda: WorldlineSquareQmc(XXZSquareModel(2, 4), 0.75, 8, seed=4),
    "square-6x6x8": lambda: WorldlineSquareQmc(XXZSquareModel(6, 6), 0.75, 8, seed=4),
}


@needs_numba
@pytest.mark.parametrize("name", sorted(OFF_GRID))
def test_off_grid_numba_is_the_scalar_trajectory(name):
    """Off numpy's grid the row classes are not conflict-free; both
    per-move backends take the moves in row order and agree bit for bit
    (the compiled loops against the interpreted ones where numba is
    installed), while numpy refuses before any sweep."""
    make = OFF_GRID[name]
    a, b = make(), make()
    assert a.resolve_sweep("auto")[0] == kernels.resolve_kernel("auto")
    with pytest.raises(ValueError, match="vectorized sweep needs"):
        a.resolve_sweep("numpy")
    for _ in range(6):
        a.sweep("scalar")
        b.sweep("numba")
    np.testing.assert_array_equal(a.spins, b.spins)
    assert (a.n_attempted, a.n_accepted) == (b.n_attempted, b.n_accepted)
    assert 0 < a.n_accepted < a.n_attempted
    b.check_invariants()


# ======================================================================
# SPMD drivers
# ======================================================================


def _strip_cfg(mode, overlap=False, n_sweeps=5):
    return WorldlineStripConfig(
        n_sites=16, jz=1.0, jxy=0.8, beta=0.9, n_slices=8,
        n_sweeps=n_sweeps, n_thermalize=1, mode=mode, overlap=overlap,
    )


def _block_cfg(mode, overlap=False, n_sweeps=5):
    return IsingBlockConfig(
        lx=8, ly=8, lt=4, kx=0.25, ky=0.25, kt=0.4,
        n_sweeps=n_sweeps, n_thermalize=1, mode=mode, overlap=overlap,
    )


def _run_strip(p, mode, overlap=False, backend="thread", ckpt=None, n_sweeps=5):
    return run_driver_matrix(
        worldline_strip_program, p, _strip_cfg(mode, overlap, n_sweeps),
        seed=21, backend=backend, checkpoint=ckpt,
    )


def _run_block(p, mode, overlap=False, backend="thread", ckpt=None, n_sweeps=5):
    return run_driver_matrix(
        ising_block_program, p, _block_cfg(mode, overlap, n_sweeps),
        seed=21, backend=backend, checkpoint=ckpt,
    )


#: overlap off / on under the historical numba ids, and on scalar.
LOOPS_BY_OVERLAP = on_both_loop_backends({"False": (False,), "True": (True,)})


@pytest.mark.parametrize("p", [1, 2, 4])
class TestDriverKernelAgreement:
    def test_strip_numpy_matches_vectorized_alias(self, p):
        assert_bit_identical(_run_strip(p, "vectorized"), _run_strip(p, "numpy"),
                     STRIP_KEYS)

    def test_block_numpy_matches_vectorized_alias(self, p):
        assert_bit_identical(_run_block(p, "vectorized"), _run_block(p, "numpy"),
                     BLOCK_KEYS)

    @pytest.mark.parametrize("overlap,loops", LOOPS_BY_OVERLAP)
    def test_strip_numba_matches_numpy(self, p, overlap, loops):
        assert_bit_identical(_run_strip(p, "numpy", overlap),
                     _run_strip(p, loops, overlap), STRIP_KEYS)

    @pytest.mark.parametrize("overlap,loops", LOOPS_BY_OVERLAP)
    def test_block_numba_matches_numpy(self, p, overlap, loops):
        assert_bit_identical(_run_block(p, "numpy", overlap),
                     _run_block(p, loops, overlap), BLOCK_KEYS)


def _whole_lattice(values) -> np.ndarray:
    """The ranks' owned pieces put back together."""
    if "owned_spins" in values[0]:
        return np.concatenate([v["owned_spins"] for v in values])
    pieces = np.array([v["piece"] for v in values])
    whole = np.zeros(
        (pieces[:, 1].max(), pieces[:, 3].max(), values[0]["block"].shape[2]),
        dtype=np.int8)
    for v in values:
        x0, x1, y0, y1 = v["piece"]
        whole[x0:x1, y0:y1] = v["block"]
    return whole


@pytest.mark.parametrize("run,keys", [
    (_run_strip, STRIP_KEYS[:2]), (_run_block, BLOCK_KEYS[:2]),
], ids=["strip", "block"])
def test_two_thread_ranks_on_the_interpreted_loops_equal_one(run, keys):
    """Two ranks of the thread backend call the same interpreted
    ``scalar`` ops concurrently; the loops keep no state between calls,
    so the configuration is the one-rank run's, split."""
    one, two = run(1, "scalar"), run(2, "scalar")
    assert {v["kernel"] for v in two.values} == {"scalar"}
    np.testing.assert_array_equal(
        _whole_lattice(two.values), _whole_lattice(one.values))
    for key in keys:  # partial sums associate differently across P
        np.testing.assert_allclose(
            two.values[0][key], one.values[0][key], rtol=1e-12, err_msg=key)


@needs_numba
@pytest.mark.tier1_fault
class TestNumbaAcrossProcessBackends:
    def test_strip_numba_mp_matches_numpy_thread(self):
        assert_bit_identical(_run_strip(2, "numpy", backend="thread"),
                     _run_strip(2, "numba", backend="mp"), STRIP_KEYS)

    def test_block_numba_mp_matches_numpy_thread(self):
        assert_bit_identical(_run_block(2, "numpy", backend="thread"),
                     _run_block(2, "numba", backend="mp"), BLOCK_KEYS)


class TestResumeWithKernelToggled:
    """The kernel is not part of the resume fingerprint (like overlap)."""

    @pytest.mark.parametrize("save_mode,resume_mode", [
        pytest.param("numpy", "numba", marks=needs_numba),
        pytest.param("numba", "numpy", marks=needs_numba),
        ("numpy", "scalar"), ("scalar", "numpy"),
    ])
    def test_strip_resume_toggles_kernel(self, tmp_path, save_mode,
                                         resume_mode):
        ref = _run_strip(2, "numpy", n_sweeps=6).values[0]
        d = tmp_path / "ck"
        _run_strip(2, save_mode, ckpt=CheckpointConfig(d, every=3), n_sweeps=3)
        resumed = _run_strip(
            2, resume_mode, ckpt=CheckpointConfig(d, resume=True), n_sweeps=6
        ).values[0]
        for k in STRIP_KEYS:
            np.testing.assert_array_equal(resumed[k], ref[k], err_msg=k)

    @needs_numba
    def test_block_resume_toggles_kernel(self, tmp_path):
        ref = _run_block(2, "numpy", n_sweeps=6).values[0]
        d = tmp_path / "ck"
        _run_block(2, "numpy", ckpt=CheckpointConfig(d, every=3), n_sweeps=3)
        for resume_mode in ("numba", "scalar"):
            resumed = _run_block(
                2, resume_mode, ckpt=CheckpointConfig(d, resume=True), n_sweeps=6
            ).values[0]
            for k in BLOCK_KEYS:
                np.testing.assert_array_equal(resumed[k], ref[k], err_msg=k)


# ======================================================================
# telemetry
# ======================================================================


class TestKernelTelemetry:
    def test_serial_sweep_time_tagged_by_backend(self):
        """A whole-lattice chain records under the kernel that ran: the
        2 x 4 lattice is off the batched kernels' grid, so ``auto``
        there is the scalar reference."""
        for lx, kernel in ((4, "numpy"), (2, "scalar")):
            reg = MetricsRegistry(interval=1)
            cfg = square_chain_config(
                lx=lx, n_sweeps=2, mode="numpy" if lx == 4 else "auto")
            res = run_spmd(chain_program, 1, seed=5, args=(cfg,), metrics=reg)
            assert res.values[0]["kernel"] == kernel
            summary = reg.summary()[0]
            assert summary[f"sweep.kernel_seconds.{kernel}"] > 0.0
            assert summary["sweep.count"] == 2

    def test_strip_driver_records_kernel_counter(self):
        reg = MetricsRegistry(interval=1)
        run_spmd(worldline_strip_program, 2, machine=PARAGON, seed=21,
                 args=(_strip_cfg("numpy"), None), metrics=reg)
        for rank in reg.ranks:
            assert reg.summary()[rank]["sweep.kernel_seconds.numpy"] > 0.0

    def test_block_driver_records_kernel_counter(self):
        reg = MetricsRegistry(interval=1)
        run_spmd(ising_block_program, 2, machine=PARAGON, seed=21,
                 args=(_block_cfg("numpy"), None), metrics=reg)
        for rank in reg.ranks:
            assert reg.summary()[rank]["sweep.kernel_seconds.numpy"] > 0.0
