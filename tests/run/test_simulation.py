"""Tests for the Simulation facade (small, fast runs)."""

import numpy as np
import pytest

from repro.run.config import (
    ParallelLayout,
    TfimRunConfig,
    XXZ2DRunConfig,
    XXZRunConfig,
)
from repro.run.simulation import Simulation


class TestDispatch:
    def test_unknown_config_rejected(self):
        with pytest.raises(TypeError):
            Simulation(object())

    def test_kind_detection(self):
        assert Simulation(XXZRunConfig(n_sites=8, beta=1.0, n_sweeps=2)).kind == "xxz"
        assert (
            Simulation(TfimRunConfig(spatial_shape=(4,), beta=1.0, n_sweeps=2)).kind
            == "tfim"
        )


class TestXXZRuns:
    def test_serial_run_produces_estimates(self):
        cfg = XXZRunConfig(
            n_sites=8, beta=0.5, n_slices=8, n_sweeps=200, n_thermalize=20
        )
        result = Simulation(cfg).run()
        assert result.kind == "xxz"
        assert np.isfinite(result.estimate("energy").value)
        assert result.estimate("energy_per_site").value == pytest.approx(
            result.estimate("energy").value / 8
        )
        assert result.estimate("susceptibility").value > 0
        assert len(result.series["energy"]) == 200

    def test_replica_concatenates_chains(self):
        cfg = XXZRunConfig(
            n_sites=8, beta=0.5, n_slices=8, n_sweeps=50, n_thermalize=10,
            layout=ParallelLayout("replica", 3),
        )
        result = Simulation(cfg).run()
        assert len(result.series["energy"]) == 150

    def test_strip_run_reports_machine_time(self):
        cfg = XXZRunConfig(
            n_sites=8, beta=0.5, n_slices=8, n_sweeps=60, n_thermalize=10,
            layout=ParallelLayout("strip", 2, "Paragon"),
        )
        result = Simulation(cfg).run()
        assert result.model_time > 0
        assert 0 < result.comm_fraction < 1
        assert result.parameters["machine"] == "Paragon"

    @pytest.mark.parametrize("n_sites, active", [(16, False), (32, True)])
    def test_strip_run_records_overlap_fallback(self, n_sites, active):
        """Four columns per rank are too thin to overlap, eight are not;
        the runtime block says which schedule actually ran."""
        cfg = XXZRunConfig(
            n_sites=n_sites, beta=0.5, n_slices=8, n_sweeps=4,
            layout=ParallelLayout("strip", 4, "Paragon", overlap=True),
        )
        if active:
            result = Simulation(cfg).run()
        else:
            with pytest.warns(UserWarning, match="falling back to the lockstep"):
                result = Simulation(cfg).run()
        assert result.runtime["overlap"] == {"requested": True, "active": active}

    @staticmethod
    def _strip_energy(seed, n_ranks, replicas=1):
        cfg = XXZRunConfig(
            n_sites=8, beta=0.5, n_slices=8, n_sweeps=40, n_thermalize=5,
            seed=seed, layout=ParallelLayout("strip", n_ranks, replicas=replicas),
        )
        return Simulation(cfg).run().series["energy"]

    def test_strip_run_honours_seed(self):
        """Seeds give independent strip series; the rank count does not."""
        base = self._strip_energy(0, 1)
        assert not np.allclose(base, self._strip_energy(1, 1))
        # Same trajectory; the energy is an allreduce of per-rank partial
        # sums, so it agrees to rounding, not bitwise.
        np.testing.assert_allclose(base, self._strip_energy(0, 2), rtol=1e-12)

    def test_strip_replicas_follow_seed(self):
        """Replica r sweeps with seed + r; the pooled series is their mean."""
        pooled = self._strip_energy(3, 1, replicas=2)
        members = (self._strip_energy(3, 1) + self._strip_energy(4, 1)) / 2
        np.testing.assert_allclose(pooled, members, rtol=1e-12)


class TestTfimRuns:
    def test_serial_run(self):
        cfg = TfimRunConfig(
            spatial_shape=(8,), beta=1.0, gamma=1.0, n_slices=8,
            n_sweeps=200, n_thermalize=20,
        )
        result = Simulation(cfg).run()
        assert np.isfinite(result.estimate("energy").value)
        assert 0 < result.estimate("sigma_x").value < 1.2
        assert 0 <= result.estimate("abs_magnetization").value <= 1

    def test_block_parallel_chain_matches_serial_estimators(self):
        # Same seed feeds the shared-uniform stream: the block run's
        # estimator series must be statistically indistinguishable (here:
        # same model, same sweep counts; not bit-identical because the
        # serial TfimQmc path uses a 2-D classical lattice while the
        # block driver uses the inert-axis 3-D embedding).
        common = dict(
            spatial_shape=(8,), beta=1.0, gamma=1.0, n_slices=8,
            n_sweeps=400, n_thermalize=50, seed=5,
        )
        serial = Simulation(TfimRunConfig(**common)).run()
        block = Simulation(
            TfimRunConfig(**common, layout=ParallelLayout("block", 2, "CM-5"))
        ).run()
        es, eb = serial.estimate("energy"), block.estimate("energy")
        err = float(np.hypot(es.error, eb.error))
        assert abs(es.value - eb.value) < 5 * err + 0.02 * abs(es.value)
        assert block.model_time > 0

    def test_block_parallel_2d(self):
        cfg = TfimRunConfig(
            spatial_shape=(4, 4), beta=1.0, gamma=2.0, n_slices=8,
            n_sweeps=100, n_thermalize=20,
            layout=ParallelLayout("block", 4, "Paragon"),
        )
        result = Simulation(cfg).run()
        assert np.isfinite(result.estimate("energy").value)
        assert result.comm_fraction > 0
        assert result.runtime["overlap"] == {"requested": False, "active": False}


class TestXXZ2DRuns:
    def test_serial_run(self):
        cfg = XXZ2DRunConfig(lx=2, ly=4, beta=0.5, n_slices=8,
                             n_sweeps=60, n_thermalize=10)
        result = Simulation(cfg).run()
        assert result.kind == "xxz2d"
        assert np.isfinite(result.estimate("energy").value)
        assert result.estimate("staggered_structure_factor").value > 0
        assert result.estimate("susceptibility").value >= 0

    def test_replica_run_concatenates(self):
        cfg = XXZ2DRunConfig(
            lx=2, ly=4, beta=0.5, n_slices=8, n_sweeps=30, n_thermalize=5,
            layout=ParallelLayout("replica", 2),
        )
        result = Simulation(cfg).run()
        assert len(result.series["energy"]) == 60

    def test_block_layout_rejected(self):
        with pytest.raises(ValueError, match="serial and replica"):
            XXZ2DRunConfig(lx=4, ly=4, beta=1.0,
                           layout=ParallelLayout("block", 4))


_REPLICA_KINDS = {
    "xxz": lambda **kw: XXZRunConfig(
        n_sites=8, beta=0.5, n_slices=8, n_sweeps=50, n_thermalize=5, **kw),
    "xxz2d": lambda **kw: XXZ2DRunConfig(
        lx=2, ly=4, beta=0.5, n_slices=8, n_sweeps=50, n_thermalize=5, **kw),
    "tfim": lambda **kw: TfimRunConfig(
        spatial_shape=(8,), beta=1.0, n_slices=8, n_sweeps=50, n_thermalize=5, **kw),
}


@pytest.mark.parametrize("kind", sorted(_REPLICA_KINDS))
class TestReplicaStreams:
    """Chain i of a replica run draws from the i-th child stream of the
    root seed.  Seeding it ``seed + i`` made ``replica x 4`` at seeds 0
    and 1 share three of their four chains bit for bit."""

    @staticmethod
    def _chains(make, seed, n_chains=4):
        cfg = make(seed=seed, layout=ParallelLayout("replica", n_chains))
        energy = Simulation(cfg).run().series["energy"]
        return energy.reshape(n_chains, cfg.n_sweeps)

    def test_neighbouring_seeds_share_no_chain(self, kind):
        make = _REPLICA_KINDS[kind]
        at_0, at_1 = self._chains(make, 0), self._chains(make, 1)
        for a in at_0:
            for b in at_1:
                assert not np.array_equal(a, b)
        # Nor does a run repeat a chain within itself.
        assert len({a.tobytes() for a in at_0}) == len(at_0)

    def test_chain_zero_is_the_serial_run(self, kind):
        make = _REPLICA_KINDS[kind]
        serial = Simulation(make(seed=7)).run().series["energy"]
        np.testing.assert_array_equal(self._chains(make, 7)[0], serial)


# ======================================================================
# every layout is a rank program through the one run loop
# ======================================================================

#: kind -> (config factory, its decomposed strategy or None).
_LAYOUT_KINDS = {
    "xxz": (_REPLICA_KINDS["xxz"], "strip"),
    "xxz2d": (_REPLICA_KINDS["xxz2d"], None),
    "tfim": (_REPLICA_KINDS["tfim"], "block"),
}
_LAYOUTS = {
    "serial": lambda decomposed: ParallelLayout(),
    "replica2": lambda decomposed: ParallelLayout("replica", 2),
    "decomposed2": lambda decomposed: ParallelLayout(decomposed, 2, "Paragon"),
}
_SWEEP_METRICS = {"sweep.count", "sweep.attempted", "sweep.accepted",
                  "sweep.wall_seconds", "sweep.acceptance"}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("kind", sorted(_LAYOUT_KINDS))
def test_every_layout_records_the_same_sweep_metrics(kind, layout, tmp_path):
    from repro.obs.sinks import read_metrics_jsonl

    make, decomposed = _LAYOUT_KINDS[kind]
    if layout == "decomposed2" and decomposed is None:
        pytest.skip("xxz2d has no domain-decomposed driver")
    cfg = make(layout=_LAYOUTS[layout](decomposed),
               metrics_out=str(tmp_path / "metrics.jsonl"))
    result = Simulation(cfg).run()
    summaries = [row for row in read_metrics_jsonl(cfg.metrics_out)
                 if row.get("kind") == "summary"]
    assert [row["rank"] for row in summaries] == list(range(cfg.layout.n_ranks))
    for row in summaries:
        assert _SWEEP_METRICS <= set(row)
        assert f"sweep.kernel_seconds.{result.runtime['kernel']}" in row
        assert row["sweep.count"] == cfg.n_sweeps + cfg.n_thermalize
        assert row["sweep.attempted"] >= row["sweep.accepted"] > 0
    # A rank of a decomposed run attempts its share of the one lattice,
    # a chain all of its own.
    assert result.runtime["n_attempted"] == sum(
        row["sweep.attempted"] for row in summaries)


@pytest.mark.parametrize("n_chains", [1, 2])
@pytest.mark.parametrize("kind", sorted(_REPLICA_KINDS))
def test_chain_health_checks_run_in_the_loop(kind, n_chains, tmp_path):
    """An impossible acceptance band fires at the first check of every
    chain -- on the interval boundary, not once after the run -- and the
    event carries the chain's index as its rank."""
    import json

    from repro.obs.events import read_events_jsonl

    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"interval": 7, "acceptance_band": [0.999, 1.0]}))
    layout = ParallelLayout("replica", 2) if n_chains == 2 else ParallelLayout()
    cfg = _REPLICA_KINDS[kind](
        layout=layout, health=True, health_rules=str(rules),
        events_out=str(tmp_path / "events.jsonl"),
    )
    result = Simulation(cfg).run()
    events = read_events_jsonl(cfg.events_out)
    assert [(e["rule"], e["sweep"], e["rank"]) for e in events] == [
        ("acceptance", 7, chain) for chain in range(n_chains)
    ]
    assert all(e["t_model"] == 0.0 for e in events)  # chains model no time
    assert result.runtime["health"]["healthy"] is False


def test_replica_chains_run_on_the_ideal_machine():
    """No 3-node hypercube exists; ``layout.machine`` of a chain layout is
    recorded, not built."""
    cfg = _REPLICA_KINDS["xxz"](layout=ParallelLayout("replica", 3, "nCUBE-2"))
    result = Simulation(cfg).run()
    assert result.parameters["machine"] == "nCUBE-2"
    assert len(result.series["energy"]) == 3 * cfg.n_sweeps
    assert result.model_time == 0.0
    np.testing.assert_array_equal(
        result.series["energy"],
        Simulation(_REPLICA_KINDS["xxz"](layout=ParallelLayout("replica", 3)))
        .run().series["energy"],
    )


@pytest.mark.parametrize("make", [
    lambda: XXZRunConfig(n_sites=6, beta=0.5, n_slices=8, periodic=False,
                         n_sweeps=4, n_thermalize=1),
    lambda: XXZ2DRunConfig(lx=2, ly=4, beta=0.5, n_slices=8,
                           n_sweeps=4, n_thermalize=1),
], ids=["open-chain", "2x4"])
def test_runtime_names_the_kernel_that_ran(make):
    """``auto`` on a lattice off the batched kernels' grid runs the scalar
    reference (the samplers' geometry gate): the runtime block says so,
    while ``parameters`` -- the config hash's input -- keep the requested
    kernel's resolution."""
    from repro import kernels

    result = Simulation(make()).run()
    assert result.runtime["kernel"] == "scalar"
    assert result.parameters["kernel"] == kernels.resolve_kernel("auto")
    on_grid = Simulation(
        XXZRunConfig(n_sites=8, beta=0.5, n_slices=8, n_sweeps=4)).run()
    assert on_grid.runtime["kernel"] == on_grid.parameters["kernel"]


def test_chain_errors_surface_as_themselves():
    """A ``ValueError`` raised while a rank builds or sweeps its chain
    leaves ``run()`` as that ``ValueError`` (the CLI's exit 2)."""
    cfg = XXZ2DRunConfig(lx=2, ly=4, beta=0.5, n_slices=8, n_sweeps=2,
                         layout=ParallelLayout(kernel="numpy"))
    with pytest.raises(ValueError, match="vectorized sweep needs"):
        Simulation(cfg).run()
    with pytest.raises(ValueError, match="even"):
        Simulation(XXZ2DRunConfig(lx=3, ly=4, beta=0.5, n_slices=8, n_sweeps=2,
                                  layout=ParallelLayout("replica", 2))).run()


# ======================================================================
# the pinned surface (recorded at 36e83cd, before the run spine)
# ======================================================================

_MC = dict(n_slices=8, n_sweeps=24, n_thermalize=4, seed=3)
_XXZ = dict(n_sites=8, beta=0.5, **_MC)
_TFIM = dict(spatial_shape=(8,), beta=1.0, gamma=1.0, **_MC)


def _numpy(*layout, **kw):
    # An explicit kernel: "auto" resolves to numba where it is installed
    # and would move ``parameters`` and the config hash with the host.
    return ParallelLayout(*layout, kernel="numpy", **kw)


_RT_SERIAL = {"kernel", "manifest", "metrics_out", "n_accepted", "n_attempted",
              "n_sweeps", "sweeps_per_second", "wall_seconds"}
_RT_SPMD = _RT_SERIAL | {"halo_bytes", "halo_messages", "overlap", "report"}
_RT_TWO_LEVEL = _RT_SPMD | {"comm_fraction_by_level", "domain_ranks",
                            "ensemble_degraded", "replicas"}
_XXZ_PARAMS = {"n_sites": 8, "beta": 0.5, "jz": 1.0, "jxy": 1.0, "n_slices": 8,
               "periodic": True, "strategy": "serial", "n_ranks": 1,
               "machine": "Ideal", "backend": "thread", "kernel": "numpy",
               "replicas": 1}
_TFIM_PARAMS = {"spatial_shape": [8], "beta": 1.0, "j": 1.0, "gamma": 1.0,
                "n_slices": 8, "strategy": "serial", "n_ranks": 1,
                "machine": "Ideal", "backend": "thread", "kernel": "numpy"}
_XXZ_ESTIMATES = ["energy", "energy_per_site", "susceptibility"]
_TFIM_ESTIMATES = ["energy", "energy_per_site", "sigma_x", "abs_magnetization"]

#: name -> (config factory, series digests, parameters, estimate names,
#: runtime key set, manifest config_hash).  One small config per run path.
#: The strip, two-level and block series were re-pinned when the drivers'
#: sweep uniforms moved to one skip-ahead stream per run; nothing else.
PINNED_RUNS = {
    "xxz_serial": (
        lambda **kw: XXZRunConfig(**_XXZ, layout=_numpy(), **kw),
        {"energy": "7b8d7d17682a0fcda97373cfb571f0e1a2ed4f99a544702b0c3faf58bd17a719",
         "magnetization": "665bc61104170b68b0dc223683476be568a34580d17dc0b9f039b7b2566b5930"},
        _XXZ_PARAMS, _XXZ_ESTIMATES, _RT_SERIAL,
        "99226d26337205f0974f76079709c3a476f4d92f2f0b29269da4933f3bf1e714",
    ),
    "xxz_strip_p2": (
        lambda **kw: XXZRunConfig(**_XXZ, layout=_numpy("strip", 2, "Paragon"), **kw),
        {"energy": "12802430f24aec50210a859ec075da906a61c10bdac8545e617b1495b6599090",
         "magnetization": "64e33137b0f9737ea29f6e14c6dfef030484a53e884c9a568507a1c816d3f122"},
        {**_XXZ_PARAMS, "strategy": "strip", "n_ranks": 2, "machine": "Paragon"},
        _XXZ_ESTIMATES, _RT_SPMD,
        "d5f74b466b6b8bbaea5ee7f874d8d1897494d58182dbf8c38274ec69f1f8ed49",
    ),
    "xxz_two_level_2x2": (
        lambda **kw: XXZRunConfig(
            **_XXZ, layout=_numpy("strip", 2, "Paragon", replicas=2), **kw),
        {"energy": "6720cccb6e0298cabad3e3527317460ca1fb116a880f622766291f7b63ef2d7d",
         "magnetization": "3eb553d838e9e582ae75699993999bca2240b6971ba0368b491e4b73b4003d3a"},
        {**_XXZ_PARAMS, "strategy": "strip", "n_ranks": 2, "machine": "Paragon",
         "replicas": 2},
        _XXZ_ESTIMATES, _RT_TWO_LEVEL,
        "907222943de13a7727a8603621648e45a5f9a3214a6f72769e7ff470eb309cd4",
    ),
    "xxz2d_serial": (
        lambda **kw: XXZ2DRunConfig(lx=4, ly=4, beta=0.5, **_MC, layout=_numpy(), **kw),
        {"energy": "2b76964fb33831e2fd9005c4aa9128e75a4e6eb045de5c214c61adb7288b8edc",
         "magnetization": "eecc988d43bd076d9685585edbf6843e4505a19d33d5829d0b3342d9134b1a04"},
        {"lx": 4, "ly": 4, "beta": 0.5, "jz": 1.0, "jxy": 1.0, "n_slices": 8,
         "strategy": "serial", "n_ranks": 1, "kernel": "numpy"},
        _XXZ_ESTIMATES + ["staggered_structure_factor"], _RT_SERIAL,
        "12eed8419a4d7a3fa6f61a4f043f6e431b364d4de15f0d807e149b9ad612652b",
    ),
    # Odd Trotter number (one interval per table row) and a non-square
    # lattice, recorded at 44bf7da (the sampler still ran wl2d_* kernels).
    "xxz2d_serial_odd_trotter": (
        lambda **kw: XXZ2DRunConfig(
            lx=4, ly=4, beta=0.5, **{**_MC, "n_slices": 12}, layout=_numpy(), **kw),
        {"energy": "86461938f37787d4ff53feae3717daeeaa72737b7a31f078604b4520b84732dc",
         "magnetization": "5b58aef32907bcb11a77e6397dd3b665762828fb818e78580715e9a696a20305"},
        {"lx": 4, "ly": 4, "beta": 0.5, "jz": 1.0, "jxy": 1.0, "n_slices": 12,
         "strategy": "serial", "n_ranks": 1, "kernel": "numpy"},
        _XXZ_ESTIMATES + ["staggered_structure_factor"], _RT_SERIAL,
        "d5dc4d0edf58e1793b1353f98722dd7a5c917108a7b164e6a3ef96b3ce3fad00",
    ),
    "xxz2d_serial_8x4": (
        lambda **kw: XXZ2DRunConfig(lx=8, ly=4, beta=0.5, **_MC, layout=_numpy(), **kw),
        {"energy": "250fe751808b9da02d2ef30f62026513e5e642f6b2cf0036ee22e8729d7860c9",
         "magnetization": "e168ad26edda0c6db9dff41a65b8aa255c83f60ba299f7fff0f80859193f25e5"},
        {"lx": 8, "ly": 4, "beta": 0.5, "jz": 1.0, "jxy": 1.0, "n_slices": 8,
         "strategy": "serial", "n_ranks": 1, "kernel": "numpy"},
        _XXZ_ESTIMATES + ["staggered_structure_factor"], _RT_SERIAL,
        "95208b280428362cd321d6815c8e2ac8756ee905f73f65328c9b05b38aae7927",
    ),
    "tfim_serial": (
        lambda **kw: TfimRunConfig(**_TFIM, layout=_numpy(), **kw),
        {"energy": "351262f403d380fb6cd03938ef37b91fa95a66c63530582adfd18bea7d5f3049",
         "sigma_x": "9c13d5bdd5ba37a3d8c07f6a5549a6acc22d190abf12a66609505ece3e23f280",
         "abs_magnetization": "d283318aabf75c6a6e8ccb56142a218dc4562607773266bb27b1e968e23bef4a"},
        _TFIM_PARAMS, _TFIM_ESTIMATES, _RT_SERIAL,
        "5b00f17a709c07bfdff090419648197fe5427e787986a6d2fc7bc5205c6dfde2",
    ),
    "tfim_block_p2": (
        lambda **kw: TfimRunConfig(**_TFIM, layout=_numpy("block", 2, "CM-5"), **kw),
        {"energy": "cb479551f7f21112e7cbbe82168d8802d398d9a1def945b0bbbaec9ba82102bd",
         "sigma_x": "371eb4dba2a51a65d2cdfbd696818a630c074072f4500bbb31bd2fc0a530b6f8",
         "abs_magnetization": "5ac87aee940a64ed6e7670604da41b15b1c8eb8fdc5bf26c747f167a37a8b1f8"},
        {**_TFIM_PARAMS, "strategy": "block", "n_ranks": 2, "machine": "CM-5"},
        _TFIM_ESTIMATES, _RT_SPMD,
        "fb62fa53f4d6d8277b39a30de6b3a5701512765edea239b53d70d955c253bd3d",
    ),
    # The replica layout, recorded at 0147ce4 (chains still run in-process).
    "xxz_replica_3": (
        lambda **kw: XXZRunConfig(**_XXZ, layout=_numpy("replica", 3), **kw),
        {"energy": "a7fea03ffafe46e37bfa95e7118b764dcc100811e2f140837ef88869ebee3c8b",
         "magnetization": "691e83c9010784fd4d25654904ac5fe68f70c679846dd708cd04fcce4f6c091e"},
        {**_XXZ_PARAMS, "strategy": "replica", "n_ranks": 3},
        _XXZ_ESTIMATES, _RT_SERIAL,
        "f0757ff38511e37e4b6ff953fc41747f114291f28f2d2f2ff5ac9977c1f62427",
    ),
    "xxz2d_replica_2": (
        lambda **kw: XXZ2DRunConfig(
            lx=4, ly=4, beta=0.5, **_MC, layout=_numpy("replica", 2), **kw),
        {"energy": "94af097703f40576b8fe4216d824b011fc158e2a19b4c2fef9bf6a3bbc99d12e",
         "magnetization": "d1911c6fa367b65cf59d228ce833f959bef16b0989686780a4387db2653f0b1e"},
        {"lx": 4, "ly": 4, "beta": 0.5, "jz": 1.0, "jxy": 1.0, "n_slices": 8,
         "strategy": "replica", "n_ranks": 2, "kernel": "numpy"},
        _XXZ_ESTIMATES + ["staggered_structure_factor"], _RT_SERIAL,
        "7d576375e8d2bd54d9a9f51f8099d530d35a28a66eeaa1b4c0eb5d3106ccdf05",
    ),
    "tfim_replica_2": (
        lambda **kw: TfimRunConfig(**_TFIM, layout=_numpy("replica", 2), **kw),
        {"energy": "348f7af4a3f820b273bb6354fb2b70b7ec3a7b97c8186972c58d61c7e2abe9f8",
         "sigma_x": "cf1d4a58d5fb318e16328a8d49b836e67aedfde8b0128dc5548f0116b3463e19",
         "abs_magnetization": "c183929b88b930d1bd91e322ca7711885f00517d13e6552876453946daf565f3"},
        {**_TFIM_PARAMS, "strategy": "replica", "n_ranks": 2},
        _TFIM_ESTIMATES, _RT_SERIAL,
        "0d80f1f80cdc88745861d68198fdd18525f4fd4f30636bc64009978a6f886204",
    ),
}


class TestPinnedSurface:
    """What a run returns and records, per run path, as literals.

    Series digests round to 1e-9 like the sampler digests in
    ``tests/qmc/test_worldline.py`` (a last-ulp ``log`` difference
    between hosts must not trip them).  ``parameters`` keys feed the
    manifest ``config_hash`` that campaign caches compare, so neither
    may move when the runner is restructured.
    """

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_run_surface_unchanged(self, name, tmp_path):
        import hashlib
        import json

        make, digests, parameters, estimates, runtime_keys, config_hash = (
            PINNED_RUNS[name]
        )
        result = Simulation(make(metrics_out=str(tmp_path / "metrics.jsonl"))).run()
        assert {
            k: hashlib.sha256(np.round(v, 9).tobytes()).hexdigest()
            for k, v in result.series.items()
        } == digests
        assert result.parameters == parameters
        assert list(result.parameters) == list(parameters)
        assert list(result.estimates) == estimates
        assert set(result.runtime) == runtime_keys
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash
