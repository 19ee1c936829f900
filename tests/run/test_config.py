"""Tests for run configuration validation."""

import pytest

from repro.run.config import (
    ParallelLayout,
    TfimRunConfig,
    XXZ2DRunConfig,
    XXZRunConfig,
)


class TestParallelLayout:
    def test_defaults(self):
        layout = ParallelLayout()
        assert layout.strategy == "serial"
        assert layout.n_ranks == 1

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ParallelLayout(strategy="diagonal")

    def test_serial_multi_rank_rejected(self):
        with pytest.raises(ValueError):
            ParallelLayout(strategy="serial", n_ranks=4)

    def test_nonpositive_ranks_rejected(self):
        with pytest.raises(ValueError):
            ParallelLayout(strategy="strip", n_ranks=0)

    def test_unknown_machine_lists_the_known_ones(self):
        """Not a bare ``KeyError: 'Cray'`` once the run looks it up."""
        from repro.vmp.machines import MACHINES

        with pytest.raises(ValueError, match="unknown machine 'Cray'") as err:
            ParallelLayout(machine="Cray")
        assert ", ".join(sorted(MACHINES)) in str(err.value)


class TestXXZRunConfig:
    def test_valid(self):
        cfg = XXZRunConfig(n_sites=8, beta=1.0)
        assert cfg.n_slices == 16

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            XXZRunConfig(n_sites=8, beta=-1.0)

    def test_bad_slices(self):
        with pytest.raises(ValueError):
            XXZRunConfig(n_sites=8, beta=1.0, n_slices=5)

    def test_block_layout_rejected_for_chain(self):
        with pytest.raises(ValueError, match="no block layout"):
            XXZRunConfig(
                n_sites=8, beta=1.0,
                layout=ParallelLayout("block", 4),
            )

    def test_strip_layout_geometry_checked(self):
        with pytest.raises(ValueError, match="L % 4"):
            XXZRunConfig(
                n_sites=6, beta=1.0, periodic=True,
                layout=ParallelLayout("strip", 2),
            )
        with pytest.raises(ValueError, match="periodic"):
            XXZRunConfig(
                n_sites=8, beta=1.0, periodic=False,
                layout=ParallelLayout("strip", 2),
            )


class TestTfimRunConfig:
    def test_valid(self):
        cfg = TfimRunConfig(spatial_shape=(8,), beta=2.0)
        assert cfg.gamma == 1.0

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            TfimRunConfig(spatial_shape=(4, 4, 4), beta=1.0)

    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError):
            TfimRunConfig(spatial_shape=(5,), beta=1.0)

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            TfimRunConfig(spatial_shape=(8,), beta=1.0, gamma=0.0)

    def test_strip_layout_rejected(self):
        with pytest.raises(ValueError, match="block"):
            TfimRunConfig(
                spatial_shape=(8,), beta=1.0,
                layout=ParallelLayout("strip", 2),
            )


class TestHealthFields:
    """The --health / --health-rules / --events-out config trio."""

    def test_defaults_off(self):
        cfg = XXZRunConfig(n_sites=8, beta=1.0)
        assert cfg.health is False
        assert cfg.health_rules is None and cfg.events_out is None

    def test_health_enables_companions(self):
        cfg = XXZRunConfig(n_sites=8, beta=1.0, health=True,
                           health_rules="rules.json", events_out="ev.jsonl")
        assert cfg.health

    @pytest.mark.parametrize("kw", [
        {"health_rules": "rules.json"},
        {"events_out": "ev.jsonl"},
    ])
    def test_companions_require_health(self, kw):
        with pytest.raises(ValueError, match="health"):
            XXZRunConfig(n_sites=8, beta=1.0, **kw)

    def test_all_config_kinds_carry_fields(self):
        for cfg in (
            XXZ2DRunConfig(lx=4, ly=4, beta=1.0, health=True),
            TfimRunConfig(spatial_shape=(8,), beta=1.0, health=True),
        ):
            assert cfg.health


_KINDS = {
    "xxz": (XXZRunConfig, {"n_sites": 8}),
    "xxz2d": (XXZ2DRunConfig, {"lx": 4, "ly": 4}),
    "tfim": (TfimRunConfig, {"spatial_shape": (8,)}),
}


def _make(kind, **kw):
    cls, model = _KINDS[kind]
    return cls(**{**model, "beta": 1.0, **kw})


@pytest.mark.parametrize("kind", sorted(_KINDS))
class TestSharedBase:
    """Checks every kind inherits from the one RunConfig base."""

    @pytest.mark.parametrize("kw, match", [
        ({"measure_every": 0}, "measure_every"),  # was a mid-run ZeroDivisionError
        ({"n_thermalize": -1}, "n_thermalize"),
        ({"n_sweeps": 0}, "at least one sweep"),
        ({"beta": 0.0}, "beta"),
        ({"obs_interval": 5}, "metrics_out"),
        ({"checkpoint_dir": "ck"}, "checkpoint_dir"),
        ({"events_out": "ev.jsonl"}, "health"),
    ])
    def test_common_fields_validated(self, kind, kw, match):
        with pytest.raises(ValueError, match=match):
            _make(kind, **kw)

    def test_unsupported_layout_names_the_supported_ones(self, kind):
        cls = _KINDS[kind][0]
        other = "strip" if "block" in cls.strategies else "block"
        with pytest.raises(ValueError, match=f"no {other} layout") as err:
            _make(kind, layout=ParallelLayout(other, 2))
        assert cls.strategies[-1] in str(err.value)

    def test_frozen_keyword_only_and_replaceable(self, kind):
        import dataclasses

        cfg = _make(kind, seed=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 4
        assert dataclasses.replace(cfg, n_sweeps=7).n_sweeps == 7
        assert dataclasses.replace(cfg, n_sweeps=7).seed == 3

    def test_shared_fields_come_from_the_base(self, kind):
        import dataclasses

        from repro.run.config import RunConfig

        shared = [f.name for f in dataclasses.fields(RunConfig)]
        assert len(shared) == 16
        names = [f.name for f in dataclasses.fields(_KINDS[kind][0])]
        assert names[:16] == shared
        assert len(names) == {"xxz": 20, "xxz2d": 20, "tfim": 19}[kind]


class TestDriverConfigSchedules:
    """The rank programs' own configs reject the same schedules."""

    @pytest.mark.parametrize("kw, match", [
        ({"measure_every": 0}, "measure_every"),
        ({"n_thermalize": -1}, "n_thermalize"),
        ({"n_sweeps": 0}, "at least one sweep"),
    ])
    def test_bad_schedule_rejected(self, kw, match):
        from repro.qmc.chains import ChainConfig
        from repro.qmc.parallel import IsingBlockConfig, WorldlineStripConfig

        good = {"n_sweeps": 4, **kw}
        with pytest.raises(ValueError, match=match):
            WorldlineStripConfig(n_sites=8, jz=1.0, jxy=1.0, beta=1.0,
                                 n_slices=8, **good)
        with pytest.raises(ValueError, match=match):
            IsingBlockConfig(lx=4, ly=4, lt=4, kx=0.1, ky=0.1, kt=0.1, **good)
        with pytest.raises(ValueError, match=match):
            ChainConfig(build=None, series=(), health_series=(), **good)
