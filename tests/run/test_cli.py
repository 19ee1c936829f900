"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_run_xxz(self):
        args = build_parser().parse_args(
            ["run-xxz", "--sites", "8", "--beta", "1.0", "--strategy", "strip",
             "--ranks", "2", "--machine", "Paragon"]
        )
        assert args.sites == 8
        assert args.machine == "Paragon"

    def test_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run-xxz", "--sites", "8", "--beta", "1", "--machine", "Cray-1"]
            )


class TestCommands:
    def test_machines_lists_all(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        for name in ("CM-5", "Paragon", "nCUBE-2", "Delta", "Ideal"):
            assert name in out

    def test_scaling_table(self, capsys):
        assert main(["scaling", "--machine", "Paragon", "--lx", "32", "--ly",
                     "32", "--slices", "8", "--max-p", "16"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "16" in out

    def test_scaling_strip_stops_at_lattice_limit(self, capsys):
        assert main(["scaling", "--strategy", "strip", "--lx", "8", "--ly", "8",
                     "--slices", "8", "--max-p", "64"]) == 0
        out = capsys.readouterr().out
        assert "stopping at P=16" in out

    def test_run_xxz_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "res"
        code = main([
            "run-xxz", "--sites", "8", "--beta", "0.5", "--slices", "8",
            "--sweeps", "50", "--thermalize", "5", "--output", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy" in out
        doc = json.loads((tmp_path / "res.json").read_text())
        assert doc["kind"] == "xxz"

    def test_run_tfim_smoke(self, capsys):
        code = main([
            "run-tfim", "--shape", "8", "--beta", "1.0", "--gamma", "1.0",
            "--slices", "8", "--sweeps", "50", "--thermalize", "5",
        ])
        assert code == 0
        assert "sigma_x" in capsys.readouterr().out

    def test_run_tfim_2d_shape(self, capsys):
        code = main([
            "run-tfim", "--shape", "4x4", "--beta", "1.0", "--slices", "8",
            "--sweeps", "30", "--thermalize", "5",
        ])
        assert code == 0

    def test_invalid_config_returns_error_code(self, capsys):
        code = main([
            "run-xxz", "--sites", "7", "--beta", "1.0", "--sweeps", "10",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_key_error_inside_a_run_is_not_a_config_error(self, monkeypatch):
        """Exit 2 means "bad parameter, do not retry" to the campaign; a
        KeyError raised while running is a bug and must stay a traceback
        (exit 1, transient), not be dressed up as ``error: 'x'``."""
        from repro.run import simulation

        def boom(configs):
            raise KeyError("x")

        monkeypatch.setattr(simulation, "run_batch", boom)
        with pytest.raises(KeyError):
            main(["run-xxz", "--sites", "8", "--beta", "1.0", "--sweeps", "4"])


class TestXXZ2DCommand:
    def test_run_xxz2d_smoke(self, capsys):
        code = main([
            "run-xxz2d", "--lx", "2", "--ly", "4", "--beta", "0.5",
            "--slices", "8", "--sweeps", "40", "--thermalize", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "staggered_structure_factor" in out

    def test_run_xxz2d_rejects_strip(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run-xxz2d", "--lx", "4", "--ly", "4", "--beta", "1",
                 "--strategy", "strip"]
            )


_MC_OPTIONS = [
    "--beta", "--slices", "--sweeps", "--thermalize", "--seed", "--output",
    "--checkpoint-every", "--checkpoint-dir", "--resume", "--metrics-out",
    "--trace-out", "--obs-interval", "--health", "--health-rules",
    "--events-out", "--quiet",
]
_LAYOUT_OPTIONS = [
    "--strategy", "--ranks", "--machine", "--backend", "--overlap", "--kernel",
    "--replicas",
]
#: Option strings of each run subcommand, in --help order (27 / 27 / 26
#: flags), with the strategies it offers.  Recorded at 36e83cd.
PINNED_OPTIONS = {
    "run-xxz": (["--sites", "--jz", "--jxy", "--open-chain"],
                ["serial", "replica", "strip"]),
    "run-xxz2d": (["--lx", "--ly", "--jz", "--jxy"], ["serial", "replica"]),
    "run-tfim": (["--shape", "--j", "--gamma"], ["serial", "replica", "block"]),
}
_RUN_DEFAULTS = {
    "beta": None, "slices": 16, "sweeps": 2000, "thermalize": 200, "seed": 0,
    "output": None, "checkpoint_every": 0, "checkpoint_dir": None,
    "resume": False, "metrics_out": None, "trace_out": None, "obs_interval": 0,
    "health": False, "health_rules": None, "events_out": None, "quiet": False,
    "strategy": "serial", "ranks": 1, "machine": "Ideal", "backend": "thread",
    "overlap": False, "kernel": "auto", "replicas": 1,
}
_MODEL_DEFAULTS = {
    "run-xxz": {"sites": None, "jz": 1.0, "jxy": 1.0, "open_chain": False},
    "run-xxz2d": {"lx": None, "ly": None, "jz": 1.0, "jxy": 1.0},
    "run-tfim": {"shape": None, "j": 1.0, "gamma": 1.0},
}


def _subparser(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return sub.choices[command]


class TestPinnedRunOptions:
    """The run subcommands' flags, defaults and strategy choices as
    literals: a spec field that falls to a CLI default must keep falling
    to the same value however the subparsers are built."""

    @pytest.mark.parametrize("command", sorted(PINNED_OPTIONS))
    def test_option_strings_and_defaults(self, command):
        model, strategies = PINNED_OPTIONS[command]
        actions = _subparser(command)._actions
        assert [s for a in actions for s in a.option_strings] == (
            ["-h", "--help"] + model + _MC_OPTIONS + _LAYOUT_OPTIONS
        )
        assert {a.dest: a.default for a in actions if a.dest != "help"} == {
            **_MODEL_DEFAULTS[command], **_RUN_DEFAULTS
        }
        (strategy,) = [a for a in actions if a.dest == "strategy"]
        assert list(strategy.choices) == strategies
        required = {a.dest for a in actions if a.required}
        assert required == {
            d for d, v in _MODEL_DEFAULTS[command].items() if v is None
        } | {"beta"}
