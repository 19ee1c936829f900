"""End-to-end smoke test of the telemetry outputs (tier 1).

Runs the strip driver at P=2 through the CLI with ``--metrics-out`` /
``--trace-out`` into a tmpdir and asserts every artifact -- metrics
JSONL, Chrome trace, manifest -- is well-formed, plus that a plain run
reports acceptance and throughput without any telemetry flag.
"""

import json

import pytest

from repro.cli import main
from repro.obs.manifest import (
    build_manifest,
    config_hash,
    environment_info,
    git_revision,
)
from repro.obs.sinks import read_metrics_jsonl
from repro.run.config import ParallelLayout, XXZ2DRunConfig, XXZRunConfig
from repro.run.simulation import Simulation

XXZ_ARGS = [
    "run-xxz", "--sites", "16", "--beta", "1.0", "--slices", "16",
    "--sweeps", "6", "--thermalize", "2", "--strategy", "strip",
    "--ranks", "2", "--machine", "Paragon",
]


class TestCliTelemetry:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("obs")
        code = main(XXZ_ARGS + [
            "--metrics-out", str(out / "metrics.jsonl"),
            "--trace-out", str(out / "trace.json"),
            "--obs-interval", "2",
        ])
        assert code == 0
        return out

    def test_metrics_jsonl_well_formed(self, run_dir):
        rows = read_metrics_jsonl(run_dir / "metrics.jsonl")
        assert rows
        # Interval snapshots for both ranks plus one summary row each.
        periodic = [r for r in rows if "sweep" in r]
        assert {r["rank"] for r in periodic} == {0, 1}
        summaries = [r for r in rows if r.get("kind") == "summary"]
        assert len(summaries) == 2
        for row in summaries:
            assert row["comm.messages_sent"] > 0
            assert row["sweep.count"] == 8  # 6 sweeps + 2 thermalize
            assert row["sweep.attempted"] > 0

    def test_trace_json_well_formed(self, run_dir):
        doc = json.loads((run_dir / "trace.json").read_text())
        assert doc["displayTimeUnit"] == "ms"
        by_rank = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                by_rank.setdefault(e["tid"], set()).add(e["name"])
        for rank in (0, 1):
            assert {"compute", "comm", "idle"} <= by_rank[rank]

    def test_manifest_well_formed(self, run_dir):
        doc = json.loads((run_dir / "manifest.json").read_text())
        assert doc["manifest_version"] == 1
        assert doc["kind"] == "xxz"
        assert doc["parameters"]["n_ranks"] == 2
        assert doc["config_hash"] == config_hash(doc["parameters"])
        assert doc["seed"] == 0
        assert "python" in doc["environment"]
        assert doc["run_report"]["n_ranks"] == 2
        assert set(doc["rank_metrics"]) == {"0", "1"}
        assert doc["rank_metrics"]["0"]["phase.model_seconds"] > 0
        assert doc["outputs"]["metrics_out"].endswith("metrics.jsonl")

    def test_summary_names_output_files(self, run_dir, capsys):
        # Re-run so this test owns its captured stdout.
        out = run_dir / "again"
        assert main(XXZ_ARGS + ["--metrics-out", str(out / "m.jsonl")]) == 0
        text = capsys.readouterr().out
        assert "metrics_out ->" in text
        assert "manifest ->" in text


#: The metric names of a serial run's rows: its chain's ``sweep.*``,
#: and the ``comm.*`` / ``phase.*`` every rank carries, zero for a rank
#: that sends nothing and models no time.
SERIAL_COMM = {
    "comm.bytes_received", "comm.bytes_sent", "comm.message_bytes",
    "comm.messages_received", "comm.messages_sent", "comm.wait_seconds",
}
SERIAL_SWEEP = {
    "sweep.acceptance", "sweep.accepted", "sweep.attempted", "sweep.count",
    "sweep.kernel_seconds.numpy", "sweep.model_seconds", "sweep.wall_seconds",
}
SERIAL_PHASE = {
    "phase.comm_seconds", "phase.compute_seconds", "phase.idle_seconds",
    "phase.model_seconds",
}


class TestSerialTelemetry:
    """A serial run's artifacts are those of a one-rank SPMD run, though
    its chain runs alone with no fabric."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("serial")
        assert main([
            "run-xxz", "--sites", "16", "--beta", "1.0", "--slices", "8",
            "--sweeps", "20", "--thermalize", "4", "--kernel", "numpy",
            "--obs-interval", "10", "--quiet",
            "--metrics-out", str(out / "metrics.jsonl"),
        ]) == 0
        return out

    def test_metric_names_and_zero_comm_counters(self, run_dir):
        rows = read_metrics_jsonl(run_dir / "metrics.jsonl")
        snapshots = [r for r in rows if "sweep" in r]
        (summary,) = [r for r in rows if r.get("kind") == "summary"]
        assert [r["sweep"] for r in snapshots] == [10, 20]
        for row in snapshots:
            assert set(row) == SERIAL_COMM | SERIAL_SWEEP | {"rank", "sweep", "t_model"}
        assert set(summary) == SERIAL_COMM | SERIAL_SWEEP | SERIAL_PHASE | {"kind", "rank"}
        for row in (*snapshots, summary):
            assert row["rank"] == 0
            assert all(row[name] == 0.0 for name in SERIAL_COMM - {"comm.message_bytes"})
            assert row["comm.message_bytes"]["count"] == 0
        assert all(summary[name] == 0.0 for name in SERIAL_PHASE)
        assert summary["sweep.count"] == 24

    def test_manifest_keeps_report_and_comm_fraction(self, run_dir):
        doc = json.loads((run_dir / "manifest.json").read_text())
        assert doc["run_report"] == {"n_ranks": 1, "failures": [], "aborted": [],
                                     "completed": [0]}
        assert doc["runtime"]["comm_fraction"] == 0.0
        assert doc["rank_metrics"]["0"]["comm.messages_sent"] == 0.0


class TestPlainRunReporting:
    def test_plain_run_reports_acceptance_and_throughput(self, capsys):
        assert main(XXZ_ARGS) == 0
        text = capsys.readouterr().out
        assert "acceptance = " in text
        assert "sweeps/s" in text
        assert "halo traffic = " in text
        assert "MB" in text
        assert "2/2 completed" in text

    def test_serial_run_reports_acceptance(self, capsys):
        assert main([
            "run-xxz2d", "--lx", "4", "--ly", "4", "--beta", "0.5",
            "--slices", "8", "--sweeps", "5", "--thermalize", "1",
        ]) == 0
        text = capsys.readouterr().out
        assert "acceptance = " in text
        assert "sweeps/s" in text


class TestConfigValidation:
    def test_obs_interval_needs_metrics_out(self):
        with pytest.raises(ValueError, match="metrics_out"):
            XXZRunConfig(n_sites=8, beta=1.0, obs_interval=5)

    def test_trace_needs_spmd_layout(self):
        with pytest.raises(ValueError, match="SPMD layout"):
            XXZRunConfig(n_sites=8, beta=1.0, trace_out="t.json")
        with pytest.raises(ValueError, match="SPMD layout"):
            XXZ2DRunConfig(lx=4, ly=4, beta=1.0, n_slices=8,
                           trace_out="t.json",
                           layout=ParallelLayout("replica", 2))

    def test_telemetry_off_by_default(self):
        cfg = XXZRunConfig(n_sites=8, beta=1.0)
        assert cfg.metrics_out is None
        assert cfg.trace_out is None
        assert cfg.obs_interval == 0


class TestManifest:
    def test_config_hash_is_canonical(self):
        a = config_hash({"x": 1, "y": 2.0})
        b = config_hash({"y": 2.0, "x": 1})
        assert a == b
        assert a != config_hash({"x": 1, "y": 2.5})

    def test_build_manifest_minimal(self):
        doc = build_manifest("xxz", {"n_sites": 8})
        assert doc["kind"] == "xxz"
        assert doc["rank_metrics"] is None
        assert doc["run_report"] is None
        assert doc["git_revision"]
        assert "written_at" in doc

    def test_git_revision_runs_git_once_per_process(self, monkeypatch):
        import subprocess

        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        git_revision.cache_clear()
        first = git_revision()
        assert len(calls) == 1
        assert git_revision() == first
        assert len(calls) == 1

    def test_environment_info_hands_out_copies(self):
        info = environment_info()
        expected = json.loads(json.dumps(info))
        info["python"] = "0.0"
        info["kernel_backends"].append("bogus")
        assert environment_info() == expected

    def test_instrumented_run_matches_plain(self, tmp_path):
        """Telemetry must not perturb the Markov chain."""
        import numpy as np

        layout = ParallelLayout("strip", 2, "Paragon")
        plain = Simulation(XXZRunConfig(
            n_sites=16, beta=1.0, n_slices=16, n_sweeps=5, n_thermalize=1,
            layout=layout,
        )).run()
        instrumented = Simulation(XXZRunConfig(
            n_sites=16, beta=1.0, n_slices=16, n_sweeps=5, n_thermalize=1,
            layout=layout,
            metrics_out=str(tmp_path / "m.jsonl"),
            trace_out=str(tmp_path / "t.json"),
            obs_interval=2,
        )).run()
        assert np.array_equal(plain.series["energy"],
                              instrumented.series["energy"])
