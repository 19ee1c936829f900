"""``repro report``: aggregation of run artifacts into a dashboard.

A real health-enabled CLI run (2 replicas in each of 2 strip ranks, injected
acceptance fault) produces the manifest + metrics/events JSONL that
``discover_runs``/``load_run``/``build_report`` aggregate; the text,
HTML, and JSON renderings are then checked for the load-bearing
content: per-rank tables, convergence verdicts, comm fractions, and
the health timeline.
"""

import json

import pytest

from repro.cli import main
from repro.obs.report import (
    REPORT_VERSION,
    build_report,
    discover_campaigns,
    discover_runs,
    load_campaign,
    load_run,
    render_html,
    render_text,
)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One finished health-enabled run with every sink turned on."""
    d = tmp_path_factory.mktemp("run")
    rules = d / "rules.json"
    rules.write_text(json.dumps({"acceptance_band": [0.9, 1.0]}))
    code = main([
        "run-xxz", "--sites", "16", "--beta", "1.0", "--slices", "8",
        "--sweeps", "40", "--thermalize", "5", "--strategy", "strip",
        "--ranks", "2", "--replicas", "2", "--machine", "CM-5",
        "--health", "--health-rules", str(rules), "--obs-interval", "10",
        "--metrics-out", str(d / "metrics.jsonl"),
        "--events-out", str(d / "events.jsonl"),
        "--trace-out", str(d / "trace.json"),
        "--quiet",
    ])
    assert code == 0
    return d


class TestDiscovery:
    def test_finds_manifest_recursively(self, run_dir):
        (manifest,) = discover_runs([run_dir])
        assert manifest.name == "manifest.json"
        # Direct file paths work too.
        assert discover_runs([manifest]) == [manifest]

    def test_empty_search_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="no manifest"):
            discover_runs([tmp_path])

    def test_missing_path_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            discover_runs([tmp_path / "nope"])

    def test_non_manifest_json_rejected(self, tmp_path):
        bogus = tmp_path / "manifest.json"
        bogus.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="not a run manifest"):
            load_run(bogus)


class TestBuildReport:
    def test_document_shape(self, run_dir):
        report = build_report([load_run(m) for m in discover_runs([run_dir])])
        assert report["report_version"] == REPORT_VERSION
        assert report["n_runs"] == 1
        assert report["n_unhealthy"] == 1  # injected fault
        (run,) = report["runs"]
        assert run["kind"] == "xxz"
        assert {r["rank"] for r in run["rank_table"]} == {0, 1}
        assert any(e["rule"] == "acceptance" for e in run["events"])
        observables = {c["observable"] for c in run["convergence"]}
        assert "energy" in observables
        assert run["comm"]["comm_fraction"] > 0.0
        assert run["n_metrics_rows"] > 0

    def test_report_is_json_serializable(self, run_dir):
        report = build_report([load_run(m) for m in discover_runs([run_dir])])
        assert json.loads(json.dumps(report)) == report


class TestRendering:
    def test_text_dashboard(self, run_dir):
        report = build_report([load_run(m) for m in discover_runs([run_dir])])
        text = render_text(report)
        for needle in ("ATTENTION", "per-rank metrics", "convergence",
                       "health timeline", "acceptance", "comm_fraction="):
            assert needle in text

    def test_html_dashboard(self, run_dir):
        report = build_report([load_run(m) for m in discover_runs([run_dir])])
        html = render_html(report)
        assert html.startswith("<!DOCTYPE html>")
        assert html.endswith("</body></html>")
        assert "health timeline" in html
        assert "<script" not in html  # self-contained, no active content

    def test_run_without_health_renders(self, tmp_path):
        """Metrics-only runs (no --health) still get a dashboard row."""
        code = main([
            "run-xxz", "--sites", "8", "--beta", "0.5", "--slices", "8",
            "--sweeps", "20", "--thermalize", "2", "--strategy", "strip",
            "--ranks", "2", "--metrics-out", str(tmp_path / "m.jsonl"),
            "--quiet",
        ])
        assert code == 0
        report = build_report([load_run(m) for m in discover_runs([tmp_path])])
        assert report["n_unhealthy"] == 0
        text = render_text(report)
        assert "no health data" in text


class TestCliReport:
    def test_text_to_stdout(self, run_dir, capsys):
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "repro report" in out and "health timeline" in out

    def test_html_to_file(self, run_dir, tmp_path, capsys):
        out_file = tmp_path / "dash.html"
        assert main(["report", str(run_dir), "--format", "html",
                     "--out", str(out_file)]) == 0
        assert out_file.read_text().startswith("<!DOCTYPE html>")
        assert "report written to" in capsys.readouterr().out

    def test_json_format(self, run_dir, capsys):
        assert main(["report", str(run_dir), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report_version"] == REPORT_VERSION

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.tier1_fault
class TestCampaignSection:
    """Reports over a real ``run-campaign`` output directory."""

    @pytest.fixture(scope="class")
    def campaign_dir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("campaign")
        spec = d / "spec.json"
        spec.write_text(json.dumps({
            "campaign": {"kind": "xxz", "name": "report-demo"},
            "base": {"n_sites": 6, "n_slices": 4, "n_sweeps": 10,
                     "n_thermalize": 2},
            "sweep": {"beta": [0.5, 1.0]},
        }))
        out = d / "out"
        assert main(["run-campaign", "--spec", str(spec),
                     "--output-dir", str(out), "--quiet"]) == 0
        return out

    def test_discovery_is_optional(self, tmp_path, campaign_dir):
        assert discover_campaigns([tmp_path]) == []
        (found,) = discover_campaigns([campaign_dir])
        assert found.name == "campaign.json"
        # Direct file paths work too.
        assert discover_campaigns([found]) == [found]

    def test_non_campaign_json_rejected(self, tmp_path):
        bogus = tmp_path / "campaign.json"
        bogus.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a campaign manifest"):
            load_campaign(bogus)

    def test_report_carries_campaign_summary(self, campaign_dir):
        campaigns = [load_campaign(p)
                     for p in discover_campaigns([campaign_dir])]
        runs = [load_run(m) for m in discover_runs([campaign_dir])]
        report = build_report(runs, campaigns=campaigns)
        assert report["n_runs"] == 2
        (summary,) = report["campaigns"]
        assert summary["name"] == "report-demo"
        assert summary["n_runs"] == 2
        assert summary["counters"]["completed"] == 2
        assert {r["status"] for r in summary["runs"]} == {"completed"}
        json.dumps(report)  # stays JSON-serializable

    def test_text_and_html_render_campaign(self, campaign_dir):
        campaigns = [load_campaign(p)
                     for p in discover_campaigns([campaign_dir])]
        runs = [load_run(m) for m in discover_runs([campaign_dir])]
        report = build_report(runs, campaigns=campaigns)
        text = render_text(report)
        assert "report-demo" in text
        assert "2 fresh" in text and "0 cached" in text
        html = render_html(report)
        assert "report-demo" in html and "campaign" in html.lower()

    def test_cli_report_over_campaign_dir(self, campaign_dir, capsys):
        assert main(["report", str(campaign_dir), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["campaigns"]) == 1
        assert doc["campaigns"][0]["counters"]["completed"] == 2
