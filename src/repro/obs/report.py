"""Post-hoc run dashboard: ``repro report`` over manifests + JSONL sinks.

One entry point aggregates any number of finished runs -- each anchored
by the ``manifest.json`` the run wrote next to its metrics/events/trace
files -- into a single text or HTML dashboard: per-run parameter and
runtime summary, per-rank metric tables, convergence verdicts from the
streaming estimators, comm-fraction breakdowns, and the health-event
timeline.  This is the campaign-level view the ROADMAP's service layer
renders through: point it at one run directory or a whole sweep's
output tree.

The report itself is also available as a JSON document
(:func:`build_report`) so CI can validate its schema and downstream
tooling can consume it without scraping the rendered forms.
"""

from __future__ import annotations

import html as _html
import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.events import read_events_jsonl
from repro.obs.sinks import read_metrics_jsonl
from repro.util.tables import Table, format_float

__all__ = [
    "REPORT_VERSION",
    "discover_runs",
    "discover_campaigns",
    "load_run",
    "load_campaign",
    "build_report",
    "render_text",
    "render_html",
]

REPORT_VERSION = 2

#: Per-rank metric columns shown in the dashboard (when present).
_RANK_COLUMNS = (
    ("sweep.count", "sweeps"),
    ("sweep.attempted", "attempted"),
    ("sweep.accepted", "accepted"),
    ("comm.messages_sent", "msgs"),
    ("comm.bytes_sent", "bytes"),
    ("comm.wait_seconds", "wait[s]"),
)


def discover_runs(paths: Iterable[str | Path]) -> list[Path]:
    """Find run manifests under the given files/directories.

    A path that *is* a manifest (or any ``.json`` file with a
    ``manifest_version`` key) anchors one run; a directory is searched
    recursively for ``manifest.json`` files.  Returns sorted unique
    paths; raises :class:`ValueError` when nothing is found (a silent
    empty dashboard would read as "all healthy").
    """
    found: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found.update(p.rglob("manifest.json"))
        elif p.is_file():
            found.add(p)
        else:
            raise ValueError(f"report path {p} does not exist")
    manifests = sorted(found)
    if not manifests:
        raise ValueError(
            f"no manifest.json found under {[str(p) for p in paths]}; "
            f"run with --metrics-out/--events-out to produce one"
        )
    return manifests


def discover_campaigns(paths: Iterable[str | Path]) -> list[Path]:
    """Find campaign manifests (``campaign.json``) under files/directories.

    Campaigns are an optional layer on top of runs, so -- unlike
    :func:`discover_runs` -- finding nothing is not an error: a plain
    run directory simply has no campaign section.  Nonexistent paths
    are ignored here; :func:`discover_runs` already rejects them.
    """
    found: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found.update(p.rglob("campaign.json"))
        elif p.is_file() and p.name == "campaign.json":
            found.add(p)
    return sorted(found)


def load_campaign(manifest_path: str | Path) -> dict:
    """Load one campaign manifest written by ``run-campaign``."""
    manifest_path = Path(manifest_path)
    doc = json.loads(manifest_path.read_text())
    if "campaign_version" not in doc:
        raise ValueError(f"{manifest_path} is not a campaign manifest")
    return {"manifest_path": str(manifest_path), "campaign": doc}


def load_run(manifest_path: str | Path) -> dict:
    """Load one run: its manifest plus whatever sinks it points at.

    Missing or unreadable side files degrade to empty lists -- the
    report renders what exists -- but a malformed manifest raises.
    """
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    if "manifest_version" not in manifest:
        raise ValueError(f"{manifest_path} is not a run manifest")
    outputs = manifest.get("outputs", {})

    def _resolve(key: str) -> Path | None:
        raw = outputs.get(key)
        if not raw:
            return None
        p = Path(raw)
        if not p.is_file():
            # Artifacts may have been relocated together; try the
            # manifest's own directory before giving up.
            p = manifest_path.parent / Path(raw).name
        return p if p.is_file() else None

    metrics_rows: list[dict] = []
    metrics_path = _resolve("metrics_out")
    if metrics_path is not None:
        metrics_rows = read_metrics_jsonl(metrics_path)
    events: list[dict] = []
    events_path = _resolve("events_out")
    if events_path is not None:
        events = read_events_jsonl(events_path)
    return {
        "manifest_path": str(manifest_path),
        "manifest": manifest,
        "metrics_rows": metrics_rows,
        "events": events,
    }


def _rank_table_rows(manifest: dict) -> list[dict]:
    """Per-rank rows from the manifest's metric summaries."""
    rows = []
    for rank, values in sorted(
        manifest.get("rank_metrics", {}).items(), key=lambda kv: int(kv[0])
    ):
        row = {"rank": int(rank)}
        for name, _label in _RANK_COLUMNS:
            if name in values:
                row[name] = values[name]
        rows.append(row)
    return rows


def _convergence_rows(health: dict) -> list[dict]:
    """Per-rank/per-observable convergence verdicts from health output."""
    rows = []
    for summary in health.get("rank_summaries", []):
        for name, obs in summary.get("observables", {}).items():
            rows.append(
                {
                    "rank": summary.get("rank", 0),
                    "replica": summary.get("replica"),
                    "observable": name,
                    "mean": obs.get("mean"),
                    "error": obs.get("error"),
                    "tau_int": obs.get("tau_int"),
                    "converged": bool(obs.get("converged")),
                }
            )
        for name, rhat in summary.get("rhat", {}).items():
            rows.append(
                {
                    "rank": summary.get("rank", 0),
                    "replica": summary.get("replica"),
                    "observable": f"rhat:{name}",
                    "mean": rhat,
                    "error": None,
                    "tau_int": None,
                    "converged": None,
                }
            )
    return rows


def _comm_fractions(manifest: dict) -> dict:
    runtime = manifest.get("runtime", {})
    out = {}
    if runtime.get("comm_fraction") is not None:
        out["comm_fraction"] = runtime["comm_fraction"]
    return out


def _campaign_summary(loaded: dict) -> dict:
    """Compact per-campaign view for the report document."""
    doc = loaded["campaign"]
    counters = doc.get("counters", {})
    aggregate = doc.get("aggregate", {})
    return {
        "manifest_path": loaded["manifest_path"],
        "name": doc.get("name"),
        "kind": doc.get("kind"),
        "n_runs": doc.get("n_runs"),
        "jobs": doc.get("jobs"),
        "policy": doc.get("policy"),
        "interrupted": bool(doc.get("interrupted", False)),
        "counters": dict(counters),
        "aggregate": dict(aggregate),
        "runs": [
            {
                "run_id": r.get("run_id"),
                "status": r.get("status"),
                "cached": bool(r.get("cached", False)),
                "attempts": r.get("attempts"),
                "wall_seconds": r.get("wall_seconds"),
                "sweeps_per_second": r.get("sweeps_per_second"),
            }
            for r in doc.get("runs", [])
        ],
    }


def build_report(runs: Sequence[dict], campaigns: Sequence[dict] = ()) -> dict:
    """The machine-readable dashboard document over loaded runs.

    ``campaigns`` are :func:`load_campaign` documents; each contributes
    a campaign summary (scheduler counters, cache hits, aggregate
    throughput) on top of the per-run sections.
    """
    report_runs = []
    for run in runs:
        manifest = run["manifest"]
        health = manifest.get("health", {})
        report_runs.append(
            {
                "manifest_path": run["manifest_path"],
                "kind": manifest.get("kind"),
                "config_hash": manifest.get("config_hash"),
                "seed": manifest.get("seed"),
                "written_at": manifest.get("written_at"),
                "parameters": manifest.get("parameters", {}),
                "runtime": manifest.get("runtime", {}),
                "rank_table": _rank_table_rows(manifest),
                "health_summary": health.get("summary", {}),
                "convergence": _convergence_rows(health),
                "comm": _comm_fractions(manifest),
                "events": run.get("events", []),
                "n_metrics_rows": len(run.get("metrics_rows", [])),
            }
        )
    n_unhealthy = sum(
        1
        for r in report_runs
        if r["health_summary"] and not r["health_summary"].get("healthy", True)
    )
    return {
        "report_version": REPORT_VERSION,
        "n_runs": len(report_runs),
        "n_unhealthy": n_unhealthy,
        "campaigns": [_campaign_summary(c) for c in campaigns],
        "runs": report_runs,
    }


def _run_title(run: dict) -> str:
    chash = run.get("config_hash") or "?"
    return f"{run.get('kind', '?')} run {str(chash)[:12]} (seed {run.get('seed')})"


def _verdict(run: dict) -> str:
    hs = run.get("health_summary") or {}
    if not hs:
        return "no health data"
    if hs.get("healthy", True):
        return "healthy"
    sev = hs.get("by_severity", {})
    parts = [f"{sev[s]} {s}" for s in ("critical", "warning") if sev.get(s)]
    return "ATTENTION: " + ", ".join(parts)


def _campaign_verdict(c: dict) -> str:
    counters = c.get("counters", {})
    bits = [f"{counters.get('completed', 0)} fresh",
            f"{counters.get('cached', 0)} cached"]
    if counters.get("failed"):
        bits.append(f"{counters['failed']} FAILED")
    if counters.get("skipped"):
        bits.append(f"{counters['skipped']} skipped")
    if c.get("interrupted"):
        bits.append("INTERRUPTED")
    return ", ".join(bits)


def render_text(report: dict) -> str:
    """Terminal dashboard: aligned tables per run plus a campaign header."""
    lines = [
        f"repro report v{report['report_version']}: {report['n_runs']} run(s), "
        f"{report['n_unhealthy']} unhealthy",
    ]
    for c in report.get("campaigns", []):
        lines.append("")
        lines.append(
            f"== campaign {c.get('name', '?')!r} ({c.get('kind', '?')}, "
            f"{c.get('n_runs', '?')} runs, jobs={c.get('jobs', '?')}) -- "
            f"{_campaign_verdict(c)}"
        )
        agg = c.get("aggregate", {})
        if agg:
            lines.append(
                "   aggregate: "
                + ", ".join(
                    f"{k}={format_float(v)}" for k, v in sorted(agg.items())
                )
            )
        if c["runs"]:
            t = Table(
                "campaign runs",
                ["run", "status", "cached", "attempts", "wall[s]", "sweeps/s"],
            )
            for r in c["runs"]:
                t.add_row(
                    [
                        r.get("run_id", "?"),
                        r.get("status", "?"),
                        "yes" if r.get("cached") else "no",
                        r.get("attempts", "-"),
                        format_float(r.get("wall_seconds") or 0.0),
                        format_float(r.get("sweeps_per_second") or 0.0),
                    ]
                )
            lines.append(_indent(t.render()))
    for run in report["runs"]:
        lines.append("")
        lines.append(f"== {_run_title(run)} -- {_verdict(run)}")
        params = ", ".join(f"{k}={v}" for k, v in sorted(run["parameters"].items()))
        if params:
            lines.append(f"   parameters: {params}")
        runtime = run["runtime"]
        bits = []
        for key, label in (
            ("wall_seconds", "wall[s]"),
            ("sweeps_per_second", "sweeps/s"),
            ("n_attempted", "attempted"),
            ("n_accepted", "accepted"),
        ):
            if runtime.get(key) is not None:
                bits.append(f"{label}={format_float(runtime[key])}")
        comm = run["comm"].get("comm_fraction")
        if comm is not None:
            bits.append(f"comm_fraction={format_float(comm)}")
        if bits:
            lines.append(f"   runtime: {', '.join(bits)}")
        if run["rank_table"]:
            t = Table(
                "per-rank metrics", ["rank"] + [lbl for _n, lbl in _RANK_COLUMNS]
            )
            for row in run["rank_table"]:
                t.add_row(
                    [row["rank"]] + [row.get(name, "-") for name, _l in _RANK_COLUMNS]
                )
            lines.append(_indent(t.render()))
        if run["convergence"]:
            t = Table(
                "convergence",
                ["rank", "replica", "observable", "mean", "error", "tau_int", "verdict"],
            )
            for row in run["convergence"]:
                verdict = (
                    "-" if row["converged"] is None
                    else ("converged" if row["converged"] else "NOT converged")
                )
                t.add_row(
                    [
                        row["rank"],
                        "-" if row["replica"] is None else row["replica"],
                        row["observable"],
                        "-" if row["mean"] is None else row["mean"],
                        "-" if row["error"] is None else row["error"],
                        "-" if row["tau_int"] is None else row["tau_int"],
                        verdict,
                    ]
                )
            lines.append(_indent(t.render()))
        if run["events"]:
            t = Table(
                "health timeline", ["sweep", "rank", "severity", "rule", "message"]
            )
            for e in run["events"]:
                t.add_row(
                    [e["sweep"], e["rank"], e["severity"], e["rule"], e["message"]]
                )
            lines.append(_indent(t.render()))
        elif run["health_summary"]:
            lines.append("   health timeline: no events")
    return "\n".join(lines) + "\n"


def _indent(block: str, prefix: str = "   ") -> str:
    return "\n".join(prefix + line for line in block.splitlines())


def _html_table(title: str, columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    head = "".join(f"<th>{_html.escape(str(c))}</th>" for c in columns)
    body = "".join(
        "<tr>" + "".join(f"<td>{_html.escape(format_float(c))}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return (
        f"<h3>{_html.escape(title)}</h3>"
        f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
    )


def render_html(report: dict) -> str:
    """Self-contained single-file HTML dashboard (no external assets)."""
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>repro report</title><style>",
        "body{font-family:system-ui,sans-serif;margin:2em;max-width:72em}",
        "table{border-collapse:collapse;margin:0.5em 0}",
        "th,td{border:1px solid #ccc;padding:0.25em 0.6em;text-align:right}",
        "th{background:#f0f0f0}td:first-child,th:first-child{text-align:left}",
        ".healthy{color:#1a7f37}.attention{color:#b91c1c;font-weight:bold}",
        ".params{color:#555;font-size:0.9em}",
        "</style></head><body>",
        f"<h1>repro report</h1><p>{report['n_runs']} run(s), "
        f"{report['n_unhealthy']} unhealthy "
        f"(report schema v{report['report_version']})</p>",
    ]
    for c in report.get("campaigns", []):
        verdict = _campaign_verdict(c)
        counters = c.get("counters", {})
        cls = (
            "attention"
            if counters.get("failed") or c.get("interrupted")
            else "healthy"
        )
        parts.append(
            f"<h2>campaign {_html.escape(str(c.get('name', '?')))} "
            f"<span class='{cls}'>[{_html.escape(verdict)}]</span></h2>"
        )
        agg = c.get("aggregate", {})
        parts.append(
            "<p class='params'>"
            + _html.escape(
                f"kind={c.get('kind')}, n_runs={c.get('n_runs')}, "
                f"jobs={c.get('jobs')}, policy={c.get('policy')}, "
                + ", ".join(
                    f"{k}={format_float(v)}" for k, v in sorted(agg.items())
                )
            )
            + "</p>"
        )
        if c["runs"]:
            parts.append(
                _html_table(
                    "campaign runs",
                    ["run", "status", "cached", "attempts", "wall[s]",
                     "sweeps/s"],
                    [
                        [
                            r.get("run_id", "?"),
                            r.get("status", "?"),
                            "yes" if r.get("cached") else "no",
                            r.get("attempts", "-"),
                            r.get("wall_seconds") or 0.0,
                            r.get("sweeps_per_second") or 0.0,
                        ]
                        for r in c["runs"]
                    ],
                )
            )
    for run in report["runs"]:
        verdict = _verdict(run)
        cls = "healthy" if verdict in ("healthy", "no health data") else "attention"
        parts.append(f"<h2>{_html.escape(_run_title(run))} "
                     f"<span class='{cls}'>[{_html.escape(verdict)}]</span></h2>")
        params = ", ".join(f"{k}={v}" for k, v in sorted(run["parameters"].items()))
        parts.append(f"<p class='params'>{_html.escape(params)}</p>")
        comm = run["comm"]
        if comm:
            items = []
            if comm.get("comm_fraction") is not None:
                items.append(("total", comm["comm_fraction"]))
            parts.append(
                _html_table("comm fractions", ["level", "fraction"], items)
            )
        if run["rank_table"]:
            parts.append(
                _html_table(
                    "per-rank metrics",
                    ["rank"] + [lbl for _n, lbl in _RANK_COLUMNS],
                    [
                        [row["rank"]]
                        + [row.get(name, "-") for name, _l in _RANK_COLUMNS]
                        for row in run["rank_table"]
                    ],
                )
            )
        if run["convergence"]:
            parts.append(
                _html_table(
                    "convergence",
                    ["rank", "replica", "observable", "mean", "error", "tau_int",
                     "verdict"],
                    [
                        [
                            row["rank"],
                            "-" if row["replica"] is None else row["replica"],
                            row["observable"],
                            "-" if row["mean"] is None else row["mean"],
                            "-" if row["error"] is None else row["error"],
                            "-" if row["tau_int"] is None else row["tau_int"],
                            "-" if row["converged"] is None
                            else ("converged" if row["converged"] else "NOT converged"),
                        ]
                        for row in run["convergence"]
                    ],
                )
            )
        if run["events"]:
            parts.append(
                _html_table(
                    "health timeline",
                    ["sweep", "rank", "severity", "rule", "message"],
                    [
                        [e["sweep"], e["rank"], e["severity"], e["rule"], e["message"]]
                        for e in run["events"]
                    ],
                )
            )
    parts.append("</body></html>")
    return "".join(parts)
