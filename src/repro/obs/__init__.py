"""Unified observability: metrics, spans, traces, manifests, health.

See DESIGN.md "Observability" and "Run health & reporting" for the
naming scheme and clock-domain rules.  The short version: everything
here is off by default (drivers record against the free
:data:`~repro.obs.metrics.NOOP` recorder and the
:data:`~repro.obs.metrics.NOOP_HEALTH` monitor), modeled-time quantities
are bit-reproducible, and wall-clock values are always suffixed
``wall_seconds``.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "CATEGORY_ALIASES": "repro.obs.chrome_trace",
    "chrome_trace_doc": "repro.obs.chrome_trace",
    "chrome_trace_events": "repro.obs.chrome_trace",
    "write_chrome_trace": "repro.obs.chrome_trace",
    "EVENT_SCHEMA": "repro.obs.events",
    "EVENT_SCHEMA_VERSION": "repro.obs.events",
    "events_summary": "repro.obs.events",
    "health_instant_events": "repro.obs.events",
    "read_events_jsonl": "repro.obs.events",
    "sort_events": "repro.obs.events",
    "validate_event": "repro.obs.events",
    "write_events_jsonl": "repro.obs.events",
    "SEVERITIES": "repro.obs.health",
    "HealthEvent": "repro.obs.health",
    "HealthMonitor": "repro.obs.health",
    "HealthRules": "repro.obs.health",
    "clock_comm_seconds": "repro.obs.health",
    "load_health_rules": "repro.obs.health",
    "build_manifest": "repro.obs.manifest",
    "config_hash": "repro.obs.manifest",
    "environment_info": "repro.obs.manifest",
    "git_revision": "repro.obs.manifest",
    "write_manifest": "repro.obs.manifest",
    "ACCEPTANCE_EDGES": "repro.obs.metrics",
    "MESSAGE_BYTES_EDGES": "repro.obs.metrics",
    "NOOP": "repro.obs.metrics",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "MetricsFanout": "repro.obs.metrics",
    "NoopMetrics": "repro.obs.metrics",
    "NoopHealthMonitor": "repro.obs.metrics",
    "NOOP_HEALTH": "repro.obs.metrics",
    "RankMetrics": "repro.obs.metrics",
    "StreamingBinning": "repro.obs.online",
    "Welford": "repro.obs.online",
    "gelman_rubin": "repro.obs.online",
    "gelman_rubin_from_moments": "repro.obs.online",
    "REPORT_VERSION": "repro.obs.report",
    "build_report": "repro.obs.report",
    "discover_runs": "repro.obs.report",
    "load_run": "repro.obs.report",
    "render_html": "repro.obs.report",
    "render_text": "repro.obs.report",
    "METRICS_SCHEMA": "repro.obs.sinks",
    "METRICS_SCHEMA_VERSION": "repro.obs.sinks",
    "read_metrics_jsonl": "repro.obs.sinks",
    "write_metrics_jsonl": "repro.obs.sinks",
    "Span": "repro.obs.spans",
    "SpanCollector": "repro.obs.spans",
})
