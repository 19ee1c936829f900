"""Health-event sinks: schema'd JSONL log + Chrome-trace instants.

The on-disk format is one JSON object per line.  The first line is a
schema header ``{"kind": "schema", "schema": "repro.health.events",
"version": 1}``; every following line is one
:meth:`~repro.obs.health.HealthEvent.to_doc` record.  Events are
written sorted by ``(sweep, rank, rule)`` so the file is deterministic
regardless of which backend's rank interleaving produced them.

:func:`health_instant_events` converts the same records into Trace
Event Format instant ("i") events so alerts show up as markers on the
Perfetto timeline of the run, pinned to the rank row and modeled time
where they fired.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.chrome_trace import _round_us

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_SCHEMA_VERSION",
    "validate_event",
    "sort_events",
    "events_summary",
    "write_events_jsonl",
    "read_events_jsonl",
    "health_instant_events",
]

EVENT_SCHEMA = "repro.health.events"
EVENT_SCHEMA_VERSION = 1

_EVENT_FIELDS = {
    "kind": str,
    "rule": str,
    "severity": str,
    "sweep": int,
    "rank": int,
    "message": str,
}


def validate_event(doc: dict) -> dict:
    """Check one event record against the schema; returns it unchanged.

    Raises :class:`ValueError` naming the offending field -- used both
    by the writer (catch malformed producers early) and by CI schema
    validation over emitted artifacts.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"event record must be an object, got {type(doc).__name__}")
    for name, typ in _EVENT_FIELDS.items():
        if name not in doc:
            raise ValueError(f"event record missing required field {name!r}: {doc}")
        if not isinstance(doc[name], typ):
            raise ValueError(
                f"event field {name!r} must be {typ.__name__}, got {type(doc[name]).__name__}"
            )
    if doc["kind"] != "health_event":
        raise ValueError(f"event kind must be 'health_event', got {doc['kind']!r}")
    from repro.obs.health import SEVERITIES

    if doc["severity"] not in SEVERITIES:
        raise ValueError(f"event severity must be one of {SEVERITIES}, got {doc['severity']!r}")
    return doc


def sort_events(events: Iterable[dict]) -> list[dict]:
    """Deterministic event order: by sweep, then rank, then rule."""
    return sorted(events, key=lambda e: (e.get("sweep", 0), e.get("rank", 0), e.get("rule", "")))


def events_summary(events: Sequence[dict]) -> dict:
    """Aggregate tallies over an event stream (manifest / report view)."""
    by_severity: dict[str, int] = {}
    by_rule: dict[str, int] = {}
    ranks: set[int] = set()
    for event in events:
        by_severity[event["severity"]] = by_severity.get(event["severity"], 0) + 1
        by_rule[event["rule"]] = by_rule.get(event["rule"], 0) + 1
        ranks.add(event["rank"])
    return {
        "n_events": len(events),
        "by_severity": dict(sorted(by_severity.items())),
        "by_rule": dict(sorted(by_rule.items())),
        "ranks": sorted(ranks),
        "healthy": by_severity.get("warning", 0) == 0 and by_severity.get("critical", 0) == 0,
    }


def write_events_jsonl(path: str | Path, events: Iterable[dict]) -> Path:
    """Write validated, sorted event records under a schema header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {"kind": "schema", "schema": EVENT_SCHEMA, "version": EVENT_SCHEMA_VERSION}
    with path.open("w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for event in sort_events(validate_event(e) for e in events):
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    return path


def read_events_jsonl(path: str | Path) -> list[dict]:
    """Read an events JSONL file back, enforcing the schema header."""
    path = Path(path)
    rows: list[dict] = []
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    if not rows:
        return []
    header = rows[0]
    if header.get("kind") != "schema" or header.get("schema") != EVENT_SCHEMA:
        raise ValueError(
            f"{path} is not a health-events file: expected a "
            f"{{'kind': 'schema', 'schema': {EVENT_SCHEMA!r}}} header, got {header}"
        )
    version = header.get("version")
    if version != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"{path} has events schema version {version!r}; this reader "
            f"understands version {EVENT_SCHEMA_VERSION}"
        )
    return [validate_event(row) for row in rows[1:]]


def health_instant_events(events: Sequence[dict]) -> list[dict]:
    """Health events as Trace Event Format instant ("i") records.

    Thread-scoped instants on the emitting rank's row at the event's
    modeled time; ``args`` carries severity/sweep/message so hovering
    the marker in Perfetto shows the alert.
    """
    out = []
    for event in sort_events(events):
        args = {
            "severity": event["severity"],
            "sweep": event["sweep"],
            "message": event["message"],
        }
        if "replica" in event:
            args["replica"] = event["replica"]
        out.append(
            {
                "name": event["rule"],
                "cat": "health",
                "ph": "i",
                "s": "t",
                "pid": 0,
                "tid": event["rank"],
                "ts": _round_us(float(event.get("t_model", 0.0))),
                "args": args,
            }
        )
    return out
