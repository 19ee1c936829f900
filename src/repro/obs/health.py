"""Streaming run-health engine: declarative rules over online estimators.

A :class:`HealthMonitor` lives inside an SPMD rank program -- every
layout is one, serial and replica chains included -- and is fed from
the run loop (:func:`repro.qmc.chains._run_decomposed`):

* ``observe(name, value, sweep)`` pushes one measured scalar into the
  per-observable streaming estimators (:class:`~repro.obs.online.Welford`
  + :class:`~repro.obs.online.StreamingBinning`), screening NaN/Inf.
* ``check(sweep, attempted=..., accepted=..., ...)`` evaluates the
  declarative :class:`HealthRules` at the observation cadence and emits
  :class:`HealthEvent` records on rule transitions.
* ``observe_rhat(name, rhat, sweep)`` records a cross-replica
  Gelman--Rubin value computed elsewhere (a replica strip rank, from
  its chains' moments) and applies the ``rhat_max`` rule to it.

Events are *transition-based*: a rule fires one ``warning``/``critical``
event when its condition starts holding and one ``info`` "recovered"
event when it stops, so a persistently sick run does not flood the log
and the event stream stays deterministic and small.

The monitor is pure observation: it never draws random numbers, never
touches sampler state, and never communicates -- so enabling it cannot
perturb a trajectory.  Disabled call sites use
:data:`~repro.obs.metrics.NOOP_HEALTH` (next to the disabled metrics
recorder it mirrors, :data:`~repro.obs.metrics.NOOP`, so a run without
health checks never imports this module), whose methods are all
no-ops, keeping the hot loop at one attribute check.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .online import StreamingBinning, Welford

__all__ = [
    "SEVERITIES",
    "HealthRules",
    "HealthEvent",
    "HealthMonitor",
    "load_health_rules",
    "clock_comm_seconds",
]

SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class HealthRules:
    """Declarative check configuration, JSON-loadable via ``--health-rules``.

    ``interval`` is the check cadence in sweeps (the CLI overrides it
    with ``--obs-interval`` when that is set, so health checks align
    with metric snapshots).  A band or threshold of ``None`` disables
    the corresponding rule.
    """

    interval: int = 10
    acceptance_band: tuple[float, float] | None = (0.01, 0.99)
    acceptance_min_attempts: int = 1
    nan_check: bool = True
    stall_check: bool = True
    comm_fraction_max: float | None = 0.95
    rhat_max: float | None = 1.2

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        if self.acceptance_band is not None:
            lo, hi = self.acceptance_band
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(
                    f"acceptance_band must satisfy 0 <= lo <= hi <= 1, got {self.acceptance_band}"
                )
            object.__setattr__(self, "acceptance_band", (float(lo), float(hi)))
        if self.comm_fraction_max is not None and not 0.0 < self.comm_fraction_max <= 1.0:
            raise ValueError(
                f"comm_fraction_max must be in (0, 1], got {self.comm_fraction_max}"
            )
        if self.rhat_max is not None and self.rhat_max < 1.0:
            raise ValueError(f"rhat_max must be >= 1, got {self.rhat_max}")
        if self.acceptance_min_attempts < 1:
            raise ValueError(
                f"acceptance_min_attempts must be >= 1, got {self.acceptance_min_attempts}"
            )

    def to_doc(self) -> dict:
        doc = dataclasses.asdict(self)
        if self.acceptance_band is not None:
            doc["acceptance_band"] = list(self.acceptance_band)
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> HealthRules:
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown health-rule keys {sorted(unknown)}; known keys: {sorted(known)}"
            )
        kwargs = dict(doc)
        band = kwargs.get("acceptance_band")
        if band is not None:
            kwargs["acceptance_band"] = tuple(band)
        return cls(**kwargs)


def clock_comm_seconds(clock) -> float:
    """Modeled seconds a rank's clock spent communicating or waiting.

    The numerator of the comm-fraction rule: every comm-side category
    (:data:`~repro.util.timer.COMM_CATEGORIES` plus
    :data:`~repro.util.timer.WAIT_CATEGORIES`) summed from the clock's
    breakdown, matching the scheduler's ``comm_fraction`` accounting.
    """
    from repro.util.timer import COMM_CATEGORIES, WAIT_CATEGORIES

    breakdown = clock.breakdown()
    return sum(breakdown.get(c, 0.0) for c in COMM_CATEGORIES + WAIT_CATEGORIES)


def load_health_rules(path: str) -> HealthRules:
    """Load :class:`HealthRules` from a JSON file (unknown keys rejected)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"health rules file {path!r} must contain a JSON object")
    return HealthRules.from_doc(doc)


@dataclass(frozen=True)
class HealthEvent:
    """One structured alert emitted by the rules engine."""

    rule: str
    severity: str
    sweep: int
    rank: int
    message: str
    replica: int | None = None
    t_model: float = 0.0
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, got {self.severity!r}")

    def to_doc(self) -> dict:
        doc = {
            "kind": "health_event",
            "rule": self.rule,
            "severity": self.severity,
            "sweep": self.sweep,
            "rank": self.rank,
            "t_model": self.t_model,
            "message": self.message,
        }
        if self.replica is not None:
            doc["replica"] = self.replica
        if self.data:
            doc["data"] = self.data
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> HealthEvent:
        return cls(
            rule=doc["rule"],
            severity=doc["severity"],
            sweep=doc["sweep"],
            rank=doc["rank"],
            message=doc["message"],
            replica=doc.get("replica"),
            t_model=doc.get("t_model", 0.0),
            data=doc.get("data", {}),
        )


class _ObservableTracker:
    """Streaming estimators plus NaN bookkeeping for one observable."""

    __slots__ = ("welford", "binning", "nan_seen")

    def __init__(self) -> None:
        self.welford = Welford()
        self.binning = StreamingBinning()
        self.nan_seen = False

    def summary(self) -> dict:
        doc = self.binning.summary()
        doc["nan_seen"] = self.nan_seen
        return doc


class HealthMonitor:
    """Evaluates :class:`HealthRules` against streamed run state.

    One monitor per rank (``rank``/``replica`` stamp every event).  The
    driver feeds measurements via :meth:`observe` and calls
    :meth:`check` every ``rules.interval`` sweeps with the cumulative
    attempted/accepted counters and, for modeled SPMD runs, the model
    time and comm seconds from the rank's clock breakdown.
    """

    enabled = True

    def __init__(self, rules: HealthRules, *, rank: int = 0, replica: int | None = None):
        self.rules = rules
        self.rank = rank
        self.replica = replica
        #: Modeled-time coordinate stamped onto emitted events; drivers
        #: with a model clock refresh it (directly or via ``check``) so
        #: alerts land at the right spot on the Chrome-trace timeline.
        self.t_model = 0.0
        self.events: list[HealthEvent] = []
        self._trackers: dict[str, _ObservableTracker] = {}
        self._rhat: dict[str, float] = {}
        # Windowed acceptance: counters at the previous check.
        self._prev_attempted = 0
        self._prev_accepted = 0
        self._last_check_sweep: int | None = None
        # Transition state per rule (True = currently in violation).
        self._active: dict[str, bool] = {}

    # -- feeding ---------------------------------------------------------
    def observe(self, name: str, value: float, sweep: int) -> None:
        """Push one measured scalar; NaN/Inf raise a sentinel instead of
        poisoning the estimators."""
        tracker = self._trackers.get(name)
        if tracker is None:
            tracker = self._trackers[name] = _ObservableTracker()
        value = float(value)
        if not math.isfinite(value):
            if self.rules.nan_check and not tracker.nan_seen:
                self._emit(
                    f"nan:{name}",
                    "critical",
                    sweep,
                    f"non-finite value {value!r} measured for {name!r}",
                    data={"observable": name, "value": repr(value)},
                )
            tracker.nan_seen = True
            return
        tracker.welford.push(value)
        tracker.binning.push(value)

    def observe_rhat(self, name: str, rhat: float, sweep: int) -> None:
        """Record a cross-replica R-hat and apply the ``rhat_max`` rule."""
        self._rhat[name] = float(rhat)
        limit = self.rules.rhat_max
        if limit is None:
            return
        bad = not math.isfinite(rhat) or rhat > limit
        self._transition(
            f"rhat:{name}",
            bad,
            "warning",
            sweep,
            f"R-hat for {name!r} is {rhat:.4f} (limit {limit})",
            f"R-hat for {name!r} back to {rhat:.4f} (limit {limit})",
            data={"observable": name, "rhat": float(rhat), "limit": limit},
        )

    # -- checking --------------------------------------------------------
    def check(
        self,
        sweep: int,
        *,
        attempted: int,
        accepted: int,
        model_seconds: float | None = None,
        comm_seconds: float | None = None,
    ) -> None:
        """Evaluate the windowed rules at one check point.

        ``attempted``/``accepted`` are cumulative counters; the rules
        look at the delta since the previous check.  ``model_seconds``/
        ``comm_seconds`` come from the rank's modeled clock (a chain
        models no time: at zero the comm-fraction rule stays dormant).
        """
        if model_seconds is not None:
            self.t_model = model_seconds
        d_att = attempted - self._prev_attempted
        d_acc = accepted - self._prev_accepted
        first = self._last_check_sweep is None
        self._prev_attempted = attempted
        self._prev_accepted = accepted
        self._last_check_sweep = sweep

        if self.rules.stall_check and not first:
            self._transition(
                "stall",
                d_att == 0,
                "critical",
                sweep,
                "no moves attempted since the previous health check",
                "sweep progress resumed",
                data={"attempted": attempted},
            )

        band = self.rules.acceptance_band
        if band is not None and d_att >= self.rules.acceptance_min_attempts:
            rate = d_acc / d_att
            lo, hi = band
            self._transition(
                "acceptance",
                not lo <= rate <= hi,
                "warning",
                sweep,
                f"windowed acceptance rate {rate:.4f} outside [{lo}, {hi}]",
                f"windowed acceptance rate {rate:.4f} back inside [{lo}, {hi}]",
                data={"rate": rate, "band": [lo, hi], "attempted": d_att, "accepted": d_acc},
            )

        limit = self.rules.comm_fraction_max
        if (
            limit is not None
            and model_seconds is not None
            and comm_seconds is not None
            and model_seconds > 0.0
        ):
            fraction = comm_seconds / model_seconds
            self._transition(
                "comm_fraction",
                fraction > limit,
                "warning",
                sweep,
                f"comm fraction {fraction:.4f} exceeds {limit} of modeled time",
                f"comm fraction {fraction:.4f} back under {limit}",
                data={"fraction": fraction, "limit": limit},
            )

    # -- event plumbing --------------------------------------------------
    def _transition(
        self,
        rule: str,
        bad: bool,
        severity: str,
        sweep: int,
        message: str,
        recovered_message: str,
        *,
        data: dict,
    ) -> None:
        was_bad = self._active.get(rule, False)
        if bad and not was_bad:
            self._emit(rule, severity, sweep, message, data=data)
        elif not bad and was_bad:
            self._emit(rule, "info", sweep, recovered_message, data=data)
        self._active[rule] = bad

    def _emit(self, rule: str, severity: str, sweep: int, message: str, *, data: dict) -> None:
        self.events.append(
            HealthEvent(
                rule=rule,
                severity=severity,
                sweep=sweep,
                rank=self.rank,
                replica=self.replica,
                t_model=self.t_model,
                message=message,
                data=data,
            )
        )

    # -- results ---------------------------------------------------------
    def event_docs(self) -> list[dict]:
        """Events as JSON-able dicts (what rank programs return)."""
        return [e.to_doc() for e in self.events]

    def summary(self) -> dict:
        """JSON-able roll-up: event tallies plus per-observable estimator
        state; ``healthy`` means no warning/critical event fired."""
        by_severity = {s: 0 for s in SEVERITIES}
        by_rule: dict[str, int] = {}
        for event in self.events:
            by_severity[event.severity] += 1
            by_rule[event.rule] = by_rule.get(event.rule, 0) + 1
        doc = {
            "rank": self.rank,
            "n_events": len(self.events),
            "by_severity": by_severity,
            "by_rule": dict(sorted(by_rule.items())),
            "healthy": by_severity["warning"] == 0 and by_severity["critical"] == 0,
            "observables": {
                name: tracker.summary() for name, tracker in sorted(self._trackers.items())
            },
        }
        if self.replica is not None:
            doc["replica"] = self.replica
        if self._rhat:
            doc["rhat"] = dict(sorted(self._rhat.items()))
        return doc
