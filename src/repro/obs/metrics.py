"""Per-rank metrics registry: counters, gauges, fixed-bucket histograms.

The SC'93 genre sold itself on *measured* parallel behaviour -- update
rates, communication fractions, per-node byte counts -- so the runtime
needs an always-available, near-zero-cost way to ask "what did rank 2
do between sweeps 300 and 400".  This module is that substrate:

* :class:`MetricsRegistry` -- one per run.  Owns every metric, keyed by
  ``(rank, name)``; rank namespacing is structural (each rank writes
  into its own dict), so per-rank isolation holds even with all ranks
  recording concurrently from scheduler threads.
* :class:`RankMetrics` -- one rank's recording facade, obtained via
  :meth:`MetricsRegistry.scope`.  Hot paths cache the metric objects
  they touch (``counter(...)`` once, ``inc(...)`` per event), so the
  steady-state cost of an enabled counter is one attribute lookup and
  one float add.
* :data:`NOOP` -- the disabled recorder.  Every recording method is a
  ``pass``; ``enabled`` is False so hot loops can skip even the call
  with a single attribute test.  The communicator and the drivers
  default to it, which is what "off by default, ~0% overhead" means.
* :data:`NOOP_HEALTH` -- the disabled run-health monitor, kept here so
  that a run without health checks never imports :mod:`repro.obs.health`.

Metric naming scheme (see DESIGN.md "Observability"): dotted lowercase
``subsystem.quantity_unit`` -- e.g. ``comm.bytes_sent``,
``sweep.model_seconds``, ``checkpoint.wall_seconds``.  Quantities in
the *modeled* clock domain are derived exclusively from
:class:`~repro.util.timer.ModelClock` readings and are bit-reproducible
across runs; wall-clock quantities are always suffixed
``wall_seconds`` and are the only nondeterministic values in a run's
telemetry.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsFanout",
    "RankMetrics",
    "NoopMetrics",
    "NOOP",
    "NoopHealthMonitor",
    "NOOP_HEALTH",
    "ACCEPTANCE_EDGES",
    "MESSAGE_BYTES_EDGES",
]

#: Fixed bucket edges of the per-sweep acceptance-rate histogram.
ACCEPTANCE_EDGES = tuple(i / 10 for i in range(1, 10))

#: Fixed bucket edges of the per-message wire-size histogram (bytes).
MESSAGE_BYTES_EDGES = (64, 256, 1024, 4096, 16384, 65536, 262144)


class Counter:
    """A monotonically increasing sum (counts, bytes, seconds)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_value(self) -> float:
        return self.value


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_value(self) -> float:
        return self.value


class Histogram:
    """A fixed-bucket histogram (edges chosen at creation, never rebinned).

    ``edges`` are the *upper-inclusive right-open* bucket boundaries: a
    value ``v`` lands in the first bucket whose edge satisfies
    ``v <= edge`` -- i.e. bucket ``i`` counts ``edges[i-1] < v <=
    edges[i]`` -- with one overflow bucket past the last edge.  Count
    and sum ride along so means are recoverable without the raw stream.
    """

    __slots__ = ("name", "edges", "counts", "count", "sum")

    def __init__(self, name: str, edges: tuple[float, ...]):
        if not edges or list(edges) != sorted(edges):
            raise ValueError("histogram edges must be non-empty and sorted")
        self.name = name
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_value(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class RankMetrics:
    """One rank's recording facade over a shared :class:`MetricsRegistry`.

    Obtained from :meth:`MetricsRegistry.scope`; all writes land in the
    rank's own metric dict, so two scopes never contend on a metric
    object.  ``interval`` is the snapshot cadence the drivers honor
    (every N sweeps; 0 = end-of-run only).
    """

    enabled = True

    def __init__(self, registry: "MetricsRegistry", rank: int):
        self._registry = registry
        self.rank = int(rank)
        self._metrics = registry._rank_dict(self.rank)
        self.interval = registry.interval

    # -- metric handles (cache these in hot paths) ----------------------
    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(self, name: str, edges: tuple[float, ...]) -> Histogram:
        return self._get_or_create(name, lambda: Histogram(name, edges), Histogram)

    def _get_or_create(self, name, factory, kind):
        metric = self._metrics.get(name)
        if metric is None:
            with self._registry._lock:
                metric = self._metrics.setdefault(name, factory())
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} of rank {self.rank} is a "
                f"{type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    # -- convenience one-shot recorders ---------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                edges: tuple[float, ...] = ACCEPTANCE_EDGES) -> None:
        self.histogram(name, edges).observe(value)

    def snapshot(self, **labels) -> None:
        """Append one JSONL row: this rank's current metric values.

        ``labels`` become row fields (sweep index, modeled time...); the
        drivers call this every ``interval`` sweeps, so the JSONL sink
        is a time series of cumulative values per rank.
        """
        row = {"rank": self.rank, **labels}
        for name, metric in sorted(self._metrics.items()):
            row[name] = metric.to_value()
        self._registry.add_snapshot(row)


class NoopMetrics:
    """The disabled recorder: every method is free, ``enabled`` is False.

    Hot paths either test ``metrics.enabled`` once per batch or just
    call the recording methods (a no-op call is still cheap); neither
    allocates, locks, or touches shared state.
    """

    enabled = False
    rank = -1
    interval = 0

    def counter(self, name: str) -> "_NoopMetric":
        return _NOOP_METRIC

    def gauge(self, name: str) -> "_NoopMetric":
        return _NOOP_METRIC

    def histogram(self, name, edges) -> "_NoopMetric":
        return _NOOP_METRIC

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name, value, edges=()) -> None:
        pass

    def snapshot(self, **labels) -> None:
        pass


class _NoopMetric:
    """Inert Counter/Gauge/Histogram stand-in returned by :data:`NOOP`."""

    name = "noop"
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def to_value(self) -> float:
        return 0.0


_NOOP_METRIC = _NoopMetric()

#: The process-wide disabled recorder (identity matters: ``metrics is
#: NOOP`` is how code asks "is telemetry off?").
NOOP = NoopMetrics()


class NoopHealthMonitor:
    """Inert stand-in for a :class:`~repro.obs.health.HealthMonitor`,
    used when health checks are disabled.

    Mirrors :class:`NoopMetrics`: every method is a no-op so call sites
    need no conditionals beyond ``enabled``.
    """

    enabled = False
    rank = -1
    replica = None
    t_model = 0.0
    events: list = []

    def observe(self, name: str, value: float, sweep: int) -> None:
        pass

    def observe_rhat(self, name: str, rhat: float, sweep: int) -> None:
        pass

    def check(self, sweep: int, **kwargs) -> None:
        pass

    def event_docs(self) -> list[dict]:
        return []

    def summary(self) -> dict:
        return {}


#: Shared inert monitor for disabled call sites.
NOOP_HEALTH = NoopHealthMonitor()


class MetricsRegistry:
    """All metrics of one run, namespaced per rank.

    ``interval`` is the snapshot cadence (sweeps) handed to every
    :class:`RankMetrics` scope; ``namespace`` tags exported rows so
    multi-run sinks stay attributable.
    """

    def __init__(self, interval: int = 0, namespace: str = "run"):
        if interval < 0:
            raise ValueError("snapshot interval must be >= 0")
        self.interval = int(interval)
        self.namespace = namespace
        self._lock = threading.Lock()
        self._ranks: dict[int, dict[str, object]] = {}
        self._snapshots: list[dict] = []

    def _rank_dict(self, rank: int) -> dict:
        with self._lock:
            return self._ranks.setdefault(int(rank), {})

    def scope(self, rank: int) -> RankMetrics:
        """The recording facade of one rank (create-on-first-use)."""
        return RankMetrics(self, rank)

    @property
    def ranks(self) -> list[int]:
        with self._lock:
            return sorted(self._ranks)

    def add_snapshot(self, row: dict) -> None:
        with self._lock:
            self._snapshots.append(row)

    def snapshots(self) -> list[dict]:
        """All JSONL rows recorded so far, in arrival order."""
        with self._lock:
            return list(self._snapshots)

    def summary(self) -> dict[int, dict]:
        """``{rank: {metric_name: value}}`` of every registered metric.

        Histogram values are dicts (edges/counts/count/sum); counters
        and gauges are plain numbers -- directly JSON-serializable, and
        what the run manifest embeds per rank.
        """
        with self._lock:
            return {
                rank: {name: m.to_value() for name, m in sorted(metrics.items())}
                for rank, metrics in sorted(self._ranks.items())
            }


class MetricsFanout:
    """The one rank scope of a :func:`repro.qmc.chains.chain_program`
    run, written into each chain's ``scopes``, one per ``(registry,
    rank)`` pair: ranks ``0 .. R-1`` of one registry for a replica run,
    rank 0 of each run's registry for a seed batch
    (:func:`repro.run.simulation.run_batch`).  Stands in for the
    :class:`MetricsRegistry` of ``run_alone(metrics=...)``; what the
    chains share (comm counters, phase gauges, snapshots) reaches each.
    """

    enabled = True
    rank = 0

    def __init__(self, pairs):
        self.scopes = [registry.scope(rank) for registry, rank in pairs]
        self.interval = self.scopes[0].interval

    def scope(self, rank: int) -> "MetricsFanout":
        return self  # the scope of the one rank the run has

    def counter(self, name: str) -> "_FanoutMetric":
        return _FanoutMetric([s.counter(name) for s in self.scopes])

    def gauge(self, name: str) -> "_FanoutMetric":
        return _FanoutMetric([s.gauge(name) for s in self.scopes])

    def histogram(self, name: str, edges: tuple[float, ...]) -> "_FanoutMetric":
        return _FanoutMetric([s.histogram(name, edges) for s in self.scopes])

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def snapshot(self, **labels) -> None:
        for s in self.scopes:
            s.snapshot(**labels)


class _FanoutMetric:
    """One metric of a :class:`MetricsFanout`, held once per scope."""

    def __init__(self, copies):
        self._copies = copies

    def inc(self, amount: float = 1.0) -> None:
        for m in self._copies:
            m.inc(amount)

    def set(self, value: float) -> None:
        for m in self._copies:
            m.set(value)

    def observe(self, value: float) -> None:
        for m in self._copies:
            m.observe(value)

    @property
    def value(self) -> float:
        return self._copies[0].value

    @value.setter
    def value(self, value: float) -> None:  # record_comm_counters assigns
        for m in self._copies:
            m.value = value
