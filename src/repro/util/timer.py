"""Modeled-time accounting.

Two clocks coexist in this codebase:

* real wall-clock time (``time.perf_counter``), recorded per sweep by
  the ``sweep.*`` counters of :mod:`repro.obs.metrics`, and
* **modeled time** -- the virtual machine charges each rank for
  computation (flop counts / machine flop rate) and communication
  (latency--bandwidth model).  Modeled time is what the scaling
  benchmarks report, because it is deterministic and represents the
  1993-era target machine rather than this container.

:class:`ModelClock` is the second: a trivial accumulator whose richness
lives in who charges it (see :mod:`repro.vmp.comm`).
"""

from __future__ import annotations

__all__ = [
    "ModelClock",
    "COMPUTE_CATEGORIES",
    "COMM_CATEGORIES",
    "WAIT_CATEGORIES",
]

#: Clock categories that count as useful computation.  The overlapped
#: schedule splits a stage's kernel charge into ``interior`` (updates
#: with no ghost dependence, charged while halos are in flight) and
#: ``boundary`` (the rest, charged after the wait); plain drivers
#: charge everything to ``compute``.
COMPUTE_CATEGORIES: tuple[str, ...] = ("compute", "interior", "boundary")

#: Categories of CPU time spent *inside* communication calls (software
#: overhead charged by the cost model, not wire time): ``comm``, halo
#: exchanges and collectives alike.
COMM_CATEGORIES: tuple[str, ...] = ("comm",)

#: Categories of idle time blocked on a message that has not arrived.
#: ``halo_wait`` is the overlapped schedule's residual wait after the
#: interior charge; ``comm_wait`` is the blocking-receive wait of the
#: non-overlapped path.
WAIT_CATEGORIES: tuple[str, ...] = ("comm_wait", "halo_wait")


class ModelClock:
    """Deterministic simulated-time accumulator for one rank.

    Time is split into named categories (``compute``, ``halo``,
    ``collective``, ...) so benchmarks can report communication
    fractions.  ``advance_to`` supports synchronization: a barrier or a
    blocking receive moves a rank's clock forward to the event time.
    """

    #: Optional ``(category, t_start, t_end)`` callback fired on every
    #: charge/wait -- the hook span-based tracing hangs off (see
    #: :class:`repro.obs.spans.SpanCollector`).  Class attribute so the
    #: common unobserved case costs one falsy attribute test.
    observer = None

    def __init__(self) -> None:
        self._now = 0.0
        self._by_category: dict[str, float] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def charge(self, seconds: float, category: str = "compute") -> None:
        """Advance the clock by ``seconds``, attributed to ``category``."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        start = self._now
        self._now = start + seconds
        self._by_category[category] = self._by_category.get(category, 0.0) + seconds
        if self.observer is not None:
            self.observer(category, start, self._now)

    def advance_to(self, t: float, category: str = "wait") -> None:
        """Move the clock to absolute time ``t`` if that is in the future.

        The waited interval is attributed to ``category``.  Moving to a
        past instant is a no-op (the rank was simply already late).
        """
        if t > self._now:
            start = self._now
            self._by_category[category] = self._by_category.get(category, 0.0) + (
                t - start
            )
            self._now = t
            if self.observer is not None:
                self.observer(category, start, t)

    def breakdown(self) -> dict[str, float]:
        """Seconds spent per category (copy)."""
        return dict(self._by_category)

    def fraction(self, category: str) -> float:
        """Share of total elapsed time spent in ``category``."""
        if self._now == 0.0:
            return 0.0
        return self._by_category.get(category, 0.0) / self._now

    def reset(self) -> None:
        self._now = 0.0
        self._by_category.clear()
