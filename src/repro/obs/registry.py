"""The metrics registry: counters, gauges and timing histograms.

Subsumes the ad-hoc :class:`~repro.sim.metrics.WorkCounters`: every
strategy execution publishes its logical work, its simulated timings and
its span-duration distributions into one :class:`MetricsRegistry`, which
benchmarks and exporters consume uniformly (``snapshot()`` gives a flat
JSON-friendly dict).

Instruments are created on first use and are cheap plain-Python
objects — there is no background collection thread and no sampling; the
simulated federation is fully deterministic, so every observation is
exact.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

Number = Union[int, float]


@dataclass
class Counter:
    """A monotonically increasing count (events, bytes, comparisons)."""

    name: str
    help: str = ""
    value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (a timing, a ratio, a queue depth)."""

    name: str
    help: str = ""
    value: float = 0.0

    def set(self, value: Number) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """A distribution of observations (span durations, queue delays).

    Keeps every observation (executions are small and deterministic), so
    percentiles are exact rather than bucketed estimates.
    """

    name: str
    help: str = ""
    _values: List[float] = field(default_factory=list)

    def observe(self, value: Number) -> None:
        bisect.insort(self._values, float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def minimum(self) -> float:
        return self._values[0] if self._values else 0.0

    @property
    def maximum(self) -> float:
        return self._values[-1] if self._values else 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Exact p-th percentile, p in [0, 100]: the observation at index
        ``round(p / 100 * (n - 1))`` of the ascending list, with Python's
        round-half-to-even.  This is not the nearest-rank ``ceil(q * n)``
        rule of :func:`repro.traffic.driver._percentile`."""
        if not self._values:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        rank = max(0, min(len(self._values) - 1,
                          round(p / 100.0 * (len(self._values) - 1))))
        return self._values[rank]

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class MetricsRegistry:
    """A named collection of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # --- instrument access (create on first use) --------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            self._check_free(name)
            inst = self._counters[name] = Counter(name=name, help=help)
        return inst

    def gauge(self, name: str, help: str = "") -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            self._check_free(name)
            inst = self._gauges[name] = Gauge(name=name, help=help)
        return inst

    def histogram(self, name: str, help: str = "") -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            self._check_free(name)
            inst = self._histograms[name] = Histogram(name=name, help=help)
        return inst

    def _check_free(self, name: str) -> None:
        for table in (self._counters, self._gauges, self._histograms):
            if name in table:
                raise ValueError(
                    f"metric {name!r} already registered with another type"
                )

    # --- inspection -------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        ))

    def get(self, name: str) -> Optional[Union[Counter, Gauge, Histogram]]:
        return (
            self._counters.get(name)
            or self._gauges.get(name)
            or self._histograms.get(name)
        )

    def value(self, name: str) -> float:
        """The scalar value of a counter or gauge (KeyError if absent)."""
        if name in self._counters:
            return float(self._counters[name].value)
        if name in self._gauges:
            return self._gauges[name].value
        raise KeyError(name)

    def snapshot(self) -> Dict[str, object]:
        """Flat JSON-friendly dict: scalars plus histogram summaries."""
        out: Dict[str, object] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.summary()
        return dict(sorted(out.items()))


def registry_from_metrics(metrics: object) -> MetricsRegistry:
    """Publish one :class:`~repro.sim.metrics.ExecutionMetrics` into a
    fresh registry.

    Layout (all names stable, consumed by benches and exporters):

    * ``work.<field>`` — counters from :class:`WorkCounters`;
    * ``cache.hit`` / ``cache.miss`` — counters of mapping-index and
      decomposition cache lookups (``cache.hit_rate`` as a gauge);
    * ``answers.certain`` / ``answers.maybe`` — counters;
    * ``time.total`` / ``time.response`` — gauges (simulated seconds);
    * ``time.phase.<P|O|I|scan|transfer>`` — gauges;
    * ``site.busy.<site>`` — gauges;
    * ``span.duration.<phase>`` — histograms over span durations;
    * ``span.queue_delay`` — histogram over FIFO queueing delays.
    """
    registry = MetricsRegistry()
    work = metrics.work
    for fname in (
        "objects_scanned",
        "objects_shipped",
        "assistants_looked_up",
        "assistants_checked",
        "signature_comparisons",
        "comparisons",
        "bytes_disk",
        "bytes_network",
        "messages",
        "retries",
        "timeouts",
        "messages_lost",
        "checks_failed_over",
    ):
        registry.counter(f"work.{fname}").inc(getattr(work, fname))
    registry.counter(
        "cache.hit", help="mapping-index / decomposition cache hits"
    ).inc(work.cache_hits)
    registry.counter(
        "cache.miss", help="mapping-index / decomposition cache misses"
    ).inc(work.cache_misses)
    registry.gauge(
        "cache.hit_rate", help="hits over total cache lookups"
    ).set(work.cache_hit_rate)
    registry.counter("answers.certain").inc(metrics.certain_results)
    registry.counter("answers.maybe").inc(metrics.maybe_results)
    registry.gauge("time.total").set(metrics.total_time)
    registry.gauge("time.response").set(metrics.response_time)
    for phase, seconds in metrics.phase_time.items():
        registry.gauge(f"time.phase.{phase}").set(seconds)
    for site, seconds in metrics.site_busy.items():
        registry.gauge(f"site.busy.{site}").set(seconds)
    queue_delay = registry.histogram(
        "span.queue_delay", help="FIFO wait before each span ran"
    )
    for span in metrics.spans:
        registry.histogram(f"span.duration.{span.phase}").observe(span.duration)
        queue_delay.observe(span.queue_delay)
    registry.counter("spans.count").inc(len(metrics.spans))
    return registry
