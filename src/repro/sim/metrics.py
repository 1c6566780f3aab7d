"""Execution metrics reported by the strategies.

Bundles the simulated timings with logical work counters (bytes moved,
comparisons performed, objects shipped/checked) and the query answer
summary, so that benchmarks and tests can reason about both performance
and correctness in one object.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.obs.spans import Span, TraceEvent, spans_from_nodes
from repro.sim.taskgraph import Node, SimOutcome


@dataclass
class WorkCounters:
    """Logical work performed by a strategy (cost-model inputs)."""

    objects_scanned: int = 0
    objects_shipped: int = 0
    assistants_looked_up: int = 0
    assistants_checked: int = 0
    signature_comparisons: int = 0
    comparisons: int = 0
    bytes_disk: int = 0
    bytes_network: int = 0
    #: Network messages sent (one per simulated transfer) — the quantity
    #: phase-O batching reduces.
    messages: int = 0
    # Mapping-index / decomposition cache traffic (engine-populated).
    cache_hits: int = 0
    cache_misses: int = 0
    # Fault-tolerance work (zero on fault-free executions).
    retries: int = 0
    timeouts: int = 0
    messages_lost: int = 0
    # Resilience work: relay-rerouted check requests.
    checks_failed_over: int = 0
    # Constraint-planner savings: site blocks proven empty and assistant
    # checks proven UNKNOWN at decomposition (planner=constraints/full).
    sites_pruned: int = 0
    checks_pruned: int = 0
    #: Discharge-condition atoms cleared by recertification (repair).
    conditions_discharged: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Hits over total cache lookups (0.0 when nothing was looked up)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def merge(self, other: "WorkCounters") -> None:
        self.objects_scanned += other.objects_scanned
        self.objects_shipped += other.objects_shipped
        self.assistants_looked_up += other.assistants_looked_up
        self.assistants_checked += other.assistants_checked
        self.signature_comparisons += other.signature_comparisons
        self.comparisons += other.comparisons
        self.bytes_disk += other.bytes_disk
        self.bytes_network += other.bytes_network
        self.messages += other.messages
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.messages_lost += other.messages_lost
        self.checks_failed_over += other.checks_failed_over
        self.sites_pruned += other.sites_pruned
        self.checks_pruned += other.checks_pruned
        self.conditions_discharged += other.conditions_discharged


@dataclass
class ExecutionMetrics:
    """Everything measured about one strategy execution."""

    strategy: str
    total_time: float
    response_time: float
    phase_time: Dict[str, float] = field(default_factory=dict)
    site_busy: Dict[str, float] = field(default_factory=dict)
    work: WorkCounters = field(default_factory=WorkCounters)
    certain_results: int = 0
    maybe_results: int = 0
    #: Structured spans of the schedule (site/resource/queue-delay aware),
    #: built from ``scheduled=`` (the task-graph nodes) on first read.
    spans: Tuple[Span, ...] = None  # type: ignore[assignment]
    #: Instantaneous observability events recorded by the strategy/engine.
    events: Tuple[TraceEvent, ...] = ()
    #: Scheduler-measured FIFO wait per resource (queueing delay).
    resource_wait: Dict[str, float] = field(default_factory=dict)
    #: Injected outage windows as (site, start, end), for trace export.
    fault_windows: Tuple[Tuple[str, float, float], ...] = ()
    scheduled: InitVar[Tuple[Node, ...]] = ()

    def __post_init__(self, scheduled) -> None:
        self._scheduled = scheduled

    def _spans_view(self) -> Tuple[Span, ...]:
        if self._spans is None:
            self._spans = spans_from_nodes(self._scheduled)
        return self._spans

    @classmethod
    def from_outcome(
        cls,
        strategy: str,
        outcome: SimOutcome,
        work: Optional[WorkCounters] = None,
        certain_results: int = 0,
        maybe_results: int = 0,
        events: Sequence[TraceEvent] = (),
        fault_windows: Sequence[Tuple[str, float, float]] = (),
    ) -> "ExecutionMetrics":
        return cls(
            strategy=strategy,
            total_time=outcome.total_time,
            response_time=outcome.response_time,
            phase_time=dict(outcome.phase_time),
            site_busy=dict(outcome.site_busy),
            work=work if work is not None else WorkCounters(),
            certain_results=certain_results,
            maybe_results=maybe_results,
            events=tuple(events),
            resource_wait=dict(outcome.resource_wait),
            fault_windows=tuple(fault_windows),
            scheduled=outcome.scheduled,
        )

    def add_event(self, event: TraceEvent) -> None:
        """Append one observability event (engine/strategy bookkeeping)."""
        self.events = self.events + (event,)

    def summary(self) -> str:
        return (
            f"{self.strategy}: total={self.total_time:.4f}s "
            f"response={self.response_time:.4f}s "
            f"net={self.work.bytes_network}B "
            f"answers={self.certain_results}+{self.maybe_results}m"
        )


# ``spans`` stays a declared field (constructor keyword, equality, repr,
# ``dataclasses.asdict``) whose storage is the view above.
ExecutionMetrics.spans = property(  # type: ignore[assignment]
    ExecutionMetrics._spans_view, lambda self, v: setattr(self, "_spans", v)
)
