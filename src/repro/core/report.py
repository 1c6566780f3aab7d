"""The unified execution report returned by the engine facade.

:class:`ExecutionReport` extends :class:`~repro.core.strategies.base
.StrategyResult` (answer + metrics) with the observability views built
from the same execution — so callers get everything from one object and
never trigger a re-execution to inspect it:

* :attr:`trace` — the structured span :class:`~repro.obs.spans.Trace`
  with Chrome-trace / JSONL / Gantt exporters;
* :attr:`registry` — a :class:`~repro.obs.registry.MetricsRegistry`
  snapshot of counters, gauges and histograms;
* :attr:`utilization` — per-site busy time, queueing delay and the
  schedule's contention-aware critical path.

All three are derived lazily and cached; building them never re-runs
the strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

from repro.conditions.algebra import rank_mechanisms
from repro.core.strategies.base import StrategyResult
from repro.obs.registry import MetricsRegistry, registry_from_metrics
from repro.obs.spans import Trace, TraceEvent
from repro.obs.utilization import UtilizationReport, compute_utilization


@dataclass
class ExecutionReport(StrategyResult):
    """Answer, metrics, trace and utilization of one engine execution."""

    query_text: str = ""
    #: Set by ``engine.recertify``: what the repair pass did (a
    #: :class:`~repro.conditions.recertify.RepairSummary`).  ``None`` on
    #: reports produced by a plain execution.
    repair_summary: Optional[object] = None

    @classmethod
    def from_result(
        cls, result: StrategyResult, query_text: str = ""
    ) -> "ExecutionReport":
        if isinstance(result, cls):
            return result
        return cls(
            results=result.results,
            metrics=result.metrics,
            availability=result.availability,
            repair=result.repair,
            exchanges=result.exchanges,
            query_text=query_text,
        )

    # --- derived observability views (lazy; never re-execute) -------------

    @cached_property
    def trace(self) -> Trace:
        return Trace(
            strategy=self.metrics.strategy,
            spans=self.metrics.spans,
            events=self.metrics.events,
            query_text=self.query_text,
            fault_windows=self.metrics.fault_windows,
        )

    @cached_property
    def registry(self) -> MetricsRegistry:
        return registry_from_metrics(self.metrics)

    @cached_property
    def utilization(self) -> UtilizationReport:
        return compute_utilization(
            self.metrics.spans, window=self.metrics.response_time or None
        )

    def record_event(self, event: TraceEvent) -> None:
        """Append an engine bookkeeping event; resets the cached trace."""
        self.metrics.add_event(event)
        self.__dict__.pop("trace", None)

    # --- rendering --------------------------------------------------------

    def summary(self) -> str:
        text = (
            f"strategy {self.metrics.strategy}: "
            f"{self.results.summary()}; "
            f"total={self.metrics.total_time * 1000:.3f} ms, "
            f"response={self.metrics.response_time * 1000:.3f} ms"
        )
        availability = self.availability.summary()
        if availability != "complete":
            text += f" [{availability}]"
        return text

    def conditions_summary(self) -> str:
        """Mechanism ranking and repair status of the maybe rows.

        Empty when nothing is conditional (keeps ``summary()`` and the
        committed bench baselines byte-stable: this line only ever
        appears through :meth:`explain` or the ``recertify`` CLI).
        """
        parts = []
        sampling, systematic = rank_mechanisms(self.results)
        if sampling or systematic:
            parts.append(
                f"maybe rows: sampling={sampling} systematic={systematic}"
            )
        if self.repair_summary is not None:
            parts.append(self.repair_summary.describe())
        elif self.repair is not None:
            parts.append("repairable: run engine.recertify(report)")
        return "; ".join(parts)

    def phase_table(self) -> str:
        """Per-phase busy seconds, widest first."""
        items = sorted(
            self.metrics.phase_time.items(), key=lambda kv: -kv[1]
        )
        if not items:
            return "(no phases)"
        width = max(len(name) for name, _ in items)
        rows = "\n".join(
            f"  {name.ljust(width)}  {seconds * 1000:9.3f} ms"
            for name, seconds in items
        )
        return "busy time per phase:\n" + rows

    def explain(self, width: int = 48) -> str:
        """The full text report: summary, phases, utilization, Gantt.

        Rendered entirely from this report — the query is *not*
        executed again.
        """
        parts = [self.summary()]
        conditional = self.conditions_summary()
        if conditional:
            parts.append(conditional)
        parts += [
            "",
            self.phase_table(),
            "",
            self.utilization.table(),
            "",
            self.trace.gantt(width=width),
        ]
        return "\n".join(parts)

    # --- round-trip -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable dump of the whole report."""
        return {
            "strategy": self.metrics.strategy,
            "query_text": self.query_text,
            "answers": {
                "certain": self.metrics.certain_results,
                "maybe": self.metrics.maybe_results,
                "rows": self.results.to_dicts(),
            },
            "availability": self.availability.to_dict(),
            "metrics": self.registry.snapshot(),
            "trace": self.trace.to_dict(),
            "utilization": self.utilization.to_dict(),
        }
