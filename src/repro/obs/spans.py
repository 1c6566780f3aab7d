"""Structured spans: the unit of federation observability.

A :class:`Span` is one completed unit of work on the simulated
federation — a disk scan, a CPU burst, or a network transfer — with its
phase tag (P/O/I/scan/transfer), the site that performed it, the
resource it occupied, and its measured ``[start, finish]`` window on the
simulated clock.  Spans also carry their *queueing delay* (how long the
work sat ready but waiting for its FIFO resource) and the indices of the
spans they depended on, so exporters and utilization profiles can
reconstruct the schedule's structure.

A :class:`Trace` bundles the spans of one strategy execution together
with instantaneous :class:`TraceEvent` records (e.g. an implicit
signature-catalog build) and offers the exporters as methods:
``to_chrome_json()``, ``to_jsonl()``, ``gantt()``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Phase tag used for engine-level (non-simulated) setup events.
PHASE_SETUP = "setup"


@dataclass(frozen=True)
class Span:
    """One completed unit of work in a strategy's simulated schedule."""

    index: int
    name: str
    phase: str
    site: str
    resource: str
    start: float
    finish: float
    nbytes: int = 0
    #: Simulated seconds the work waited for its resource after its
    #: dependencies completed (FIFO queueing at a busy device).
    queue_delay: float = 0.0
    #: Indices (within the same trace) of the spans this one waited on.
    deps: Tuple[int, ...] = ()

    @property
    def duration(self) -> float:
        return self.finish - self.start

    @property
    def ready(self) -> float:
        """When the span's dependencies were done and it could queue."""
        return self.start - self.queue_delay

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "name": self.name,
            "phase": self.phase,
            "site": self.site,
            "resource": self.resource,
            "start": self.start,
            "finish": self.finish,
            "nbytes": self.nbytes,
            "queue_delay": self.queue_delay,
            "deps": list(self.deps),
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "Span":
        return cls(
            index=int(raw["index"]),
            name=str(raw["name"]),
            phase=str(raw["phase"]),
            site=str(raw["site"]),
            resource=str(raw["resource"]),
            start=float(raw["start"]),
            finish=float(raw["finish"]),
            nbytes=int(raw.get("nbytes", 0)),
            queue_delay=float(raw.get("queue_delay", 0.0)),
            deps=tuple(int(d) for d in raw.get("deps", ())),
        )


@dataclass(frozen=True)
class TraceEvent:
    """An instantaneous occurrence worth recording (not simulated work).

    Used for engine bookkeeping that happens outside the simulated
    clock — e.g. the implicit ``build_signatures()`` a signature
    strategy triggers, or the adaptive optimizer's prediction.
    """

    name: str
    attrs: Tuple[Tuple[str, str], ...] = ()
    ts: float = 0.0

    @classmethod
    def of(cls, name: str, ts: float = 0.0, **attrs: object) -> "TraceEvent":
        return cls(
            name=name,
            attrs=tuple(sorted((k, str(v)) for k, v in attrs.items())),
            ts=ts,
        )

    def attr_dict(self) -> Dict[str, str]:
        return dict(self.attrs)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "ts": self.ts, "attrs": self.attr_dict()}

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "TraceEvent":
        attrs = raw.get("attrs", {})
        return cls(
            name=str(raw["name"]),
            attrs=tuple(sorted((str(k), str(v)) for k, v in dict(attrs).items())),
            ts=float(raw.get("ts", 0.0)),
        )


def spans_from_nodes(nodes: Sequence[object]) -> Tuple[Span, ...]:
    """Flatten executed taskgraph nodes into spans, ordered by start.

    Accepts any sequence of objects with the :class:`repro.sim.taskgraph
    .Node` shape (``index``/``label``/``phase``/``site``/
    ``resource_name``/``nbytes``/``deps``/``start``/``finish`` and,
    when the kernel recorded it, ``ready``).  The queueing delay is
    ``start - ready`` when the kernel stamped the ready time, otherwise
    ``start - max(dep finishes)``.
    """
    spans: List[Span] = []
    for node in nodes:
        if node.finish is None or node.start is None:
            continue
        ready = getattr(node, "ready", None)
        if ready is None:
            ready = max((d.finish or 0.0 for d in node.deps), default=0.0)
        spans.append(
            Span(
                index=node.index,
                name=node.label,
                phase=node.phase,
                site=node.site,
                resource=node.resource_name,
                start=node.start,
                finish=node.finish,
                nbytes=node.nbytes,
                queue_delay=max(0.0, node.start - ready),
                deps=tuple(d.index for d in node.deps),
            )
        )
    spans.sort(key=lambda s: (s.start, s.finish, s.resource, s.index))
    return tuple(spans)


@dataclass
class Trace:
    """The full observable record of one strategy execution."""

    strategy: str
    spans: Tuple[Span, ...] = ()
    events: Tuple[TraceEvent, ...] = ()
    query_text: str = ""
    #: Injected outage windows as (site, start, end) — rendered by the
    #: exporters as background slices behind the site's spans.
    fault_windows: Tuple[Tuple[str, float, float], ...] = ()

    # --- inspection -------------------------------------------------------

    @property
    def response_time(self) -> float:
        """Completion time of the schedule (max span finish)."""
        return max((s.finish for s in self.spans), default=0.0)

    def phase_spans(self, phase: str) -> Tuple[Span, ...]:
        return tuple(s for s in self.spans if s.phase == phase)

    def site_spans(self, site: str) -> Tuple[Span, ...]:
        return tuple(s for s in self.spans if s.site == site)

    def sites(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(s.site for s in self.spans))

    # --- exporters (implemented in repro.obs.exporters) -------------------

    def to_chrome(self) -> Dict[str, object]:
        """The trace as a Chrome-trace (``chrome://tracing``) dict."""
        from repro.obs.exporters import chrome_trace_dict

        return chrome_trace_dict(self)

    def to_chrome_json(self, indent: Optional[int] = None) -> str:
        """The trace as Chrome-trace JSON text (load in Perfetto)."""
        from repro.obs.exporters import chrome_trace_json

        return chrome_trace_json(self, indent=indent)

    def to_jsonl(self) -> str:
        """The trace as a flat JSONL event log (one record per line)."""
        from repro.obs.exporters import jsonl_log

        return jsonl_log(self)

    def gantt(self, width: int = 48) -> str:
        """The trace as the text Gantt timeline."""
        from repro.obs.exporters import text_gantt

        return text_gantt(self, width=width)

    # --- round-trip -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "strategy": self.strategy,
            "query_text": self.query_text,
            "spans": [s.to_dict() for s in self.spans],
            "events": [e.to_dict() for e in self.events],
        }
        if self.fault_windows:
            payload["fault_windows"] = [list(w) for w in self.fault_windows]
        return payload

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "Trace":
        return cls(
            strategy=str(raw.get("strategy", "?")),
            query_text=str(raw.get("query_text", "")),
            spans=tuple(Span.from_dict(s) for s in raw.get("spans", ())),
            events=tuple(TraceEvent.from_dict(e) for e in raw.get("events", ())),
            fault_windows=tuple(
                (str(w[0]), float(w[1]), float(w[2]))
                for w in raw.get("fault_windows", ())
            ),
        )


def trace_from_jsonl(text: str) -> Trace:
    """Rebuild a :class:`Trace` from its :meth:`Trace.to_jsonl` export."""
    strategy = "?"
    query_text = ""
    spans: List[Span] = []
    events: List[TraceEvent] = []
    windows: List[Tuple[str, float, float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("record")
        if kind == "meta":
            strategy = record.get("strategy", strategy)
            query_text = record.get("query_text", query_text)
        elif kind == "span":
            spans.append(Span.from_dict(record))
        elif kind == "event":
            events.append(TraceEvent.from_dict(record))
        elif kind == "fault_window":
            windows.append(
                (str(record["site"]), float(record["start"]),
                 float(record["end"]))
            )
    return Trace(
        strategy=strategy,
        spans=tuple(spans),
        events=tuple(events),
        query_text=query_text,
        fault_windows=tuple(windows),
    )
