"""Per-site resource-utilization profiles computed from the schedule.

For every simulated resource (``DB1:cpu``, ``DB2:disk``, the shared
``net`` channel) the profile reports busy time, utilization over the
response window, and accumulated FIFO queueing delay; sites aggregate
their devices.  The report also extracts the schedule's **critical
path** — the chain of spans whose durations sum to the response time —
which is what actually limits a strategy's latency (e.g. CA's is
dominated by the serialized transfers; PL's by whichever of the check
pipeline and the local evaluation finishes last).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.spans import Span

#: Tolerance for float comparisons on simulated timestamps.
_EPS = 1e-9


@dataclass(frozen=True)
class ResourceProfile:
    """Aggregate activity of one simulated resource."""

    resource: str
    site: str
    busy: float = 0.0
    queue_delay: float = 0.0
    spans: int = 0
    nbytes: int = 0

    def utilization(self, window: float) -> float:
        """Fraction of *window* this resource spent busy."""
        return self.busy / window if window > 0 else 0.0


@dataclass(frozen=True)
class SiteProfile:
    """Aggregate activity of one site across its devices."""

    site: str
    busy: float = 0.0
    queue_delay: float = 0.0
    spans: int = 0
    resources: Tuple[str, ...] = ()

    def utilization(self, window: float) -> float:
        """Average device utilization at this site over *window*."""
        if window <= 0 or not self.resources:
            return 0.0
        return self.busy / (window * len(self.resources))


@dataclass
class UtilizationReport:
    """Per-site and per-resource utilization of one execution."""

    #: The response window: completion time of the whole schedule.
    window: float = 0.0
    resources: Dict[str, ResourceProfile] = field(default_factory=dict)
    sites: Dict[str, SiteProfile] = field(default_factory=dict)
    #: The chain of spans bounding the response time, in schedule order.
    critical_path: Tuple[Span, ...] = ()

    @property
    def critical_path_time(self) -> float:
        return sum(s.duration for s in self.critical_path)

    def table(self) -> str:
        """The profiles as a short text table (for explain/benches)."""
        lines = ["resource          busy ms   util%   queued ms   spans"]
        for name in sorted(self.resources):
            prof = self.resources[name]
            lines.append(
                f"{name:<16} {prof.busy * 1000:9.3f}  "
                f"{prof.utilization(self.window) * 100:5.1f}  "
                f"{prof.queue_delay * 1000:10.3f}  {prof.spans:6d}"
            )
        lines.append(
            f"critical path: {len(self.critical_path)} spans, "
            f"{self.critical_path_time * 1000:.3f} ms "
            f"of {self.window * 1000:.3f} ms window"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "resources": {
                name: {
                    "site": prof.site,
                    "busy": prof.busy,
                    "queue_delay": prof.queue_delay,
                    "spans": prof.spans,
                    "nbytes": prof.nbytes,
                }
                for name, prof in self.resources.items()
            },
            "critical_path": [s.index for s in self.critical_path],
        }


def compute_utilization(
    spans: Sequence[Span], window: Optional[float] = None
) -> UtilizationReport:
    """Profile *spans* (one executed schedule) into a report.

    Every resource is a capacity-1 FIFO server, so a resource's busy
    time is exactly the sum of its span durations and can never exceed
    the response window.
    """
    if window is None:
        window = max((s.finish for s in spans), default=0.0)
    by_resource: Dict[str, List[Span]] = {}
    for span in spans:
        # Resource-less spans are pure waiting (fault timeouts and
        # backoffs): they occupy no device, so label them as a per-site
        # wait lane instead of leaving a blank utilization row.
        name = span.resource or f"{span.site}:fault-wait"
        by_resource.setdefault(name, []).append(span)

    resources: Dict[str, ResourceProfile] = {}
    site_busy: Dict[str, float] = {}
    site_delay: Dict[str, float] = {}
    site_spans: Dict[str, int] = {}
    site_resources: Dict[str, List[str]] = {}
    for name, members in sorted(by_resource.items()):
        site = name.split(":", 1)[0] if ":" in name else "network"
        prof = ResourceProfile(
            resource=name,
            site=site,
            busy=sum(s.duration for s in members),
            queue_delay=sum(s.queue_delay for s in members),
            spans=len(members),
            nbytes=sum(s.nbytes for s in members),
        )
        resources[name] = prof
        if name.endswith(":fault-wait"):
            # Waiting keeps no device busy; show the lane but leave the
            # site's device-busy aggregate untouched.
            continue
        site_busy[site] = site_busy.get(site, 0.0) + prof.busy
        site_delay[site] = site_delay.get(site, 0.0) + prof.queue_delay
        site_spans[site] = site_spans.get(site, 0) + prof.spans
        site_resources.setdefault(site, []).append(name)

    sites = {
        site: SiteProfile(
            site=site,
            busy=site_busy[site],
            queue_delay=site_delay[site],
            spans=site_spans[site],
            resources=tuple(site_resources[site]),
        )
        for site in site_busy
    }
    return UtilizationReport(
        window=window,
        resources=resources,
        sites=sites,
        critical_path=critical_path(spans),
    )


def critical_path(spans: Sequence[Span]) -> Tuple[Span, ...]:
    """The chain of spans that bounds the schedule's completion time.

    Walks backwards from the last-finishing span.  At each step the
    predecessor is whichever blocked the span's start the longest: a
    dependency (the span could not be ready earlier) or, when the span
    queued after being ready, the span that occupied its resource until
    the moment it started.  The walk follows actual timestamps, so
    resource contention — not just declared dependencies — shows up on
    the path, which is exactly the paper's "transfer time gets longer
    when more component databases transfer simultaneously" effect.
    """
    if not spans:
        return ()
    by_index: Mapping[int, Span] = {s.index: s for s in spans}
    path: List[Span] = []
    current: Optional[Span] = max(spans, key=lambda s: (s.finish, s.duration))
    seen = set()
    while current is not None and current.index not in seen:
        seen.add(current.index)
        path.append(current)
        blocker: Optional[Span] = None
        if current.queue_delay > _EPS:
            # Ready but queued: blocked by the span holding the resource.
            blocker = max(
                (
                    s
                    for s in spans
                    if s.resource == current.resource
                    and s.index != current.index
                    and s.finish <= current.start + _EPS
                    and s.finish > current.ready + _EPS
                ),
                key=lambda s: s.finish,
                default=None,
            )
        if blocker is None:
            # Blocked by the latest-finishing dependency.
            blocker = max(
                (by_index[d] for d in current.deps if d in by_index),
                key=lambda s: s.finish,
                default=None,
            )
            if blocker is not None and blocker.finish <= _EPS and blocker.duration <= _EPS:
                blocker = None  # zero-cost barrier at time zero: stop.
        current = blocker
    path.reverse()
    return tuple(path)
