"""The ``schedule`` invariant: every schedule keeps the written contract.

:func:`schedule_violation` checks a finished
:meth:`~repro.sim.taskgraph.FederationSim.run` against the clauses of
the :mod:`repro.sim.taskgraph` contract that hold whichever way
same-instant ties fall: ``ready`` is the last dependency's ``finish``
(0 with none); ``finish == start + seconds``, and a delay starts when
ready; a device serves one node at a time, FIFO in the time each joined
its queue (``ready``, or for a transfer under a fault plan the first
instant both endpoints are up); no device idles while a node waits (a
node starts at the later of joining and the previous finish, pushed
past the device's chained outage windows); the response time and each
device's busy and wait time agree with the node times, to float
rounding.  How ties fall is pinned by ``tests/test_taskgraph.py``
(``TestHopOrder``).
"""

from __future__ import annotations

import contextlib
import math
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.sim.taskgraph import FederationSim, Node, SimOutcome

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.faults.plan import FaultPlan


def _close(a: float, b: float) -> bool:
    """Equal but for rounding: a hop raised at ``now`` for instant ``t``
    fires at ``now + (t - now)``, which may miss ``t`` by an ulp."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _up_from(windows: Tuple, t: float) -> float:
    """The first instant from *t* on outside every (sorted) window."""
    for window in windows:
        if window.start <= t < window.end:
            t = window.end
    return t


def schedule_violation(
    outcome: SimOutcome, plan: Optional[FaultPlan]
) -> Optional[str]:
    """The first contract clause *outcome* breaks under *plan*, or None."""
    queued: Dict[str, List[Tuple[Node, float]]] = {}
    windows: Dict[str, Tuple] = {}
    for node in outcome.scheduled:
        where = f"node {node.index} {node.label!r}"
        ready = max((dep.finish for dep in node.deps), default=0.0)
        if node.ready != ready:
            return f"{where} ready at {node.ready}, not at {ready}"
        if node.finish != node.start + node.seconds:
            return f"{where} finishes at {node.finish}, not start + seconds"
        name = node.resource_name
        if not name:
            if node.start != ready:
                return f"{where}, a delay, starts at {node.start}, not {ready}"
            continue
        joined = ready
        while plan is not None and node.dst:
            up = max(plan.next_up(node.site, joined),
                     plan.next_up(node.dst, joined))
            if up <= joined:
                break
            joined = up
        if name not in queued:
            # Like the device: a site device has its site's outages.
            queued[name] = []
            windows[name] = (
                plan.windows(node.site)
                if plan is not None and not node.dst else ()
            )
        queued[name].append((node, joined))

    for name, nodes in queued.items():
        free_at = latest = busy = wait = 0.0
        for node, joined in sorted(
            nodes, key=lambda pair: (pair[0].start, pair[0].finish, pair[1])
        ):
            where = f"node {node.index} {node.label!r} on {name!r}"
            if node.start < free_at:
                return f"{where} starts at {node.start}, busy until {free_at}"
            if joined < latest and not _close(joined, latest):
                return f"{where} queued at {joined}, served after {latest}"
            due = _up_from(windows[name], max(joined, free_at))
            if not _close(node.start, due):
                return f"{where} starts at {node.start}, free and up at {due}"
            latest = max(latest, joined)
            free_at = node.finish
            busy += node.finish - node.start
            wait += node.start - joined
        for field, total in (("busy", busy), ("wait", wait)):
            reported = getattr(outcome, f"resource_{field}").get(name)
            if reported is None or not _close(reported, total):
                return f"{name!r} {field} time {reported}, not {total}"
    for field in ("busy", "wait"):
        if list(getattr(outcome, f"resource_{field}")) != sorted(queued):
            return f"resource_{field} does not list the devices, sorted"
    last = max((node.finish for node in outcome.scheduled), default=0.0)
    if not _close(outcome.response_time, last):
        return f"response time {outcome.response_time}, last finish {last}"
    return None


@contextlib.contextmanager
def checked_schedule(violations: List[str]) -> Iterator[None]:
    """Append a line to *violations* for every ``FederationSim.run`` in
    the block whose outcome breaks the contract.

    The caller gets the outcome (or exception) unchanged.  Restored on
    exit; test scaffolding, not for concurrent use.
    """
    production = FederationSim.run

    def run_checked(fed: FederationSim) -> SimOutcome:
        outcome = production(fed)
        violation = schedule_violation(outcome, fed.fault_plan)
        if violation is not None:
            violations.append(f"FederationSim.run: {violation}")
        return outcome

    FederationSim.run = run_checked
    try:
        yield
    finally:
        FederationSim.run = production
