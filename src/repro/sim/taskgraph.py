"""Activity graphs scheduled on the simulated federation.

A strategy's execution is described as a DAG of *nodes*:

* **activities** consume a site device (CPU or disk) for a duration;
* **transfers** consume the network channel for ``bytes * T_net``.

Nodes wait for their dependencies, queue FIFO on their resource, run, and
complete.  The graph yields the two quantities the paper reports:

* **total execution time** — the sum of all node durations (total work
  performed in the federation, regardless of overlap);
* **response time** — the simulated completion time of the whole graph
  (what the user waits; parallelism shortens it).

Scheduling contract
-------------------

The graph is static — every node, dependency and duration is known
before :meth:`FederationSim.run` — so ``run`` schedules it in one flat
loop over node indexes.  Simulated time only orders events; between
events of one instant the order below decides who gets a device first,
so it is part of the results and is written down here.  The oracle's
``schedule`` invariant and ``tests/test_property_sim.py`` check every
schedule against the clauses that hold whichever way ties fall
(:func:`repro.difftest.schedule.schedule_violation`);
``tests/test_taskgraph.py::TestHopOrder`` pins how ties fall.

*Events.*  An event fires at an instant.  An event raised for the
current instant (``now + delay == now`` in floating point, so a zero or
sub-ulp duration counts) joins the back of a FIFO; one raised for a
later instant waits in a heap ordered by (instant, order raised).  The
loop always takes, first, a heap event due at the current instant —
it was raised earlier than anything in the FIFO — then the front of the
FIFO, and only when both are empty advances the clock to the next heap
event.  The response time is the instant of the last event.

*Hops.*  Each node goes through these events, one hop each:

1. **begin** — at time 0, in node order, before any other event.  A node
   with dependencies only waits; its dependencies will notify it in the
   order (node, position in ``deps``) the waits were registered.
2. **ready** (inside the begin hop of a node without dependencies, else
   inside the hop of its last notification) — ``ready`` is set.  A
   *delay* sets ``start`` and raises its finish after ``seconds``.  A
   *transfer* under a fault plan whose endpoints are not both up raises
   a **stalled** hop for the instant they are, which checks again.
   Otherwise the node asks for its device: a device inside a downtime
   window queues it and raises a **drain** hop for the window's end; a
   busy device queues it; a free one is taken and the node's started
   hop is raised for this instant.
3. **started** — ``start`` is set; the finish is raised after
   ``seconds``.
4. **finish** — ``finish`` is set.  A delay notifies its dependents here.
   Otherwise the device is released and, if its FIFO is not empty,
   drained — the head's started hop is raised (or, inside a window, a
   drain hop for its end) — and *then* this node's released hop.
5. **released** — one **notified** hop per dependent is raised, in
   registration order.
6. **notified** — the dependent counts one dependency off; at zero it is
   ready (2) in the same hop.

A **drain** hop serves the head of a device's FIFO if the device is
free and up, and re-arms at the end of a window that covers the instant
(chained windows).

The network is a single shared channel by default, so simultaneous
transfers from several component databases queue — reproducing the
paper's observation that "the transfer time gets longer when more
component databases transfer data simultaneously".  Pass
``shared_network=False`` for the ablation with an uncontended network
(one channel per site pair).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids a hard dep
    from repro.faults.plan import FaultPlan
from repro.sim.costs import CostModel, PAPER_COSTS

#: Phase tags used for breakdowns (paper's phases plus bookkeeping).
PHASE_O = "O"  # looking up / checking assistant objects
PHASE_I = "I"  # integration / certification
PHASE_P = "P"  # predicate evaluation
PHASE_XFER = "transfer"
PHASE_SCAN = "scan"  # disk retrieval of extents
PHASE_FAULT = "fault"  # timeout/backoff waits on unreachable sites


@dataclass
class Node:
    """One scheduled unit of work in the activity graph."""

    index: int
    label: str
    resource_name: str
    seconds: float
    phase: str
    site: str
    nbytes: int = 0
    #: Destination site of a transfer ("" for site-local work).  Having
    #: one is what makes a node a transfer: its resource is a network
    #: channel, which no outage takes down, it moves ``nbytes``, and the
    #: scheduler stalls it while either endpoint is inside an outage
    #: window.
    dst: str = ""
    deps: Tuple["Node", ...] = ()
    start: Optional[float] = None
    finish: Optional[float] = None
    #: When dependencies completed and the node began queueing for its
    #: resource — ``start - ready`` is the FIFO queueing delay.
    ready: Optional[float] = None


#: The hops of one node, as the low three bits of an event (the module
#: docstring fixes their order).
_BEGIN, _STARTED, _FINISH, _RELEASED, _NOTIFIED, _DRAIN, _STALLED = range(7)


class _Device:
    """One FIFO server (a CPU, a disk arm, a network channel) in a run."""

    __slots__ = (
        "number", "downtimes", "in_use", "queue",
        "busy_time", "busy_since", "wait_time",
    )

    def __init__(
        self,
        name: str,
        number: int,
        windows: Tuple[Tuple[float, float], ...],
    ) -> None:
        for start, end in windows:
            if end <= start:
                raise SimulationError(
                    f"resource {name!r}: empty downtime [{start}, {end})"
                )
        #: Its index among the run's devices: what a drain event carries.
        self.number = number
        #: Crash windows (start, end), sorted; no grant while inside one.
        self.downtimes = sorted(windows)
        self.in_use = False
        #: Waiting (node index, time it queued), FIFO.
        self.queue: Deque[Tuple[int, float]] = deque()
        self.busy_time = 0.0
        self.busy_since = 0.0
        self.wait_time = 0.0

    def down_until(self, t: float) -> Optional[float]:
        """End of the downtime window covering *t* (None when up)."""
        for start, end in self.downtimes:
            if start <= t < end:
                return end
            if start > t:
                break
        return None


class FederationSim:
    """Builds and runs one strategy's activity graph.

    Typical use::

        fed = FederationSim(["DB1", "DB2", "DB3"], global_site="GPS")
        scan = fed.disk("DB1", nbytes=..., label="scan Student", phase="scan")
        ship = fed.transfer("DB1", "GPS", nbytes=..., deps=[scan])
        join = fed.cpu("GPS", comparisons=..., deps=[ship], phase="I")
        outcome = fed.run()
    """

    def __init__(
        self,
        sites: Sequence[str],
        global_site: str = "GPS",
        cost_model: CostModel = PAPER_COSTS,
        shared_network: bool = True,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> None:
        self.cost_model = cost_model
        self.global_site = global_site
        self.sites: Tuple[str, ...] = tuple(dict.fromkeys(list(sites) + [global_site]))
        self.shared_network = shared_network
        # Kept None when no faults are injected so the fault-free path
        # schedules exactly as before (zero overhead when off).
        self.fault_plan = fault_plan if fault_plan and fault_plan.active else None
        self._nodes: List[Node] = []
        self._ran = False

    # --- graph construction -----------------------------------------------

    def _add(
        self,
        label: str,
        resource_name: str,
        seconds: float,
        phase: str,
        site: str,
        nbytes: float = 0,
        deps: Iterable[Node] = (),
        dst: str = "",
    ) -> Node:
        if self._ran:
            raise SimulationError("cannot add nodes after run()")
        if seconds < 0:
            raise SimulationError(f"node {label!r} has negative duration")
        if not math.isfinite(seconds):
            raise SimulationError(
                f"node {label!r} has non-finite duration {seconds}"
            )
        node = Node(
            index=len(self._nodes),
            label=label,
            resource_name=resource_name,
            seconds=seconds,
            phase=phase,
            site=site,
            nbytes=int(nbytes),
            dst=dst,
            deps=tuple(deps),
        )
        self._nodes.append(node)
        return node

    def cpu(
        self,
        site: str,
        comparisons: float,
        label: str = "cpu",
        phase: str = PHASE_P,
        deps: Iterable[Node] = (),
    ) -> Node:
        """CPU work at *site*, charged at T_c per comparison."""
        self._check_site(site)
        return self._add(
            label,
            f"{site}:cpu",
            self.cost_model.cpu_time(comparisons),
            phase,
            site,
            deps=deps,
        )

    def disk(
        self,
        site: str,
        nbytes: float,
        label: str = "disk",
        phase: str = PHASE_SCAN,
        deps: Iterable[Node] = (),
        seeks: float = 0.0,
    ) -> Node:
        """Disk access at *site*: T_d per byte plus one seek per random
        fetch (*seeks* > 0 for by-LOid object retrievals)."""
        self._check_site(site)
        return self._add(
            label,
            f"{site}:disk",
            self.cost_model.disk_time(nbytes)
            + seeks * self.cost_model.disk_seek_s,
            phase,
            site,
            nbytes=nbytes,
            deps=deps,
        )

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        label: str = "transfer",
        deps: Iterable[Node] = (),
        phase: str = PHASE_XFER,
    ) -> Node:
        """Network transfer, charged at T_net per byte.

        On the shared channel all transfers serialize; otherwise each
        (src, dst) pair has its own channel.  Transfers that belong to a
        protocol phase (e.g. shipping assistant-check requests is phase-O
        work) may carry that phase tag; they still occupy the network,
        not a site device.
        """
        self._check_site(src)
        self._check_site(dst)
        resource = "net" if self.shared_network else f"net:{src}->{dst}"
        seconds = self.cost_model.net_time(nbytes)
        if self.fault_plan is not None:
            seconds *= self.fault_plan.latency_multiplier(src, dst)
        return self._add(
            f"{label} {src}->{dst}",
            resource,
            seconds,
            phase,
            src,
            nbytes=nbytes,
            deps=deps,
            dst=dst,
        )

    def delay(
        self,
        site: str,
        seconds: float,
        label: str = "wait",
        phase: str = PHASE_FAULT,
        deps: Iterable[Node] = (),
    ) -> Node:
        """Pure waiting at *site* (timeout/backoff): occupies simulated
        time but no device — the requester is blocked, not working."""
        self._check_site(site)
        return self._add(label, "", seconds, phase, site, deps=deps)

    def barrier(self, deps: Iterable[Node], label: str = "barrier") -> Node:
        """A zero-cost synchronization node at the global site."""
        return self._add(
            label, f"{self.global_site}:cpu", 0.0, PHASE_I, self.global_site,
            deps=deps,
        )

    def _check_site(self, site: str) -> None:
        if site not in self.sites:
            raise SimulationError(f"unknown site {site!r}")

    # --- execution ----------------------------------------------------------

    def run(self) -> "SimOutcome":
        """Schedule all nodes and collect the outcome.

        One flat event loop over node indexes, in the hop order the
        module docstring fixes.  An event is an int, ``index << 3 | hop``;
        same-instant events wait in a FIFO, later ones in a heap.
        """
        if self._ran:
            raise SimulationError("FederationSim.run() called twice")
        self._ran = True
        nodes = self._nodes
        plan = self.fault_plan
        #: Each site's outage windows as ``(start, end)`` in the plan's
        #: order, resolved once per run.
        windows: Dict[str, Tuple[Tuple[float, float], ...]] = {}

        def windows_of(site: str) -> Tuple[Tuple[float, float], ...]:
            found = windows.get(site)
            if found is None:
                found = windows[site] = tuple(
                    (w.start, w.end) for w in plan.windows(site)
                )
            return found

        def next_up(site: str, t: float) -> float:
            # FaultPlan.next_up over the resolved windows.
            for start, end in windows_of(site):
                if start <= t < end:
                    t = end
            return t

        # The static structure: how many completions each node waits
        # for, whom its own completion notifies, what it runs on.
        left = [len(node.deps) for node in nodes]
        notifies: List[List[int]] = [[] for _ in nodes]
        devices: Dict[str, _Device] = {}
        device_of: List[Optional[_Device]] = []
        for index, node in enumerate(nodes):
            for dep in node.deps:
                notifies[dep.index].append(index << 3 | _NOTIFIED)
            name = node.resource_name
            device = devices.get(name) if name else None
            if name and device is None:
                # A site device — the resource of anything but a
                # transfer — inherits the site's outage windows: work
                # queued during a crash is served when the site recovers.
                device = devices[name] = _Device(
                    name, len(devices),
                    windows_of(node.site)
                    if plan is not None and not node.dst else (),
                )
            device_of.append(device)
        by_number = list(devices.values())

        now = 0.0
        soon: Deque[int] = deque()
        later: List[Tuple[float, int, int]] = []
        ticket = itertools.count()
        soon_push = soon.append

        def after(now: float, delay: float, event: int) -> None:
            when = now + delay
            if when == now:
                soon_push(event)
            else:
                heappush(later, (when, next(ticket), event))

        def drain(device: _Device, now: float) -> None:
            # Serve the head of the FIFO if the device is free and up;
            # re-arm at the window end when it is down.
            if device.in_use or not device.queue:
                return
            down = device.down_until(now)
            if down is not None:
                after(now, down - now, device.number << 3 | _DRAIN)
                return
            index, since = device.queue.popleft()
            device.wait_time += now - since
            device.in_use = True
            device.busy_since = now
            soon_push(index << 3 | _STARTED)

        # The begin hops come first, in node order; one does something
        # only for a node that waits for nothing.
        soon.extend(
            index << 3 | _BEGIN for index, n in enumerate(left) if not n
        )
        while True:
            if later and later[0][0] == now:
                event = heappop(later)[2]
            elif soon:
                event = soon.popleft()
            elif later:
                now, _ticket, event = heappop(later)
            else:
                break
            index = event >> 3
            hop = event & 7
            if hop == _STARTED:
                node = nodes[index]
                node.start = now
                # ``after``, inlined: the one timer every device node sets.
                when = now + node.seconds
                if when == now:
                    soon_push(index << 3 | _FINISH)
                else:
                    heappush(later, (when, next(ticket), index << 3 | _FINISH))
                continue
            if hop == _FINISH:
                nodes[index].finish = now
                device = device_of[index]
                if device is None:
                    # A delay held nothing: it notifies in this hop.
                    soon.extend(notifies[index])
                    continue
                device.in_use = False
                device.busy_time += now - device.busy_since
                if device.queue:
                    drain(device, now)
                soon_push(index << 3 | _RELEASED)
                continue
            if hop == _RELEASED:
                soon.extend(notifies[index])
                continue
            if hop == _DRAIN:
                drain(by_number[index], now)
                continue
            if hop == _NOTIFIED:
                left[index] -= 1
                if left[index]:
                    continue
                hop = _BEGIN
            node = nodes[index]
            device = device_of[index]
            if hop == _BEGIN:
                node.ready = now
                if device is None:
                    # A pure delay (fault wait): holds no device.
                    node.start = now
                    after(now, node.seconds, index << 3 | _FINISH)
                    continue
            if plan is not None and node.dst:
                # A transfer cannot progress while either endpoint is
                # inside an outage window — stall until both are up.
                up = max(next_up(node.site, now), next_up(node.dst, now))
                if up > now:
                    after(now, up - now, index << 3 | _STALLED)
                    continue
            down = device.down_until(now) if device.downtimes else None
            if down is not None:
                device.queue.append((index, now))
                after(now, down - now, device.number << 3 | _DRAIN)
            elif device.in_use:
                device.queue.append((index, now))
            else:
                device.in_use = True
                device.busy_since = now
                soon_push(index << 3 | _STARTED)

        unfinished = [n.label for n in nodes if n.finish is None]
        if unfinished:
            raise SimulationError(
                f"activity graph deadlocked; unfinished nodes: {unfinished[:5]}"
            )
        names = sorted(devices)
        return SimOutcome.from_nodes(
            nodes,
            now,
            resource_busy={name: devices[name].busy_time for name in names},
            resource_wait={name: devices[name].wait_time for name in names},
        )


@dataclass
class SimOutcome:
    """Timings and breakdowns of one executed activity graph."""

    response_time: float
    total_time: float
    phase_time: Dict[str, float] = field(default_factory=dict)
    site_busy: Dict[str, float] = field(default_factory=dict)
    bytes_transferred: int = 0
    nodes: int = 0
    #: The scheduled nodes (with start/finish), for tracing/explain.
    scheduled: Tuple[Node, ...] = ()
    #: Scheduler-measured busy time per resource (device utilization).
    resource_busy: Dict[str, float] = field(default_factory=dict)
    #: Scheduler-measured FIFO wait time per resource (queueing delay).
    resource_wait: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_nodes(
        cls,
        nodes: Sequence[Node],
        response_time: float,
        resource_busy: Dict[str, float],
        resource_wait: Dict[str, float],
    ) -> "SimOutcome":
        phase_time: Dict[str, float] = {}
        site_busy: Dict[str, float] = {}
        bytes_transferred = 0
        total = 0.0
        for node in nodes:
            total += node.seconds
            phase_time[node.phase] = phase_time.get(node.phase, 0.0) + node.seconds
            # Transfers (the nodes with a destination) move bytes;
            # resource-less nodes are pure waiting (fault
            # timeouts/backoffs) and keep no device busy; everything
            # else is busy time at its site's devices.
            if node.dst:
                bytes_transferred += node.nbytes
            elif node.resource_name:
                site_busy[node.site] = site_busy.get(node.site, 0.0) + node.seconds
        return cls(
            response_time=response_time,
            total_time=total,
            phase_time=phase_time,
            site_busy=site_busy,
            bytes_transferred=bytes_transferred,
            nodes=len(nodes),
            scheduled=tuple(nodes),
            resource_busy=resource_busy,
            resource_wait=resource_wait,
        )
