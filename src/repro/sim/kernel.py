"""A small discrete-event simulation kernel (generator-based processes).

The performance study runs the query strategies against a simulated
federation: each site has a CPU and a disk, the network is a shared
channel, and concurrent work queues on those resources.  This module
provides the simulation substrate:

* :class:`Simulator` — the event loop (a time-ordered heap of callbacks);
* :class:`Event` — a one-shot occurrence processes can wait on;
* :class:`Resource` — a FIFO server pool (capacity 1 models a CPU, a
  disk arm, or a half-duplex network channel);
* :class:`Process` — a generator wrapped into the event loop.  A process
  body ``yield``s *directives*:

  - ``Timeout(dt)`` — advance this process by ``dt`` simulated seconds;
  - ``Acquire(resource)`` — wait for and hold one server of a resource
    (release with ``Release(resource)``);
  - an :class:`Event` — wait until it is triggered;
  - ``AllOf([events...])`` — wait for several events.

Determinism: simultaneous events fire in scheduling order (a monotone
sequence number breaks ties), so repeated runs of the same strategy over
the same data produce identical timings.

Who runs on it.  Processes whose next step depends on what they observe
— :class:`~repro.traffic.driver.TrafficEngine`'s workers and its
admission gate.  A strategy's activity graph does not: it is a static
DAG, and :meth:`repro.sim.taskgraph.FederationSim.run` schedules it in a
flat loop of its own.  The order that loop follows (begin → started →
finish → released → notified, a drained grant queued before the
releaser's own next hop, events due at the current instant before
events raised during it) is the order this kernel gives one generator
per node; it is written out in :mod:`repro.sim.taskgraph` and this
kernel remains its executable reference
(:func:`repro.difftest.reference.schedule_reference`).  A change to how
:class:`Process` or :class:`Resource` order their callbacks is therefore
a change to that contract.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple

from collections import deque

from repro.errors import SimulationError


class Event:
    """A one-shot event; processes wait on it, someone triggers it."""

    __slots__ = ("sim", "name", "triggered", "value", "_waiters")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: List[Callable[["Event"], None]] = []

    def trigger(self, value: Any = None) -> None:
        """Fire the event (idempotent triggering is an error by design)."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.sim.call_soon(lambda w=waiter: w(self))

    def on_trigger(self, callback: Callable[["Event"], None]) -> None:
        if self.triggered:
            self.sim.call_soon(lambda: callback(self))
        else:
            self._waiters.append(callback)


@dataclass(frozen=True)
class Timeout:
    """Directive: advance the yielding process by *seconds*."""

    seconds: float


@dataclass(frozen=True)
class Acquire:
    """Directive: wait for one server of *resource* and hold it."""

    resource: "Resource"


@dataclass(frozen=True)
class Release:
    """Directive: release one previously acquired server of *resource*."""

    resource: "Resource"


@dataclass(frozen=True)
class AllOf:
    """Directive: wait until every event in *events* has triggered."""

    events: tuple


class Resource:
    """A FIFO pool of identical servers (capacity 1 = serial device).

    A resource can carry *downtime windows* (fault injection: the device
    is crashed during ``[start, end)``).  A down resource grants nothing;
    acquires issued during a window queue and are served, FIFO, when the
    window closes.  Work already holding a server is not preempted —
    crashes take effect at operation granularity.
    """

    def __init__(self, sim: "Simulator", name: str, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource {name!r} needs capacity >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._queue: Deque[Tuple[Event, float]] = deque()
        #: Crash windows (start, end), sorted; grants stall while inside.
        self._downtimes: List[Tuple[float, float]] = []
        # Utilization accounting.
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None
        # Queueing accounting (observability): total time grants spent
        # waiting in the FIFO, and how many had to wait at all.
        self.wait_time = 0.0
        self.grants = 0
        self.grants_queued = 0
        #: Admission-control refusals (see :meth:`admit`).
        self.rejected = 0

    def add_downtime(self, start: float, end: float) -> None:
        """Declare the resource down (no grants) during ``[start, end)``."""
        if end <= start:
            raise SimulationError(
                f"resource {self.name!r}: empty downtime [{start}, {end})"
            )
        if start < 0:
            raise SimulationError(
                f"resource {self.name!r}: downtime starts in the past"
            )
        self._downtimes.append((start, end))
        self._downtimes.sort()

    def down_until(self, t: float) -> Optional[float]:
        """End of the downtime window covering *t* (None when up)."""
        for start, end in self._downtimes:
            if start <= t < end:
                return end
            if start > t:
                break
        return None

    def acquire(self) -> Event:
        """Return an event that triggers when a server is granted."""
        grant = Event(self.sim, name=f"grant:{self.name}")
        down = self.down_until(self.sim.now)
        if down is not None:
            self._queue.append((grant, self.sim.now))
            self.sim.schedule(down - self.sim.now, self._drain)
        elif self._in_use < self.capacity:
            self._grant(grant)
        else:
            self._queue.append((grant, self.sim.now))
        return grant

    def _grant(self, grant: Event) -> None:
        if self._in_use == 0:
            self._busy_since = self.sim.now
        self._in_use += 1
        self.grants += 1
        grant.trigger(self)

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"resource {self.name!r} released when idle")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self.sim.now - self._busy_since
            self._busy_since = None
        self._drain()

    def _drain(self) -> None:
        """Serve queued grants, FIFO, while capacity is free and the
        resource is up; re-arm at the window end when down."""
        while self._queue and self._in_use < self.capacity:
            down = self.down_until(self.sim.now)
            if down is not None:
                self.sim.schedule(down - self.sim.now, self._drain)
                return
            grant, enqueued = self._queue.popleft()
            self.wait_time += self.sim.now - enqueued
            self.grants_queued += 1
            self._grant(grant)

    @property
    def queued(self) -> int:
        return len(self._queue)

    def admit(self, depth: int) -> bool:
        """Admission control: is there room for one more acquire?

        Admits while a server is free or fewer than *depth* grants are
        waiting; otherwise counts a rejection and returns False.
        Callers use this to shed load before calling :meth:`acquire`
        instead of letting queues grow without bound; the decision is a
        pure function of current occupancy, so admission stays
        deterministic under the (time, seq) event ordering.
        """
        if self._in_use < self.capacity or self.queued < depth:
            return True
        self.rejected += 1
        return False


class Process:
    """A generator coroutine driven by the simulator."""

    def __init__(
        self,
        sim: "Simulator",
        body: Generator,
        name: str = "process",
    ) -> None:
        self.sim = sim
        self.body = body
        self.name = name
        self.done = Event(sim, name=f"done:{name}")
        self._held: Dict[Resource, int] = {}
        sim.call_soon(lambda: self._step(None))

    def _step(self, sent: Any) -> None:
        try:
            directive = self.body.send(sent)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._handle(directive)

    def _finish(self, value: Any) -> None:
        if any(count > 0 for count in self._held.values()):
            held = [r.name for r, c in self._held.items() if c > 0]
            raise SimulationError(
                f"process {self.name!r} finished holding resources: {held}"
            )
        self.done.trigger(value)

    def _handle(self, directive: Any) -> None:
        if isinstance(directive, Timeout):
            if directive.seconds < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative timeout"
                )
            self.sim.schedule(directive.seconds, lambda: self._step(None))
        elif isinstance(directive, Acquire):
            resource = directive.resource
            grant = resource.acquire()
            self._held[resource] = self._held.get(resource, 0) + 1
            grant.on_trigger(lambda _evt: self._step(resource))
        elif isinstance(directive, Release):
            resource = directive.resource
            if self._held.get(resource, 0) <= 0:
                raise SimulationError(
                    f"process {self.name!r} released {resource.name!r} "
                    "it does not hold"
                )
            self._held[resource] -= 1
            resource.release()
            self.sim.call_soon(lambda: self._step(None))
        elif isinstance(directive, Event):
            directive.on_trigger(lambda evt: self._step(evt.value))
        elif isinstance(directive, AllOf):
            self._wait_all(list(directive.events))
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unknown directive "
                f"{directive!r}"
            )

    def _wait_all(self, events: List[Event]) -> None:
        remaining = [evt for evt in events if not evt.triggered]
        if not remaining:
            self.sim.call_soon(lambda: self._step(None))
            return
        counter = {"left": len(remaining)}

        def on_one(_evt: Event) -> None:
            counter["left"] -= 1
            if counter["left"] == 0:
                self._step(None)

        for evt in remaining:
            evt.on_trigger(on_one)


class Simulator:
    """The discrete-event loop: a heap of (time, seq, callback)."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List = []
        self._seq = itertools.count()
        self._events_processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), callback))

    def call_soon(self, callback: Callable[[], None]) -> None:
        self.schedule(0.0, callback)

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def resource(self, name: str, capacity: int = 1) -> Resource:
        return Resource(self, name=name, capacity=capacity)

    def process(self, body: Generator, name: str = "process") -> Process:
        return Process(self, body, name=name)

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Drain the event heap; return the final simulated time."""
        while self._heap:
            time, _seq, callback = heapq.heappop(self._heap)
            if until is not None and time > until:
                self.now = until
                return self.now
            if time < self.now:
                raise SimulationError("time went backwards")  # pragma: no cover
            self.now = time
            callback()
            self._events_processed += 1
            if self._events_processed > max_events:
                raise SimulationError(
                    "simulation exceeded max_events; likely a livelock"
                )
        return self.now

    @property
    def events_processed(self) -> int:
        return self._events_processed
