"""The concurrent traffic engine: N workers over one shared federation.

:class:`TrafficEngine` interleaves thousands of queries from N logical
workers on one simulated clock against *one*
:class:`~repro.core.system.DistributedSystem`.  Workers are generator
bodies resumed by that clock, not threads: each holds an
:class:`~repro.core.session.EngineSession` (its own options, fault
seeds and cache accounting over the shared caches), draws queries from
a weighted :class:`~repro.traffic.mix.QueryMix` with its own derived
RNG, and competes for an admission gate before executing.

Timing model: executing a query is synchronous on the host (the
strategy runs its own inner federation simulation), and its simulated
``total_time`` is then *charged on the traffic clock* while the worker
holds an admission slot.  The gate has ``max_in_flight`` slots and a
bounded FIFO: a submission finding ``queue_depth`` waiters is *shed*
(counted, never executed) and the worker backs off.  The clock's
(time, order raised) event ordering makes the whole interleaving —
grants, sheds, finish times — byte-deterministic in the root seed.

Correctness under interleaving is checked, not assumed:
:meth:`TrafficEngine.run` with ``verify=True`` re-executes every
distinct bound query serially on a fresh engine and demands a
byte-identical answer digest (the difftest oracle's notion of answer
equality).  Shared caches may change *cost*, never *answers*.

Live evolution: pass an :class:`~repro.evolution.plan.EvolutionPlan`
and the clock also resumes a controller pump beside the workers —
membership and schema changes fire on the same simulated clock the
queries run on.  Every grant records the federation epoch it executed
against (``QueryRecord.evo_step``); serial verification of a churned
run rebuilds a fresh federation via *system_factory* and replays
records in epoch order, stepping a fresh controller to each record's
epoch before re-executing.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.core.engine import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.results import answer_digest
from repro.core.system import DistributedSystem
from repro.errors import WorkloadError
from repro.evolution.controller import EvolutionController
from repro.evolution.plan import EvolutionPlan
from repro.traffic.mix import QueryMix
from repro.traffic.seeds import derive_seed
from repro.traffic.templates import BoundQuery


@dataclass(frozen=True)
class AdmissionControl:
    """Backpressure at the federation's front door.

    *max_in_flight* queries execute concurrently; up to *queue_depth*
    more wait in FIFO order; beyond that, submissions are shed and the
    submitting worker backs off *shed_backoff_s* (jittered) before its
    next query.
    """

    max_in_flight: int = 8
    queue_depth: int = 32
    shed_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise WorkloadError("max_in_flight must be >= 1")
        if self.queue_depth < 0:
            raise WorkloadError("queue_depth must be >= 0")
        if self.shed_backoff_s < 0:
            raise WorkloadError("shed_backoff_s must be >= 0")


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """One query's life on the traffic clock (slotted: a run keeps all)."""

    worker: int
    seq: int
    template: str
    submitted_s: float
    started_s: float
    finished_s: float
    service_s: float
    digest: str
    fault_seed: Optional[int] = None
    shed: bool = False
    #: Federation evolution epoch the query executed against (the
    #: controller's applied-transition count at the admission grant).
    evo_step: int = 0
    #: Whether the execution straddled an open propagation window.
    straddled: bool = False

    @property
    def latency_s(self) -> float:
        """Submission-to-finish time (queueing wait + service)."""
        return self.finished_s - self.submitted_s

    @property
    def wait_s(self) -> float:
        return self.started_s - self.submitted_s


@dataclass
class WorkerSummary:
    """One worker's totals after a run."""

    worker: int
    completed: int
    shed: int
    cache_hits: int
    cache_misses: int
    shared_hits: int


@dataclass
class TrafficReport:
    """Everything one traffic run produced (wall-clock free)."""

    workers: int
    queries_per_worker: int
    queries_total: int
    seed: int
    strategy: str
    mix: str
    admission: AdmissionControl
    completed: int
    shed: int
    makespan_s: float
    throughput_qps: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    mean_service_s: float
    gate_wait_s: float
    gate_queued: int
    gate_rejected: int
    cache_hits: int
    cache_misses: int
    shared_hits: int
    template_counts: Dict[str, int]
    per_worker: List[WorkerSummary]
    records: List[QueryRecord] = field(repr=False, default_factory=list)
    verified: int = 0
    violations: List[str] = field(default_factory=list)
    #: Evolution-under-load annotations (defaults = frozen federation).
    evolution: str = ""
    evo_transitions: int = 0
    final_epoch: int = 0
    queries_straddled: int = 0
    propagation_lag_mean_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-stable summary (records elided, no wall clock)."""
        return {
            "workers": self.workers,
            "queries_per_worker": self.queries_per_worker,
            "queries_total": self.queries_total,
            "seed": self.seed,
            "strategy": self.strategy,
            "mix": self.mix,
            "admission": {
                "max_in_flight": self.admission.max_in_flight,
                "queue_depth": self.admission.queue_depth,
                "shed_backoff_s": self.admission.shed_backoff_s,
            },
            "completed": self.completed,
            "shed": self.shed,
            "makespan_s": round(self.makespan_s, 9),
            "throughput_qps": round(self.throughput_qps, 6),
            "latency_p50_s": round(self.latency_p50_s, 9),
            "latency_p95_s": round(self.latency_p95_s, 9),
            "latency_p99_s": round(self.latency_p99_s, 9),
            "mean_service_s": round(self.mean_service_s, 9),
            "gate_wait_s": round(self.gate_wait_s, 9),
            "gate_queued": self.gate_queued,
            "gate_rejected": self.gate_rejected,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "shared_hits": self.shared_hits,
            "template_counts": dict(sorted(self.template_counts.items())),
            "per_worker": [
                {
                    "worker": w.worker,
                    "completed": w.completed,
                    "shed": w.shed,
                    "cache_hits": w.cache_hits,
                    "cache_misses": w.cache_misses,
                    "shared_hits": w.shared_hits,
                }
                for w in self.per_worker
            ],
            "verified": self.verified,
            "violations": list(self.violations),
            "evolution": {
                "plan": self.evolution,
                "transitions": self.evo_transitions,
                "final_epoch": self.final_epoch,
                "queries_straddled": self.queries_straddled,
                "propagation_lag_mean_s": round(
                    self.propagation_lag_mean_s, 9
                ),
            },
        }

    def summary(self) -> str:
        text = (
            f"{self.completed} queries ({self.shed} shed) in "
            f"{self.makespan_s:.3f} simulated s — "
            f"{self.throughput_qps:.1f} q/s, latency p50/p95/p99 = "
            f"{self.latency_p50_s * 1000:.1f}/"
            f"{self.latency_p95_s * 1000:.1f}/"
            f"{self.latency_p99_s * 1000:.1f} ms"
        )
        if self.evo_transitions:
            text += (
                f"; {self.evo_transitions} evolution transitions, "
                f"{self.queries_straddled} queries straddled"
            )
        return text


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty).

    ``rank = ceil(q * n)`` clamped to ``[1, n]``.  The old
    scale-by-100-then-truncate formulation dropped fractional ranks
    below a hundredth (``q=0.501, n=2`` picked the first sample instead
    of the second) — truncating *before* the ceiling floors any rank
    whose fractional part is under 0.01.  ``round(..., 9)`` keeps exact
    products like ``0.95 * 20`` from drifting one rank up through float
    error; the clamp makes the single-sample and ``q == 1.0`` boundary
    cases explicit.
    """
    if not sorted_values:
        return 0.0
    n = len(sorted_values)
    rank = max(1, math.ceil(round(q * n, 9)))
    return sorted_values[min(n, rank) - 1]


#: What a body on the traffic clock yields besides a delay in simulated
#: seconds: ask for an admission slot, or give one back.
ACQUIRE, RELEASE = object(), object()


class _Clock:
    """One traffic run's clock and admission gate.

    A heap of (time, order raised, body) events, each resuming one
    generator body, which yields a delay, :data:`ACQUIRE` or
    :data:`RELEASE`.  Every resumption goes through the heap, an
    immediate grant too, and a release resumes the waiter it hands its
    slot to before the releaser: that order fixes the interleaving, and
    so every number a run reports.
    """

    def __init__(self, slots: int) -> None:
        self.now = 0.0
        self.events: List[Tuple[float, int, Iterator]] = []
        self.order = itertools.count()
        self.free_slots = slots
        #: Bodies waiting for a slot, with the time they asked, FIFO.
        self.waiting: Deque[Tuple[Iterator, float]] = deque()
        self.wait_time, self.grants_queued, self.rejected = 0.0, 0, 0

    def resume(self, body: Iterator, delay: float = 0.0) -> None:
        heappush(self.events, (self.now + delay, next(self.order), body))

    def admit(self, depth: int) -> bool:
        """Room for one more submission (a free slot, or fewer than
        *depth* waiting)?  A refusal is counted."""
        if self.free_slots or len(self.waiting) < depth:
            return True
        self.rejected += 1
        return False

    def run(self) -> None:
        while self.events:
            self.now, _order, body = heappop(self.events)
            step = next(body, None)
            if step is ACQUIRE:
                if self.free_slots:
                    self.free_slots -= 1
                    self.resume(body)
                else:
                    self.waiting.append((body, self.now))
            elif step is RELEASE:
                if self.waiting:
                    waiter, since = self.waiting.popleft()
                    self.wait_time += self.now - since
                    self.grants_queued += 1
                    self.resume(waiter)
                else:
                    self.free_slots += 1
                self.resume(body)
            elif step is not None:
                self.resume(body, step)


class TrafficEngine:
    """Drive a seeded concurrent workload through one shared federation."""

    def __init__(
        self,
        system: DistributedSystem,
        mix: QueryMix,
        workers: int = 4,
        queries: int = 50,
        seed: int = 0,
        strategy: str = "BL",
        options: Optional[ExecutionOptions] = None,
        admission: Optional[AdmissionControl] = None,
        think_time_s: float = 0.0,
        total_queries: Optional[int] = None,
        evolution: Optional[EvolutionPlan] = None,
        system_factory: Optional[Callable[[], DistributedSystem]] = None,
    ) -> None:
        if workers < 1:
            raise WorkloadError("traffic needs at least one worker")
        self.system = system
        self.mix = mix
        self.workers = workers
        if total_queries is not None:
            # A total budget divided as evenly as possible: the first
            # (total % workers) workers ask one extra query.
            if total_queries < 1:
                raise WorkloadError("traffic needs at least one query")
            base_n, extra = divmod(total_queries, workers)
            self._counts: Tuple[int, ...] = tuple(
                base_n + (1 if i < extra else 0) for i in range(workers)
            )
        else:
            if queries < 1:
                raise WorkloadError(
                    "traffic needs at least one query per worker"
                )
            self._counts = (queries,) * workers
        self.queries = max(self._counts)
        self.seed = seed
        self.strategy = strategy
        self.admission = admission or AdmissionControl()
        self.think_time_s = think_time_s
        self.engine = GlobalQueryEngine(
            system, default_strategy=strategy, options=options
        )
        # Build the signature catalog once, up front, when the chosen
        # strategy needs it: it is part of the shared federation, and
        # letting the first grant build it implicitly would bill one
        # arbitrary worker for shared work.
        if getattr(self.engine.default_strategy, "use_signatures", False):
            self.engine.ensure_signatures()
        #: Evolution under load: the plan runs on the traffic clock via
        #: a controller pump body; *system_factory* rebuilds a fresh
        #: pre-plan federation for serial verification of churned runs.
        self.evolution = (
            evolution if evolution is not None and evolution.active else None
        )
        self.system_factory = system_factory
        self._controller: Optional[EvolutionController] = None

    # --- the evolution pump -------------------------------------------------

    def _evolution_pump(self, clock: _Clock, ctl: EvolutionController):
        """Apply plan transitions at their simulated times.

        Workers execute queries synchronously at the admission grant, so
        the controller can only advance *between* executions — which is
        exactly what pins every query to one epoch.
        """
        while not ctl.done:
            next_t = ctl.next_time()
            if next_t is None:  # pragma: no cover - done implies None
                break
            if next_t > clock.now:
                yield next_t - clock.now
            ctl.step()

    # --- the worker body ----------------------------------------------------

    def _worker_body(
        self,
        clock: _Clock,
        worker_id: int,
        session,
        records: List[QueryRecord],
    ):
        """One worker: draw, admit (or shed), execute, repeat.

        Two independent derived RNG streams per worker: *params* drives
        template choice and parameter binding, *jitter* drives think/
        backoff delays — so retuning the timing knobs never changes
        which queries are asked.
        """
        params = random.Random(derive_seed(self.seed, "worker", worker_id))
        jitter = random.Random(derive_seed(self.seed, "clock", worker_id))
        base, ctl = session.options, self._controller
        backoff = self.admission.shed_backoff_s
        for seq in range(self._counts[worker_id]):
            if self.think_time_s > 0:
                yield jitter.random() * 2 * self.think_time_s
            template = self.mix.choose(params)
            bound = template.instantiate(params)
            submitted = clock.now
            if not clock.admit(self.admission.queue_depth):
                records.append(QueryRecord(
                    worker=worker_id,
                    seq=seq,
                    template=bound.template,
                    submitted_s=submitted,
                    started_s=submitted,
                    finished_s=submitted,
                    service_s=0.0,
                    digest="",
                    shed=True,
                    evo_step=ctl.applied if ctl is not None else 0,
                ))
                if backoff > 0:
                    yield backoff * (0.5 + jitter.random())
                continue
            yield ACQUIRE
            fault_seed: Optional[int] = None
            opts = base
            if base.faults_active:
                fault_seed = derive_seed(self.seed, "fault", worker_id, seq)
                opts = base.with_(fault_seed=fault_seed)
            # The execution is synchronous at the grant instant, so the
            # controller's applied count here *is* the query's epoch pin.
            evo_step = ctl.applied if ctl is not None else 0
            report = session.execute(bound.query, options=opts)
            service = report.metrics.total_time
            yield service
            yield RELEASE
            records.append(QueryRecord(
                worker=worker_id,
                seq=seq,
                template=bound.template,
                submitted_s=submitted,
                started_s=clock.now - service,
                finished_s=clock.now,
                service_s=service,
                digest=answer_digest(report.results),
                fault_seed=fault_seed,
                evo_step=evo_step,
                straddled=bool(report.availability.epochs_straddled),
            ))

    # --- runs ---------------------------------------------------------------

    def run(self, verify: bool = False) -> TrafficReport:
        """Execute the full workload; optionally verify against serial.

        With *verify*, every distinct bound query (same query, same
        fault seed) is re-executed serially on a fresh engine over the
        same federation and its answer digest must equal what the
        interleaved run produced — 0 violations means the shared-cache
        interleaving changed no answer.
        """
        clock = _Clock(self.admission.max_in_flight)
        records: List[QueryRecord] = []
        if self.evolution is not None:
            if self._controller is not None:
                raise WorkloadError(
                    "an evolved TrafficEngine is single-shot: the plan "
                    "already mutated the federation; build a fresh engine"
                )
            self._controller = EvolutionController(
                self.system, self.evolution
            )
            clock.resume(self._evolution_pump(clock, self._controller))
        sessions = [
            self.engine.session(name=f"worker-{worker_id}")
            for worker_id in range(self.workers)
        ]
        for worker_id, session in enumerate(sessions):
            clock.resume(
                self._worker_body(clock, worker_id, session, records)
            )
        clock.run()
        records.sort(key=lambda r: (r.worker, r.seq))
        done = [r for r in records if not r.shed]
        shed = len(records) - len(done)
        makespan = max((r.finished_s for r in done), default=0.0)
        latencies = sorted(r.latency_s for r in done)
        template_counts: Dict[str, int] = {}
        for record in records:
            template_counts[record.template] = (
                template_counts.get(record.template, 0) + 1
            )
        report = TrafficReport(
            workers=self.workers,
            queries_per_worker=self.queries,
            queries_total=sum(self._counts),
            seed=self.seed,
            strategy=self.strategy,
            mix=self.mix.describe(),
            admission=self.admission,
            completed=len(done),
            shed=shed,
            makespan_s=makespan,
            throughput_qps=(len(done) / makespan) if makespan > 0 else 0.0,
            latency_p50_s=_percentile(latencies, 0.50),
            latency_p95_s=_percentile(latencies, 0.95),
            latency_p99_s=_percentile(latencies, 0.99),
            mean_service_s=(
                sum(r.service_s for r in done) / len(done) if done else 0.0
            ),
            gate_wait_s=clock.wait_time,
            gate_queued=clock.grants_queued,
            gate_rejected=clock.rejected,
            cache_hits=sum(s.cache.hits for s in sessions),
            cache_misses=sum(s.cache.misses for s in sessions),
            shared_hits=self.system.shared_hits_total,
            template_counts=template_counts,
            per_worker=[
                WorkerSummary(
                    worker=worker_id,
                    completed=sum(1 for r in done if r.worker == worker_id),
                    shed=sum(r.shed for r in records if r.worker == worker_id),
                    cache_hits=s.cache.hits,
                    cache_misses=s.cache.misses,
                    shared_hits=s.shared_hits,
                )
                for worker_id, s in enumerate(sessions)
            ],
            records=records,
        )
        if self._controller is not None:
            ctl = self._controller
            lags = [
                ctl.propagation_lag(event.label)
                for event in self.evolution.ordered_events()
            ]
            report.evolution = self.evolution.describe()
            report.evo_transitions = ctl.applied
            report.final_epoch = self.system.schema_epoch
            report.queries_straddled = sum(1 for r in done if r.straddled)
            report.propagation_lag_mean_s = (
                sum(lags) / len(lags) if lags else 0.0
            )
        if verify:
            self._verify_serial(report)
        return report

    def _verify_serial(self, report: TrafficReport) -> None:
        """Re-execute each distinct bound query serially; compare digests.

        A churned run mutated the live federation in place, so its
        serial baseline is a *fresh* federation (from *system_factory*)
        plus a fresh controller stepped to each record's pinned epoch.
        Its records are replayed in (epoch, worker, seq) order — the
        controller only steps forward — and the memo key includes the
        epoch: the same bound query can legitimately answer differently
        across epochs.  Without churn the baseline is the live
        federation and every record sits at epoch 0.
        """
        system, controller = self.system, None
        if self._controller is not None:
            if self.system_factory is None:
                raise WorkloadError(
                    "verifying an evolved traffic run needs system_factory "
                    "(a zero-argument callable rebuilding the pre-plan "
                    "federation)"
                )
            system = self.system_factory()
            controller = EvolutionController(system, self.evolution)
        serial = GlobalQueryEngine(
            system,
            default_strategy=self.strategy,
            options=self.engine.options,
        )
        if getattr(serial.default_strategy, "use_signatures", False):
            serial.ensure_signatures()
        expected: Dict[Tuple[object, Optional[int], int], str] = {}
        regen: Dict[int, List[BoundQuery]] = {
            worker_id: self.replay_worker(worker_id)
            for worker_id in range(self.workers)
        }
        replay = [r for r in report.records if not r.shed]
        if controller is not None:
            replay.sort(key=lambda r: (r.evo_step, r.worker, r.seq))
        for record in replay:
            if controller is not None:
                controller.step_to(record.evo_step)
            bound = regen[record.worker][record.seq]
            key = (bound.query, record.fault_seed, record.evo_step)
            digest = expected.get(key)
            if digest is None:
                opts = serial.options
                if record.fault_seed is not None:
                    opts = opts.with_(fault_seed=record.fault_seed)
                digest = answer_digest(
                    serial.execute(bound.query, options=opts).results
                )
                expected[key] = digest
            report.verified += 1
            if digest != record.digest:
                epoch = (
                    f"epoch {record.evo_step} " if controller is not None
                    else ""
                )
                report.violations.append(
                    f"worker {record.worker} seq {record.seq} "
                    f"{epoch}({record.template}): interleaved digest "
                    f"{record.digest} != serial {digest}"
                )

    def replay_worker(self, worker_id: int) -> List[BoundQuery]:
        """Regenerate one worker's exact bound-query sequence.

        Binding is a pure function of the derived worker seed, so the
        sequence can be rebuilt without running any traffic — this is
        what serial verification replays against.
        """
        params = random.Random(derive_seed(self.seed, "worker", worker_id))
        return [
            self.mix.choose(params).instantiate(params)
            for _ in range(self._counts[worker_id])
        ]
