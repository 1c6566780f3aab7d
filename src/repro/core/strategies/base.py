"""Strategy interface and machinery shared by the localized strategies.

A strategy executes a global query against a
:class:`~repro.core.system.DistributedSystem` and returns both the answer
(certain + maybe results) and the simulated execution metrics.  The three
paper strategies (CA, BL, PL) and the signature variants (BL-S, PL-S) all
implement :class:`Strategy`.

The shared machinery here covers phase O's dispatch planning: given the
unsolved items discovered at a site, find their assistant objects in the
replicated GOid mapping tables, drop assistants whose home schema cannot
provide the missing data (paper: assistants are found "by checking the
GOid mapping tables and the other component schemas"), optionally
pre-filter through object signatures, and group what remains into
per-site check requests.

It also covers phase O's *wire protocol*: every check (and chase)
request a site holds for one destination is coalesced into a single
batched request/reply exchange (:class:`CheckBatch`) — one network
message pair per ``(src, dst)`` link instead of one per
:class:`~repro.objectdb.local_query.CheckRequest`, matching the
aggregated per-peer exchange the analytic model charges.  Reports stay
keyed by their request (:func:`run_checks_paired`), so verdict
collection, certification and fault skip/annotation logic are untouched
by batching.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.certification import SATISFIED, VIOLATED, VerdictIndex
from repro.core.decompose import missing_depth
from repro.core.query import Predicate, Query
from repro.core.results import Availability, ResultSet
from repro.core.system import DistributedSystem
from repro.errors import QueryError
from repro.faults.injector import ExecutionContext, Negotiation
from repro.obs.spans import TraceEvent
from repro.objectdb.ids import LOid
from repro.objectdb.local_query import (
    CheckReport,
    CheckRequest,
    RowKind,
    UnsolvedItem,
)
from repro.sim.metrics import ExecutionMetrics
from repro.sim.taskgraph import FederationSim, Node


@dataclass
class StrategyResult:
    """Answer plus measured execution of one strategy run."""

    results: ResultSet
    metrics: ExecutionMetrics
    #: How much of the federation this execution reached (complete on
    #: fault-free runs; degraded runs list skipped sites and retries).
    availability: Availability = field(default_factory=Availability)
    #: Repair state captured by a degraded execution (a
    #: ``repro.conditions.recertify`` state object): the evidence this
    #: run certified over plus the exact work it skipped, enough for
    #: ``engine.recertify`` to repair the answer without re-running the
    #: query.  ``None`` when nothing repairable was skipped.
    repair: Optional[object] = None
    #: Destination site of every request/reply pair this execution
    #: exchanged (site query, check, chase or fetch request), in the
    #: order sent — what a repair reports as its message cost.
    exchanges: Tuple[str, ...] = ()

    @property
    def total_time(self) -> float:
        return self.metrics.total_time

    @property
    def response_time(self) -> float:
        return self.metrics.response_time


class Strategy(abc.ABC):
    """A query-execution strategy over a distributed federation.

    Strategies hold no execution option: everything configurable about
    one run (planner mode, faults) arrives on the
    :class:`ExecutionContext`, so one instance can serve any number of
    interleaved sessions.
    """

    #: Short name used in reports ("CA", "BL", "PL", "BL-S", "PL-S").
    name: str = "?"

    @abc.abstractmethod
    def execute(
        self,
        system: DistributedSystem,
        query: Query,
        ctx: ExecutionContext,
        resume: Optional[object] = None,
    ) -> StrategyResult:
        """Run *query* on *system*; return answer and metrics.

        *ctx* carries this execution's options (``ctx.options``) and its
        fault state.  A context whose options inject no faults
        negotiates every contact cleanly and records nothing, so a
        fault-free run is this same code path, not a second one.

        *resume* is the repair state (``StrategyResult.repair``) of a
        degraded execution of the same query: the run then starts from
        the evidence that execution collected and does only the work it
        had to skip — a repair is this same code path too.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def fault_wait_chain(
    fed: FederationSim,
    ctx: ExecutionContext,
    negotiation: Negotiation,
    events: List[TraceEvent],
    deps: Iterable[Node] = (),
) -> List[Node]:
    """Schedule a negotiation's timeout/backoff ladder as delay nodes.

    Returns the dependency frontier downstream work should wait on: the
    last wait node of the chain, or *deps* unchanged when the link
    negotiated cleanly (or its ladder was already scheduled — the memoized
    negotiation pays its waits only once per execution).  One trace event
    is recorded per failed attempt, so every injected fault is visible.
    """
    key = (negotiation.src, negotiation.dst)
    frontier = list(deps)
    if not negotiation.failures or key in ctx.scheduled_links:
        return frontier
    ctx.scheduled_links.add(key)
    for attempt_no, attempt in enumerate(negotiation.failures, start=1):
        node = fed.delay(
            negotiation.src,
            attempt.wait_s,
            label=(
                f"wait {negotiation.src}->{negotiation.dst} "
                f"attempt{attempt_no} ({attempt.outcome})"
            ),
            deps=frontier,
        )
        events.append(
            TraceEvent.of(
                "fault.attempt",
                src=negotiation.src,
                dst=negotiation.dst,
                attempt=attempt_no,
                outcome=attempt.outcome,
                wait_s=f"{attempt.wait_s:.6f}",
            )
        )
        frontier = [node]
    if negotiation.ok:
        events.append(
            TraceEvent.of(
                "fault.recovered",
                src=negotiation.src,
                dst=negotiation.dst,
                retries=negotiation.retries,
            )
        )
    return frontier


@dataclass
class DispatchPlan:
    """Phase O output at one site: grouped check requests + accounting."""

    requests: List[CheckRequest] = field(default_factory=list)
    mapping_lookups: int = 0
    assistants_found: int = 0
    assistants_dispatched: int = 0
    signature_comparisons: int = 0
    #: (assistant, predicate) checks dropped because the constraint
    #: catalog proved their verdict UNKNOWN (planner constraints/full).
    checks_pruned: int = 0
    # Definitive verdicts derived locally from signatures (BL-S / PL-S).
    signature_verdicts: List[Tuple[LOid, Predicate, str]] = field(
        default_factory=list
    )


def plan_dispatch(
    site: str,
    items: Iterable[UnsolvedItem],
    system: DistributedSystem,
    use_signatures: bool = False,
    constraints=None,
) -> DispatchPlan:
    """Plan the assistant checks for the unsolved items found at *site*.

    For every unsolved item, the site probes the replicated GOid mapping
    table for isomeric objects, keeps the assistants whose home schema
    defines the missing data, and groups the survivors into one
    :class:`CheckRequest` per (home site, class, predicate set).

    With ``use_signatures`` the site first tests each assistant against
    the replicated signature catalog: assistants that provably violate a
    predicate yield a local VIOLATED verdict and are not shipped.

    With a *constraints* catalog (planner ``constraints``/``full``),
    checks whose verdict is provably UNKNOWN — a single-step relative
    predicate on an attribute that is null for every object of the
    assistant's class at its site — are dropped before dispatch.
    Certification treats UNKNOWN exactly like an unasked check, so the
    answer is identical; only the wire traffic shrinks.
    """
    plan = DispatchPlan()
    signatures = system.signatures if use_signatures else None
    if use_signatures and signatures is None:
        raise QueryError(
            "signature strategy requested but system.build_signatures() "
            "was never called"
        )
    # (db, class, predicates) -> ordered unique loids
    buckets: Dict[Tuple[str, str, Tuple[Predicate, ...]], List[LOid]] = {}
    # (assistant db, global class, relative path) -> missing depth: the
    # schema is walked once per distinct path of this call.
    depths: Dict[tuple, Optional[int]] = {}
    for item in items:
        global_class = system.global_schema.global_class_of(
            item.loid.db, item.class_name
        )
        if global_class is None:
            continue
        plan.mapping_lookups += 1
        assistants = system.catalog.assistants_of(global_class, item.loid)
        plan.assistants_found += len(assistants)
        for assistant in assistants:
            plan.mapping_lookups += 1
            answerable = _answerable_predicates(
                assistant, global_class, item, system, depths
            )
            if not answerable:
                continue
            home_class = system.global_schema.constituent_class(
                assistant.db, global_class
            )
            if home_class is None:  # pragma: no cover - mapping implies it
                continue
            if constraints is not None:
                kept = []
                for up in answerable:
                    if constraints.check_provably_unknown(
                        system.db(assistant.db),
                        home_class,
                        up.relative_predicate,
                    ):
                        plan.checks_pruned += 1
                    else:
                        kept.append(up)
                answerable = kept
                if not answerable:
                    continue
            if signatures is not None:
                precheck = signatures.precheck_assistants(
                    home_class,
                    (assistant,),
                    [up.relative_predicate for up in answerable],
                )
                plan.signature_comparisons += precheck.comparisons
                for predicate, loids in precheck.violated.items():
                    for loid in loids:
                        plan.signature_verdicts.append(
                            (loid, predicate, VIOLATED)
                        )
                if not precheck.to_check:
                    continue
                # Ship only the predicates not already settled locally.
                answerable = [
                    up
                    for up in answerable
                    if assistant
                    not in precheck.violated.get(up.relative_predicate, ())
                ]
                if not answerable:
                    continue
            key = (
                assistant.db,
                home_class,
                tuple(sorted(
                    {up.relative_predicate for up in answerable}, key=str
                )),
            )
            bucket = buckets.setdefault(key, [])
            if assistant not in bucket:
                bucket.append(assistant)
                plan.assistants_dispatched += 1
    for (db_name, class_name, predicates), loids in sorted(
        buckets.items(), key=lambda kv: (kv[0][0], kv[0][1], repr(kv[0][2]))
    ):
        plan.requests.append(
            CheckRequest(
                db_name=db_name,
                class_name=class_name,
                loids=tuple(loids),
                predicates=predicates,
            )
        )
    return plan


def _answerable_predicates(
    assistant: LOid,
    global_class: str,
    item: UnsolvedItem,
    system: DistributedSystem,
    depths: Dict[tuple, Optional[int]],
):
    """The item's unsolved predicates the assistant's site can advance.

    A site can *provide* the missing data when its schema defines the
    whole relative path from the assistant's class; it can still
    *advance* a nested path when it defines a prefix (its reference hop
    feeds a chase round that continues at the referenced object's own
    isomeric copies).  Only assistants whose class lacks even the first
    step are useless — the paper's "no assistant object can provide the
    data" case.
    """
    answerable = []
    for unsolved in item.unsolved:
        key = (assistant.db, global_class, unsolved.relative_path)
        if key not in depths:
            depths[key] = missing_depth(system.global_schema, *key)
        depth = depths[key]
        if depth is None or depth >= 1:
            answerable.append(unsolved)
    return answerable


def evaluate_site(
    system: DistributedSystem,
    db_name: str,
    local_query,
    use_signatures: bool,
    scan_first: bool = False,
    constraints=None,
):
    """One site's logic-layer work (steps C1/C2): evaluate its local
    query, gather the unsolved items, plan their assistant checks.

    The items are those of the local maybe rows (BL, and every repair);
    with *scan_first* (PL's phase-O scan) they are every root object's,
    and the scan and its meter come back for costing.  Returns
    ``(result, (scan, meter) or None, items, plan)``.
    """
    db = system.db(db_name)
    result = db.execute_local(local_query)
    scanned = None
    if scan_first:
        scanned = db.collect_unsolved(local_query)
        items = scanned[0].all_items()
    else:
        items = [
            item
            for book in result.books if book.kind is RowKind.MAYBE
            for item in book.unsolved_items
        ]
    plan = plan_dispatch(
        db_name, items, system,
        use_signatures=use_signatures,
        constraints=constraints,
    )
    return result, scanned, items, plan


def run_checks_paired(
    requests: Sequence[CheckRequest],
    system: DistributedSystem,
) -> List[Tuple[CheckRequest, CheckReport]]:
    """Execute check requests at their home databases (steps BL_C3/PL_C3).

    Returns explicit ``(request, report)`` pairs so callers never rely on
    positional alignment between a request list and a report list — the
    seam batching rewrites, and the one a dropped or reordered report
    would silently corrupt.
    """
    return [
        (request, system.db(request.db_name).check_assistants(request))
        for request in requests
    ]


@dataclass
class CheckBatch:
    """Every check request one site sends to one destination, coalesced
    into a single request/reply exchange.

    The request message carries all assistant LOids plus the *distinct*
    predicate descriptors of the batch (shared predicates ship once);
    the reply carries every verdict of the batch.  Individual
    :class:`CheckReport`s stay keyed by their request inside ``pairs``.
    """

    src: str
    dst: str
    pairs: List[Tuple[CheckRequest, CheckReport]] = field(
        default_factory=list
    )

    @property
    def total_loids(self) -> int:
        return sum(len(request.loids) for request, _ in self.pairs)

    @property
    def distinct_predicates(self) -> int:
        seen = set()
        for request, _ in self.pairs:
            seen.update(request.predicates)
        return len(seen)

    @property
    def total_verdicts(self) -> int:
        return sum(
            sum(len(v) for v in report.satisfied.values())
            + sum(len(v) for v in report.violated.values())
            for _, report in self.pairs
        )

    def request_bytes(self, cost) -> int:
        """One aggregated check-request message for the whole batch."""
        return cost.check_request_bytes(
            self.total_loids, self.distinct_predicates
        )

    def reply_bytes(self, cost) -> int:
        """One aggregated check-reply message for the whole batch."""
        return cost.check_reply_bytes(max(self.total_verdicts, 1))


def batch_exchanges(
    src: str,
    pairs: Sequence[Tuple[CheckRequest, CheckReport]],
) -> List[CheckBatch]:
    """Group ``(request, report)`` pairs into one batch per destination.

    Batches come out ordered by destination name for deterministic
    scheduling; pairs keep their relative order within a batch.
    """
    by_dst: Dict[str, CheckBatch] = {}
    for request, report in pairs:
        batch = by_dst.get(request.db_name)
        if batch is None:
            batch = by_dst[request.db_name] = CheckBatch(
                src=src, dst=request.db_name
            )
        batch.pairs.append((request, report))
    return [by_dst[dst] for dst in sorted(by_dst)]


@dataclass
class ChaseRound:
    """One follow-up check round issued by the global processing site."""

    requests: List[CheckRequest] = field(default_factory=list)
    reports: List[CheckReport] = field(default_factory=list)
    #: The same data keyed explicitly: one (request, report) pair each.
    pairs: List[Tuple[CheckRequest, CheckReport]] = field(
        default_factory=list
    )
    mapping_lookups: int = 0


def chase_blocked(
    initial_reports: Sequence[CheckReport],
    system: DistributedSystem,
    verdicts: VerdictIndex,
    max_rounds: int,
    ctx: ExecutionContext,
    skipped: Optional[List[Tuple]] = None,
    stalled: Iterable[Tuple] = (),
) -> List[ChaseRound]:
    """Resolve multi-hop missing-reference chains by iterated checking.

    A check that walks a nested relative predicate can get stuck at an
    object other than the checked assistant (a dangling or locally absent
    reference step).  The global site — which holds the replicated GOid
    mapping tables and receives all check reports — then issues follow-up
    checks against the blocking object's own isomeric copies, repeating
    until every chain is resolved or the path runs out.  Verdicts
    propagate back to the *original* (assistant, predicate) pair that the
    certification rule looks up.

    Each hop strictly shortens the remaining relative path, so the loop
    terminates within the query's maximum path length.

    An unreachable follow-up site does not demote the chain here: the
    ``(site, original assistant, original predicate, round, holder,
    holder class, remaining predicate)`` tuple goes to the *skipped*
    list and the caller decides *after* all verdicts are in — another
    copy of the blocking object may settle the original pair anyway, in
    which case nothing was lost.  The same tuples let a later repair
    re-enter the chase from the exact block it stalled at: *stalled*
    takes such chains — ``(original assistant, original predicate,
    holder, holder class, remaining predicate)`` — and chases them after
    the blocks of *initial_reports*.
    """
    # Each entry tracks the original pair a chain must report back to:
    # (original assistant, original relative predicate, blocker loid,
    #  blocker class, remaining predicate).
    pending = [
        (b.checked, b.predicate, b.holder, b.holder_class, b.remaining)
        for report in initial_reports
        for b in report.blocked
    ]
    pending.extend(stalled)
    rounds: List[ChaseRound] = []
    while pending and len(rounds) < max_rounds:
        round_data = ChaseRound()
        buckets: Dict[Tuple[str, str, Predicate], List[LOid]] = {}
        entries = []
        for orig_loid, orig_pred, holder, holder_class, remaining in pending:
            global_class = system.global_schema.global_class_of(
                holder.db, holder_class
            )
            if global_class is None:
                continue
            round_data.mapping_lookups += 1
            assistants = system.catalog.assistants_of(global_class, holder)
            answerable: List[LOid] = []
            for assistant in assistants:
                round_data.mapping_lookups += 1
                depth = missing_depth(
                    system.global_schema,
                    assistant.db,
                    global_class,
                    remaining.path,
                )
                if depth is not None and depth == 0:
                    continue  # cannot even start the walk there
                if not ctx.reachable(system.global_site, assistant.db):
                    # The follow-up check cannot be issued; the chain
                    # stays UNKNOWN unless a live copy settles its pair.
                    if skipped is not None:
                        skipped.append((
                            assistant.db,
                            orig_loid,
                            orig_pred,
                            len(rounds) + 1,
                            holder,
                            holder_class,
                            remaining,
                        ))
                    continue
                answerable.append(assistant)
                target_class = system.global_schema.constituent_class(
                    assistant.db, global_class
                )
                if target_class is None:  # pragma: no cover
                    continue
                bucket = buckets.setdefault(
                    (assistant.db, target_class, remaining), []
                )
                if assistant not in bucket:
                    bucket.append(assistant)
            if answerable:
                entries.append((orig_loid, orig_pred, remaining, tuple(answerable)))
        if not entries:
            break
        for (db_name, class_name, predicate), loids in sorted(
            buckets.items(), key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2]))
        ):
            round_data.requests.append(
                CheckRequest(
                    db_name=db_name,
                    class_name=class_name,
                    loids=tuple(loids),
                    predicates=(predicate,),
                )
            )
        round_data.pairs = run_checks_paired(round_data.requests, system)
        round_data.reports = [report for _, report in round_data.pairs]
        rounds.append(round_data)

        # Index this round's verdicts and blocks.
        verdict_of: Dict[Tuple[LOid, Predicate], str] = {}
        blocked_of: Dict[Tuple[LOid, Predicate], List] = {}
        for report in round_data.reports:
            for predicate, loids in report.violated.items():
                for loid in loids:
                    verdict_of[(loid, predicate)] = VIOLATED
            for predicate, loids in report.satisfied.items():
                for loid in loids:
                    verdict_of.setdefault((loid, predicate), SATISFIED)
            for block in report.blocked:
                blocked_of.setdefault(
                    (block.checked, block.predicate), []
                ).append(block)

        next_pending = []
        for orig_loid, orig_pred, remaining, assistants in entries:
            resolved = [
                verdict_of.get((assistant, remaining)) for assistant in assistants
            ]
            if VIOLATED in resolved:
                verdicts.add(orig_loid, orig_pred, VIOLATED)
                continue
            if SATISFIED in resolved:
                verdicts.add(orig_loid, orig_pred, SATISFIED)
                # Keep chasing blocked branches: a later hop can still
                # surface a violation under inconsistent data; with
                # consistent data it simply confirms.
            for assistant in assistants:
                for block in blocked_of.get((assistant, remaining), ()):
                    next_pending.append(
                        (
                            orig_loid,
                            orig_pred,
                            block.holder,
                            block.holder_class,
                            block.remaining,
                        )
                    )
        pending = next_pending
    return rounds


def collect_verdicts(
    reports: Iterable[CheckReport],
    signature_verdicts: Iterable[Tuple[LOid, Predicate, str]] = (),
    into: Optional[VerdictIndex] = None,
) -> VerdictIndex:
    """Fold check reports and local signature verdicts into one index
    (*into*, when a resumed run already holds one)."""
    verdicts = into if into is not None else VerdictIndex()
    for loid, predicate, verdict in signature_verdicts:
        verdicts.add(loid, predicate, verdict)
    for report in reports:
        verdicts.add_report(report)
    return verdicts
