"""BL and PL — the localized approaches, plus their signature variants.

**BL** (basic localized, phase order P -> O -> I, Section 3.2): each site
evaluates its local predicates first (step BL_C1), then looks up and
dispatches assistant-object checks *only for the unsolved items of its
local maybe results* (step BL_C2).  Checks execute at the assistants'
home sites (step BL_C3) and report to the global site, which certifies
(step BL_G2).

**PL** (parallel localized, phase order O -> P -> I, Section 3.3): each
site *first* scans every root object for missing data and dispatches the
assistant checks (step PL_C1), then evaluates local predicates (step
PL_C2) while the checks proceed at other sites in parallel (step PL_C3).
PL trades extra mapping-table lookups, transfers and checks — including
for objects that local evaluation would have eliminated — for the overlap
of phases O and P.

**BL-S / PL-S** (future-work extension): before shipping assistant LOids,
the site tests the replicated object signatures; assistants that provably
violate an equality predicate yield a local VIOLATED verdict and are not
transferred, cutting phase-O traffic at the price of signature
comparisons.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.conditions.algebra import SiteDown, UncheckedCopy, attach
from repro.conditions.reasons import site_unavailable
from repro.core.binding_resolution import (
    ResolutionStats,
    resolve_missing_bindings,
)
from repro.core.certification import (
    SATISFIED,
    VIOLATED,
    CertificationStats,
    VerdictIndex,
    certify,
)
from repro.core.decompose import attributes_needed_by_class
from repro.core.query import Query
from repro.core.results import ResultSet
from repro.core.strategies.base import (
    CheckBatch,
    DispatchPlan,
    Strategy,
    StrategyResult,
    batch_exchanges,
    chase_blocked,
    collect_verdicts,
    evaluate_site,
    fault_wait_chain,
    run_checks_paired,
)
from repro.core.system import DistributedSystem
from repro.faults.injector import ExecutionContext, Negotiation
from repro.objectdb.ids import GOid
from repro.objectdb.local_query import CheckReport, CheckRequest, LocalResultSet
from repro.obs.spans import TraceEvent
from repro.planner import uses_constraints
from repro.resilience.failover import (
    PendingSkip,
    covered_by_verdicts,
    pending_skips_of,
    relay_route,
)
from repro.sim.metrics import ExecutionMetrics, WorkCounters
from repro.sim.taskgraph import Node, PHASE_I, PHASE_O, PHASE_P, PHASE_SCAN


def annotate_site_loss(
    system: DistributedSystem,
    query: Query,
    local_results: Dict[str, LocalResultSet],
    results: ResultSet,
    down: Set[str],
    skipped_goids: Dict[GOid, Set[str]],
    queried_down: Iterable[str] = (),
) -> None:
    """Annotate the maybe rows whose certification an unreachable site
    blocked — the localized strategies' degraded-answer semantics.

    Per-site provenance survives a partial execution, so only the rows
    whose assistant checks were skipped (*skipped_goids*, entity -> the
    down check sites), whose unsolved items' checks were skipped, or
    whose entity has a copy at a *down* site are affected: they stay
    maybe, annotated with why, and carry machine-dischargeable atoms —
    :class:`UncheckedCopy` for the exact skipped check pairs and
    :class:`SiteDown` for unreachable copy holders.  *queried_down*
    names sites whose whole local block dropped; they contribute
    ``SiteDown`` atoms but never notes, so degraded notes stay
    byte-identical to the historical rendering.
    """
    down = set(down)
    atom_down = down | set(queried_down)
    table = system.catalog.table(query.range_class)
    # root goid -> goids of its unsolved items: the (possibly
    # branch-class) entities whose assistant checks this row's
    # certification depended on.
    item_goids: Dict[GOid, Set[GOid]] = {}
    for site_result in local_results.values():
        for row in site_result.maybe_rows:
            root = system.catalog.goid_of(query.range_class, row.loid)
            if root is None:
                continue
            bag = item_goids.setdefault(root, set())
            for item in row.unsolved_items:
                g_cls = system.global_schema.global_class_of(
                    item.loid.db, item.class_name
                )
                if g_cls is None:
                    continue
                goid = system.catalog.goid_of(g_cls, item.loid)
                if goid is not None:
                    bag.add(goid)
    for result_row in results.maybe:
        if not result_row.unsolved:
            continue
        # The row is affected when an assistant check for it (or
        # for one of its unsolved items) was skipped, or when the
        # entity has a copy at a down site (its certification
        # evidence may live there).
        unchecked: Dict[GOid, Set[str]] = {}
        root_sites = set(skipped_goids.get(result_row.goid, ()))
        if root_sites:
            unchecked[result_row.goid] = root_sites
        note_sites = set(root_sites)
        for goid in item_goids.get(result_row.goid, ()):
            item_sites = set(skipped_goids.get(goid, ()))
            if item_sites:
                unchecked[goid] = item_sites
                note_sites |= item_sites
        placements = set(table.loids_of(result_row.goid))
        note_sites |= placements & down
        for site in sorted(note_sites):
            note = site_unavailable(site)
            if note not in result_row.notes:
                result_row.notes = result_row.notes + (note,)
        atoms = [
            UncheckedCopy(site=site, goid=goid)
            for goid, goid_sites in unchecked.items()
            for site in sorted(goid_sites)
        ]
        atoms.extend(
            SiteDown(site=site) for site in sorted(placements & atom_down)
        )
        if atoms:
            attach(result_row, *atoms)


class _LocalizedStrategy(Strategy):
    """Common machinery of BL and PL; subclasses fix the phase order."""

    #: True for PL: dispatch assistant checks before local evaluation.
    phase_o_first: bool = False
    #: True for the signature variants.
    use_signatures: bool = False

    def execute(
        self,
        system: DistributedSystem,
        query: Query,
        ctx: ExecutionContext,
        resume=None,
    ) -> StrategyResult:
        return _LocalizedRun(self, system, query, ctx, resume).run()

    @staticmethod
    def _site_sizes(
        system: DistributedSystem,
        query: Query,
        branch_classes: Tuple[str, ...],
        sites: Iterable[str],
    ) -> Tuple[Dict[str, Tuple[float, float]], float]:
        """Object sizes at each of *sites*, and their branch average.

        Per site: (root object bytes, average branch object bytes).
        Only attributes the site's constituent classes actually define
        are stored there, so projections (and disk reads) are sized
        per-site.  The second result averages the branch figure across
        *sites* (0.0 when there are none).
        """
        cost = system.cost_model
        global_schema = system.global_schema
        needed = attributes_needed_by_class(
            query, global_schema, (query.range_class,) + branch_classes
        )

        def local_attr_count(db_name: str, global_cls: str) -> int:
            local_cls = global_schema.constituent_class(db_name, global_cls)
            if local_cls is None:
                return len(needed[global_cls])
            cdef = system.db(db_name).schema.cls(local_cls)
            return sum(1 for a in needed[global_cls] if cdef.has_attribute(a))

        sizes: Dict[str, Tuple[float, float]] = {}
        for db_name in sites:
            root_attrs = local_attr_count(db_name, query.range_class)
            if branch_classes:
                avg_attrs = sum(
                    local_attr_count(db_name, cls) for cls in branch_classes
                ) / len(branch_classes)
                branch_bytes = cost.object_bytes(avg_attrs)
            else:
                branch_bytes = 0.0
            sizes[db_name] = (cost.object_bytes(root_attrs), branch_bytes)
        average = (
            sum(branch for _, branch in sizes.values()) / len(sizes)
            if sizes else 0.0
        )
        return sizes, average


def _result_bytes(result: LocalResultSet, query: Query, cost) -> int:
    """Bytes of one site's local result shipment.

    Each row carries LOid + GOid + target values; maybe rows add one
    LOid plus predicate descriptors per unsolved item/predicate.
    """
    books = result.books
    total = len(books) * cost.row_bytes(len(query.targets))
    for book in books:
        total += len(book.unsolved) * cost.attribute_bytes
        for item in book.unsolved_items:
            total += cost.loid_bytes
            total += len(item.unsolved) * cost.attribute_bytes
    return total


class _LocalizedRun:
    """One BL/PL execution: the state its steps share, and the steps.

    :meth:`run` is the algorithm — site loop, chase, failover
    post-resolution, certification, binding completion, annotation,
    repair capture — and every step reads and extends the same task
    graph, work counters, event list and skip bookkeeping held here.

    A repair is the same run *resumed* from the
    :class:`~repro.conditions.recertify.LocalizedRepairState` a degraded
    run captured: the evidence starts out as that run left it and the
    steps find only the work it skipped — its down sites (their local
    queries decomposed anew, at the current epoch), its unsent check
    requests, its stalled chase chains.
    """

    def __init__(
        self,
        strategy: _LocalizedStrategy,
        system: DistributedSystem,
        query: Query,
        ctx: ExecutionContext,
        resume=None,
    ) -> None:
        self.strategy = strategy
        self.name = strategy.name
        self.system = system
        self.query = query
        self.ctx = ctx
        self.decomposed = system.decompose(query)
        self.fed = system.simulator(ctx.plan)
        self.work = WorkCounters()
        self.events: List[TraceEvent] = []
        # Constraint catalog, consulted only under planner=constraints/full.
        # Soundness contract: a prune fires only when the static path
        # would provably produce the identical answer (empty local result
        # set; UNKNOWN check verdict, which certification treats exactly
        # like an unasked check).
        self.constraints = (
            system.constraints
            if uses_constraints(ctx.options.planner)
            else None
        )
        self.local_results: Dict[str, LocalResultSet] = {}
        self.reports: List[CheckReport] = []
        self.signature_verdicts: list = []
        #: Everything certification must wait for.
        self.certify_deps: List[Node] = []
        #: Average branch object at the sites actually consulted; sizes
        #: the reads of checks, which run at assistants' home sites.
        self.avg_branch_bytes = 0.0
        #: site -> (root object bytes, average branch object bytes).
        self.sizes: Dict[str, Tuple[float, float]] = {}
        self.branch_classes = query.branch_classes(system.global_schema.schema)
        # Assistant home sites whose checks could not be dispatched
        # (dict-as-ordered-set: insertion order is the deterministic
        # site-loop order, membership tests stay O(1)).
        self.unreachable_check_sites: Dict[str, None] = {}
        #: Entities whose assistant checks were skipped -> the down sites.
        self.skipped_goids: Dict[GOid, Set[str]] = {}
        #: (src, request, pending pairs) per check request that could not
        #: be dispatched anywhere, awaiting post-verdict resolution.
        self.deferred_requests: List[
            Tuple[str, CheckRequest, List[PendingSkip]]
        ] = []
        #: (src site, CheckRequest) pairs that were never executed — the
        #: re-runnable half of the repair state.
        self.skipped_check_requests: List[Tuple[str, CheckRequest]] = []
        #: Destination of every request/reply pair, in the order sent.
        self.exchanges: List[str] = []
        local_queries = self.decomposed.local_queries
        if resume is None:
            #: The sites this run queries, with their local queries.
            self.site_queries = local_queries
            self.phase_o_first = strategy.phase_o_first
            self.verdicts = VerdictIndex()
            #: Work a degraded run left undone (none on a fresh one).
            self.unsent_requests = self.stalled_chase = ()
        else:
            # PL scans first to overlap its checks with evaluation at
            # the other sites; their evidence is in hand already, so a
            # resumed run checks only what evaluation leaves maybe.
            self.phase_o_first = False
            self.local_results.update(resume.local_results)
            self.site_queries = {}
            for site in resume.down_sites:
                if site in local_queries:
                    self.site_queries[site] = local_queries[site]
                else:
                    # Gone from the federation since: down for good.
                    ctx.note_queried_site_down(site)
            self.verdicts = resume.verdicts.clone()
            self.unsent_requests = resume.skipped_requests
            self.stalled_chase = resume.skipped_chase

    def run(self) -> StrategyResult:
        ctx = self.ctx
        # Skipped check pairs are not demoted eagerly but resolved after
        # verdict collection (a live isomeric copy may have settled
        # them anyway), so this run can tell a full recovery.
        ctx.recovery_tracked = True
        self._query_sites()
        verdicts = collect_verdicts(
            self.reports, self.signature_verdicts, into=self.verdicts
        )
        self._send_unsent(verdicts)
        chase_skips = self._chase(verdicts)
        results, certify_node = self._certify(verdicts)
        self._complete_bindings(results, certify_node)
        self._annotate(results)
        repair_state = self._capture_repair(results, verdicts, chase_skips)

        ctx.charge(self.work)
        outcome = self.fed.run()
        metrics = ExecutionMetrics.from_outcome(
            self.name,
            outcome,
            self.work,
            certain_results=len(results.certain),
            maybe_results=len(results.maybe),
            events=self.events,
            fault_windows=ctx.fault_windows(self.fed.sites),
        )
        return StrategyResult(
            results=results.sort(),
            metrics=metrics,
            availability=ctx.availability(),
            repair=repair_state,
            exchanges=tuple(self.exchanges),
        )

    # --- small shared pieces --------------------------------------------------

    def _event(self, name: str, **attrs: object) -> None:
        self.events.append(TraceEvent.of(name, **attrs))

    def _wait(self, negotiation: Negotiation, deps: List[Node]) -> List[Node]:
        """*deps*, behind the negotiation's fault-wait ladder if any."""
        return fault_wait_chain(
            self.fed, self.ctx, negotiation, self.events, deps=deps
        )

    # --- the site loop --------------------------------------------------------

    def _query_sites(self) -> None:
        system, ctx, query = self.system, self.ctx, self.query
        # Sites whose negotiation fails drop out of the execution
        # entirely, so they must not skew the average branch object
        # (negotiations are memoized — the per-site loop below reuses
        # these outcomes without re-paying any retry ladder).
        surviving = [
            db for db in self.site_queries
            if ctx.contact(system.global_site, db).ok
        ]
        self.sizes, self.avg_branch_bytes = _LocalizedStrategy._site_sizes(
            system, query, self.branch_classes, surviving
        )
        for db_name, local_query in self.site_queries.items():
            self._query_site(db_name, local_query)

    def _query_site(self, db_name: str, local_query) -> None:
        system, ctx, fed, work = self.system, self.ctx, self.fed, self.work
        if self.constraints is not None:
            prune_reason = self.constraints.site_prune_reason(
                system.db(db_name), local_query
            )
            if prune_reason is not None:
                # The catalog proves this site block answers with zero
                # rows; synthesize the empty result set the static path
                # would have computed and skip the site's
                # scan/evaluate/dispatch work entirely.
                self.local_results[db_name] = LocalResultSet(
                    db_name=db_name,
                    range_class=local_query.range_class,
                )
                work.sites_pruned += 1
                self._event(
                    "planner.prune",
                    kind="site", site=db_name, reason=prune_reason,
                )
                return
        negotiation = ctx.contact(system.global_site, db_name)
        entry_deps = self._wait(negotiation, [])
        if not negotiation.ok:
            # The whole site block drops out: its local results are
            # lost, but every other site's provenance is intact —
            # certification proceeds over the sites actually queried.
            ctx.note_queried_site_down(db_name)
            self._event(
                "fault.site_skipped",
                site=db_name,
                reason=negotiation.reason,
                attempts=len(negotiation.attempts),
            )
            return

        # --- run the site's work for real (logic layer) -----------------
        result, scanned, items, plan = evaluate_site(
            system, db_name, local_query,
            use_signatures=self.strategy.use_signatures,
            scan_first=self.phase_o_first,
            constraints=self.constraints,
        )
        self.local_results[db_name] = result
        self.exchanges.append(db_name)
        self.signature_verdicts.extend(plan.signature_verdicts)
        work.checks_pruned += plan.checks_pruned
        if plan.checks_pruned:
            self._event(
                "planner.prune",
                kind="check", site=db_name, checks_pruned=plan.checks_pruned,
            )
        self._event(
            "dispatch.plan",
            site=db_name,
            unsolved_items=len(items),
            assistants=plan.assistants_found,
            check_requests=len(plan.requests),
            signature_verdicts=len(plan.signature_verdicts),
        )
        work.objects_scanned += result.objects_scanned
        work.comparisons += result.comparisons
        work.assistants_looked_up += plan.assistants_found
        work.signature_comparisons += plan.signature_comparisons

        # --- build the site's activity sub-graph ------------------------
        if self.phase_o_first:
            eval_node, dispatch_node = self._build_pl_site(
                db_name, result, *scanned, plan, entry_deps
            )
        else:
            eval_node, dispatch_node = self._build_bl_site(
                db_name, result, plan, entry_deps
            )

        # --- ship local results to the global processing site -----------
        result_bytes = _result_bytes(result, self.query, system.cost_model)
        work.bytes_network += int(result_bytes)
        work.messages += 1
        self.certify_deps.append(
            fed.transfer(
                db_name,
                system.global_site,
                nbytes=result_bytes,
                label=f"{self.name} results",
                deps=[eval_node],
            )
        )
        self._dispatch_checks(db_name, plan.requests, [dispatch_node])

    def _send_unsent(self, verdicts: VerdictIndex) -> None:
        """Resumed run: send the check requests the degraded run could
        not — except those an isomeric copy's definitive verdict
        (collected then, or just now) has settled, which need no contact
        at all."""
        system = self.system
        for src, request in self.unsent_requests:
            skips = pending_skips_of(system, src, request)
            if skips and all(
                covered_by_verdicts(system, verdicts, skip) for skip in skips
            ):
                continue
            for report in self._dispatch_checks(src, [request], []):
                verdicts.add_report(report)

    # --- phase-O exchanges ----------------------------------------------------

    def _dispatch_checks(
        self, src: str, requests: List[CheckRequest], deps: List[Node]
    ) -> List[CheckReport]:
        """Route and schedule check *requests* of site *src*, gated by
        *deps*; returns the reports of those that ran.

        Requests whose direct link is dead fail over to the global-site
        relay when that route is alive; requests with no live route are
        skipped, their demotion deferred until verdicts are in: a live
        isomeric copy may settle the pair.

        Every request sharing a destination rides one request/reply
        message pair, gated by its link's fault-wait ladder.
        """
        system, ctx = self.system, self.ctx
        runnable, relayed = [], []
        for request in requests:
            dst = request.db_name
            if ctx.reachable(src, dst):
                runnable.append(request)
                continue
            via = relay_route(ctx, system, dst)
            if via is not None:
                ctx.checks_failed_over += 1
                self._event(
                    "fault.failover",
                    src=src, dst=dst, via=via, assistants=len(request.loids),
                )
                relayed.append(request)
                continue
            self.deferred_requests.append(
                (src, request, pending_skips_of(system, src, request))
            )
            self._event(
                "fault.check_skipped",
                src=src, dst=dst, assistants=len(request.loids),
            )
        paired = run_checks_paired(runnable, system)
        relayed_paired = run_checks_paired(relayed, system)
        reports = [report for _, report in paired + relayed_paired]
        self.reports.extend(reports)
        self.exchanges.extend(report.db_name for report in reports)
        for batch in batch_exchanges(src, paired):
            send_deps = self._wait(ctx.contact(src, batch.dst), deps)
            self.certify_deps.append(
                self._exchange(batch, send_deps, kind="check")
            )
        # Relayed requests lost their direct link: they hop through the
        # global site, gated by *its* link to the destination.
        for batch in batch_exchanges(src, relayed_paired):
            send_deps = self._wait(
                ctx.contact(system.global_site, batch.dst), deps
            )
            self.certify_deps.append(self._exchange(
                batch, send_deps, kind="check", via=system.global_site
            ))
        return reports

    def _exchange(
        self,
        batch: CheckBatch,
        send_deps: List[Node],
        kind: str,
        round_no: Optional[int] = None,
        via: Optional[str] = None,
    ) -> Node:
        """One request/reply exchange; returns the reply node.

        The per-request disk read and verdict evaluation at the
        destination are separate nodes; only the two network messages
        are shared by the whole batch.

        With *via* (failover relay) the request rides two hops
        (``src -> via -> dst``), each billed in full; the reply path is
        unchanged (``dst -> global site``), so a relayed exchange costs
        one extra message and one extra request-sized transfer.
        """
        system, fed, work = self.system, self.fed, self.work
        request_bytes = batch.request_bytes(system.cost_model)
        reply_bytes = batch.reply_bytes(system.cost_model)
        hops = 1 if via is None else 2
        work.bytes_network += request_bytes * hops + reply_bytes
        work.messages += hops + 1
        send = fed.transfer(
            batch.src,
            batch.dst if via is None else via,
            nbytes=request_bytes,
            label=f"{self.name} {kind}-req",
            deps=send_deps,
            phase=PHASE_O,
        )
        if via is not None:
            send = fed.transfer(
                via,
                batch.dst,
                nbytes=request_bytes,
                label=f"{self.name} {kind}-relay",
                deps=[send],
                phase=PHASE_O,
            )
        check_cpus: List[Node] = []
        for _, report in batch.pairs:
            work.assistants_checked += report.objects_checked
            work.comparisons += report.comparisons
            check_bytes = report.objects_checked * self.avg_branch_bytes
            work.bytes_disk += int(check_bytes)
            check_disk = fed.disk(
                batch.dst,
                nbytes=check_bytes,
                label=f"{self.name} {kind} read",
                phase=PHASE_O,
                deps=[send],
                seeks=report.objects_checked,
            )
            check_cpus.append(
                fed.cpu(
                    batch.dst,
                    comparisons=report.comparisons,
                    label=f"{self.name} {kind} eval",
                    phase=PHASE_O,
                    deps=[check_disk],
                )
            )
        attrs = dict(
            src=batch.src,
            dst=batch.dst,
            requests=len(batch.pairs),
            loids=batch.total_loids,
            request_bytes=request_bytes,
            reply_bytes=reply_bytes,
        )
        if round_no is not None:
            attrs["round"] = round_no
        if via is not None:
            attrs["via"] = via
        self._event("dispatch.batch", **attrs)
        return fed.transfer(
            batch.dst,
            system.global_site,
            nbytes=reply_bytes,
            label=f"{self.name} {kind}-reply",
            deps=check_cpus or [send],
            phase=PHASE_O,
        )

    # --- chase rounds for multi-hop missing-reference chains ------------------

    def _chase(self, verdicts: VerdictIndex) -> List[Tuple]:
        """Run the chase, settle every deferred skip, schedule the
        rounds.  Returns the skipped follow-up checks."""
        system = self.system
        max_rounds = max(
            (len(p.path) for p in self.query.all_predicates()), default=0
        )
        chase_skips: List[Tuple] = []
        chase_rounds = chase_blocked(
            self.reports, system, verdicts, max_rounds, self.ctx,
            skipped=chase_skips,
            # A resumed run re-enters the chains its degraded run left
            # stalled, where they stopped — settled pairs need nothing.
            stalled=dict.fromkeys(
                chain for chain in self.stalled_chase
                if verdicts.get(chain[0], chain[1]) not in (SATISFIED, VIOLATED)
            ),
        )
        for round_no, chase in enumerate(chase_rounds, start=1):
            self.exchanges.extend(r.db_name for r in chase.requests)
            self._event(
                "chase.round",
                round=round_no,
                requests=len(chase.requests),
                mapping_lookups=chase.mapping_lookups,
            )
        self._resolve_deferred(verdicts, chase_skips)

        prev_deps: List[Node] = list(self.certify_deps)
        for round_no, chase in enumerate(chase_rounds, start=1):
            lookup = self.fed.cpu(
                system.global_site,
                comparisons=chase.mapping_lookups,
                label=f"{self.name} chase lookup",
                phase=PHASE_O,
                deps=prev_deps,
            )
            self.work.comparisons += chase.mapping_lookups
            self.certify_deps.append(lookup)
            round_replies = [
                self._exchange(
                    batch, [lookup], kind="chase", round_no=round_no
                )
                for batch in batch_exchanges(system.global_site, chase.pairs)
            ]
            self.certify_deps.extend(round_replies)
            prev_deps = round_replies or [lookup]
        return chase_skips

    def _resolve_deferred(
        self, verdicts: VerdictIndex, chase_skips: List[Tuple]
    ) -> None:
        """Failover post-resolution.

        Every verdict is in; decide now which skipped pairs actually
        lost anything.  A pair settled definitively by any live
        isomeric copy is certified exactly as a fault-free run would
        certify it; only the rest demote their rows.
        """
        recovered_pairs = 0
        demoted_pairs = 0
        for src, request, skips in self.deferred_requests:
            uncovered = [
                skip for skip in skips
                if not covered_by_verdicts(self.system, verdicts, skip)
            ]
            if not uncovered:
                recovered_pairs += len(skips)
                continue
            # No route carried the request: its uncovered pairs stay
            # unchecked, and it joins the re-runnable repair state.
            demoted_pairs += len(uncovered)
            dst = request.db_name
            self.unreachable_check_sites.setdefault(dst)
            self.skipped_check_requests.append((src, request))
            self.ctx.note_skipped_check()
            for skip in uncovered:
                self.skipped_goids.setdefault(skip.goid, set()).add(dst)
        for (
            site, orig_loid, orig_pred, round_no, _holder, _hcls, _rest
        ) in chase_skips:
            if verdicts.get(orig_loid, orig_pred) in (SATISFIED, VIOLATED):
                recovered_pairs += 1
                continue
            demoted_pairs += 1
            self.ctx.note_skipped_check()
            self.unreachable_check_sites.setdefault(site)
            self._event(
                "fault.check_skipped",
                src=self.system.global_site, dst=site, round=round_no,
            )
        if recovered_pairs or demoted_pairs:
            self._event(
                "fault.failover",
                mode="coverage",
                recovered=recovered_pairs,
                demoted=demoted_pairs,
            )

    # --- phase I at the global site -------------------------------------------

    def _certify(self, verdicts: VerdictIndex) -> Tuple[ResultSet, Node]:
        """Step BL_G2 / PL_G2: certification at the global site."""
        system = self.system
        cert_stats = CertificationStats()
        results = certify(
            self.query,
            system.global_schema,
            system.catalog,
            self.local_results,
            verdicts,
            cert_stats,
        )
        self.work.comparisons += cert_stats.comparisons
        certify_node = self.fed.cpu(
            system.global_site,
            comparisons=cert_stats.comparisons,
            label=f"{self.name}_G2 certify",
            phase=PHASE_I,
            deps=self.certify_deps,
        )
        return results, certify_node

    def _complete_bindings(self, results: ResultSet, certify_node: Node) -> None:
        """Step BL_G3 / PL_G3: binding completion at the global site.

        Local rows bind only what their own site can walk; values held
        solely by another site's copy (and the union semantics of
        multi-valued global attributes) are fetched here so the answer
        is binding-identical to CA's, not merely entity-identical.
        """
        system, fed, work = self.system, self.fed, self.work
        cost = system.cost_model
        res_stats = ResolutionStats()
        resolve_missing_bindings(
            system, self.query, results, self.ctx, stats=res_stats
        )
        work.comparisons += res_stats.mapping_lookups
        self.ctx.fetches_unresolved = res_stats.unresolved
        if res_stats.fetches:
            self._event(
                "bindings.resolved",
                entities=res_stats.entities_resolved,
                fetches=res_stats.fetches,
                sites=",".join(sorted(res_stats.fetches_by_site)),
            )
        for fetch_db in sorted(res_stats.fetches_by_site):
            count = res_stats.fetches_by_site[fetch_db]
            request_bytes = cost.check_request_bytes(count, 1)
            reply_bytes = count * cost.attribute_bytes
            work.bytes_network += request_bytes + reply_bytes
            work.messages += 2
            self.exchanges.append(fetch_db)
            send = fed.transfer(
                system.global_site,
                fetch_db,
                nbytes=request_bytes,
                label=f"{self.name} fetch-req",
                deps=[certify_node],
                phase=PHASE_I,
            )
            fetch_bytes = count * self.avg_branch_bytes
            work.bytes_disk += int(fetch_bytes)
            read = fed.disk(
                fetch_db,
                nbytes=fetch_bytes,
                label=f"{self.name} fetch read",
                phase=PHASE_I,
                deps=[send],
                seeks=count,
            )
            fed.transfer(
                fetch_db,
                system.global_site,
                nbytes=reply_bytes,
                label=f"{self.name} fetch-reply",
                deps=[read],
                phase=PHASE_I,
            )

    def _annotate(self, results: ResultSet) -> None:
        """Degraded-answer annotations under site loss.

        Localized strategies keep per-site provenance, so only the rows
        whose certification depended on an unreachable assistant site
        are affected: they simply stay maybe, annotated with why.
        """
        queried_down = self.ctx.queried_sites_down
        if self.unreachable_check_sites or queried_down:
            annotate_site_loss(
                self.system,
                self.query,
                self.local_results,
                results,
                set(self.unreachable_check_sites),
                self.skipped_goids,
                queried_down=tuple(queried_down),
            )

    def _capture_repair(
        self,
        results: ResultSet,
        verdicts: VerdictIndex,
        chase_skips: List[Tuple],
    ):
        """Repair state: what a resumed run of this query starts from.

        Everything this execution *did not* do, plus the evidence it
        collected: healed sites can then be re-contacted one by one and
        the answer re-certified without re-running anything that
        already succeeded.
        """
        down_sites = tuple(sorted(self.ctx.queried_sites_down))
        remaining_chase = tuple(
            (orig_loid, orig_pred, holder, holder_cls, rest)
            for (
                _site, orig_loid, orig_pred, _round, holder, holder_cls, rest,
            ) in chase_skips
            if verdicts.get(orig_loid, orig_pred) not in (SATISFIED, VIOLATED)
        )
        skipped_requests = tuple(self.skipped_check_requests)
        if not (down_sites or skipped_requests or remaining_chase):
            return None
        from repro.conditions.recertify import LocalizedRepairState

        self._event(
            "conditions.attached",
            strategy=self.name,
            down_sites=",".join(down_sites),
            skipped_requests=len(skipped_requests),
            skipped_chase=len(remaining_chase),
            rows=len(results.maybe),
        )
        return LocalizedRepairState(
            strategy=self.name,
            query=self.query,
            schema_epoch=self.system.schema_epoch,
            local_results=dict(self.local_results),
            down_sites=down_sites,
            skipped_requests=skipped_requests,
            skipped_chase=remaining_chase,
            verdicts=verdicts,
        )

    # --- per-site graphs ------------------------------------------------------

    def _branch_capacity(self, db_name: str) -> int:
        """Objects in the site's branch extents: what a buffered pass
        over them reads from disk at most."""
        db = self.system.db(db_name)
        constituent = self.system.global_schema.constituent_class
        return sum(
            db.count(local_cls)
            for global_cls in self.branch_classes
            for local_cls in [constituent(db_name, global_cls)]
            if local_cls is not None
        )

    def _build_bl_site(
        self,
        db_name: str,
        result: LocalResultSet,
        plan: DispatchPlan,
        entry_deps: List[Node],
    ) -> Tuple[Node, Node]:
        """BL at one site: evaluate (P), then look up assistants (O).

        Branch-object reads are capped at the site's branch extents: path
        walks revisit objects, but a buffered extent is read from disk
        once (CA's export charges the same one-pass read).
        """
        fed, work = self.fed, self.work
        root_obj_bytes, branch_obj_bytes = self.sizes[db_name]
        branch_capacity = self._branch_capacity(db_name)
        scan_bytes = (
            result.objects_scanned * root_obj_bytes
            + min(result.derefs, branch_capacity) * branch_obj_bytes
        )
        work.bytes_disk += int(scan_bytes)
        # Index-restricted scans fetch candidates by LOid: random access.
        scan_seeks = (
            result.objects_scanned if result.index_probe is not None else 0
        )
        scan = fed.disk(
            db_name, nbytes=scan_bytes, label="BL_C1 scan", phase=PHASE_SCAN,
            seeks=scan_seeks, deps=entry_deps,
        )
        evaluate = fed.cpu(
            db_name,
            comparisons=result.comparisons,
            label="BL_C1 evaluate",
            phase=PHASE_P,
            deps=[scan],
        )
        lookup = fed.cpu(
            db_name,
            comparisons=plan.mapping_lookups + plan.signature_comparisons,
            label="BL_C2 lookup",
            phase=PHASE_O,
            deps=[evaluate],
        )
        work.comparisons += plan.mapping_lookups
        # Results ship after C2; checks dispatch from C2.
        return lookup, lookup

    def _build_pl_site(
        self,
        db_name: str,
        result: LocalResultSet,
        scan,
        scan_meter,
        plan: DispatchPlan,
        entry_deps: List[Node],
    ) -> Tuple[Node, Node]:
        """PL at one site: scan for missing data + dispatch (O), then
        evaluate (P).

        The phase-O scan reads the root extent and the branch objects its
        missing-data probes touch; the evaluation pass then reads only
        the *marginal* branch objects it needs beyond those (the extent
        is buffered — the paper charges PL's overhead to mapping-table
        checks and assistant transfers, not to a second full scan).
        """
        fed, work = self.fed, self.work
        root_obj_bytes, branch_obj_bytes = self.sizes[db_name]
        branch_capacity = self._branch_capacity(db_name)
        probe_reads = min(scan_meter.derefs, branch_capacity)
        scan_bytes = (
            scan.objects_scanned * root_obj_bytes
            + probe_reads * branch_obj_bytes
        )
        work.bytes_disk += int(scan_bytes)
        work.comparisons += scan_meter.comparisons + plan.mapping_lookups
        read = fed.disk(
            db_name, nbytes=scan_bytes, label="PL_C1 scan", phase=PHASE_SCAN,
            deps=entry_deps,
        )
        dispatch = fed.cpu(
            db_name,
            comparisons=scan_meter.comparisons
            + plan.mapping_lookups
            + plan.signature_comparisons,
            label="PL_C1 lookup",
            phase=PHASE_O,
            deps=[read],
        )
        eval_reads = min(result.derefs, branch_capacity)
        marginal_derefs = max(0, eval_reads - probe_reads)
        eval_bytes = marginal_derefs * branch_obj_bytes
        work.bytes_disk += int(eval_bytes)
        eval_read = fed.disk(
            db_name,
            nbytes=eval_bytes,
            label="PL_C2 read",
            phase=PHASE_SCAN,
            deps=[dispatch],
        )
        evaluate = fed.cpu(
            db_name,
            comparisons=result.comparisons,
            label="PL_C2 evaluate",
            phase=PHASE_P,
            deps=[eval_read],
        )
        return evaluate, dispatch


class BasicLocalizedStrategy(_LocalizedStrategy):
    """The paper's algorithm BL (phase order P -> O -> I)."""

    name = "BL"
    phase_o_first = False


class ParallelLocalizedStrategy(_LocalizedStrategy):
    """The paper's algorithm PL (phase order O -> P -> I)."""

    name = "PL"
    phase_o_first = True


class SignatureBasicLocalizedStrategy(BasicLocalizedStrategy):
    """BL with signature pre-filtering of assistant checks (BL-S)."""

    name = "BL-S"
    use_signatures = True


class SignatureParallelLocalizedStrategy(ParallelLocalizedStrategy):
    """PL with signature pre-filtering of assistant checks (PL-S)."""

    name = "PL-S"
    use_signatures = True
