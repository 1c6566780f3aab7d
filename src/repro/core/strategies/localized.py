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
from repro.conditions.reasons import DegradationReason
from repro.core.binding_resolution import (
    ResolutionStats,
    resolve_missing_bindings,
)
from repro.core.certification import (
    SATISFIED,
    VIOLATED,
    CertificationStats,
    certify,
)
from repro.core.decompose import attributes_needed
from repro.core.query import Query
from repro.core.results import Availability, ResultSet
from repro.core.strategies.base import (
    DispatchPlan,
    Strategy,
    StrategyResult,
    batch_exchanges,
    chase_blocked,
    collect_verdicts,
    fault_wait_chain,
    plan_dispatch,
    run_checks_paired,
)
from repro.core.system import DistributedSystem
from repro.faults.injector import ExecutionContext
from repro.objectdb.ids import GOid
from repro.objectdb.local_query import CheckReport, LocalResultSet
from repro.obs.spans import TraceEvent
from repro.planner import uses_constraints
from repro.resilience.failover import (
    PendingSkip,
    covered_by_verdicts,
    pending_skips_of,
    plan_hedge,
    relay_route,
)
from repro.sim.metrics import ExecutionMetrics, WorkCounters
from repro.sim.taskgraph import FederationSim, Node, PHASE_I, PHASE_O, PHASE_P, PHASE_SCAN


def annotate_site_loss(
    system: DistributedSystem,
    query: Query,
    local_results: Dict[str, LocalResultSet],
    results: ResultSet,
    down: Set[str],
    skipped_goids: Dict[GOid, Set[str]],
    conditions: bool = True,
    queried_down: Iterable[str] = (),
) -> None:
    """Annotate the maybe rows whose certification an unreachable site
    blocked — the localized strategies' degraded-answer semantics.

    Per-site provenance survives a partial execution, so only the rows
    whose assistant checks were skipped (*skipped_goids*, entity -> the
    down check sites), whose unsolved items' checks were skipped, or
    whose entity has a copy at a *down* site are affected: they stay
    maybe, annotated with why.  With *conditions*, each such row also
    carries machine-dischargeable atoms — :class:`UncheckedCopy` for the
    exact skipped check pairs and :class:`SiteDown` for unreachable copy
    holders.  *queried_down* names sites whose whole local block dropped;
    they contribute ``SiteDown`` atoms but never notes, so degraded notes
    stay byte-identical to the historical rendering.

    The re-certifier calls this same function after a partial repair, so
    a still-degraded repaired answer is annotated exactly like a fresh
    degraded execution would annotate it.
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
            note = str(DegradationReason.site_unavailable(site))
            if note not in result_row.notes:
                result_row.notes = result_row.notes + (note,)
        if not conditions:
            continue
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
        ctx: Optional[ExecutionContext] = None,
    ) -> StrategyResult:
        decomposed = system.decompose(query)
        fed = system.simulator(ctx.plan if ctx is not None else None)
        work = WorkCounters()
        cost = system.cost_model
        use_columnar = self.effective_columnar(ctx)
        use_conditions = self.effective_conditions(ctx)
        # Constraint catalog, consulted only under planner=constraints/full.
        # Soundness contract: a prune fires only when the static path
        # would provably produce the identical answer (empty local result
        # set; UNKNOWN check verdict, which certification treats exactly
        # like an unasked check).
        constraints = (
            system.constraints
            if uses_constraints(self.effective_planner(ctx))
            else None
        )

        local_results: Dict[str, LocalResultSet] = {}
        reports: List[CheckReport] = []
        signature_verdicts = []
        certify_deps: List[Node] = []
        events: List[TraceEvent] = []
        # Assistant home sites whose checks could not be dispatched
        # (dict-as-ordered-set: insertion order is the deterministic
        # site-loop order, membership tests stay O(1)).
        unreachable_check_sites: Dict[str, None] = {}
        #: Entities whose assistant checks were skipped -> the down sites.
        skipped_goids: Dict[GOid, Set[str]] = {}
        # Failover mode: skipped check pairs are not demoted eagerly but
        # resolved after verdict collection (a live isomeric copy may
        # have settled them anyway).
        failover = ctx is not None and ctx.failover
        if failover:
            ctx.recovery_tracked = True
        #: (src, request, pending pairs) per check request that could not
        #: be dispatched anywhere, awaiting post-verdict resolution.
        deferred_requests: List[Tuple[str, object, List[PendingSkip]]] = []
        #: (src site, CheckRequest) pairs that were never executed — the
        #: re-runnable half of the repair state.
        skipped_check_requests: List[Tuple[str, object]] = []

        branch_classes = query.branch_classes(system.global_schema.schema)
        queried = list(decomposed.local_queries)
        # Checks execute at assistants' home sites; size their reads with
        # the average branch object of the sites actually consulted.
        # Under a fault plan, sites whose negotiation fails drop out of
        # the execution entirely, so they must not skew the average
        # (negotiations are memoized — the per-site loop below reuses
        # these outcomes without re-paying any retry ladder).
        if ctx is None:
            surviving = queried
        else:
            surviving = [
                db for db in queried
                if ctx.contact(system.global_site, db).ok
            ]
        sizes, avg_branch_bytes = self._site_sizes(
            system, query, branch_classes, surviving
        )

        for db_name, local_query in decomposed.local_queries.items():
            if constraints is not None:
                prune_reason = constraints.site_prune_reason(
                    system.db(db_name), local_query
                )
                if prune_reason is not None:
                    # The catalog proves this site block answers with
                    # zero rows; synthesize the empty result set the
                    # static path would have computed and skip the
                    # site's scan/evaluate/dispatch work entirely.
                    local_results[db_name] = LocalResultSet(
                        db_name=db_name,
                        range_class=local_query.range_class,
                    )
                    work.sites_pruned += 1
                    events.append(TraceEvent.of(
                        "planner.prune",
                        kind="site",
                        site=db_name,
                        reason=prune_reason,
                    ))
                    continue
            entry_deps: List[Node] = []
            if ctx is not None:
                negotiation = ctx.contact(system.global_site, db_name)
                entry_deps = fault_wait_chain(fed, ctx, negotiation, events)
                if not negotiation.ok:
                    # The whole site block drops out: its local results
                    # are lost, but every other site's provenance is
                    # intact — certification proceeds over the sites
                    # actually queried.
                    ctx.note_queried_site_down(db_name)
                    events.append(
                        TraceEvent.of(
                            "fault.site_skipped",
                            site=db_name,
                            reason=negotiation.reason,
                            attempts=len(negotiation.attempts),
                        )
                    )
                    continue
            db = system.db(db_name)
            root_obj_bytes, branch_obj_bytes = sizes[db_name]
            branch_capacity = sum(
                db.count(local_cls)
                for global_cls in branch_classes
                for local_cls in [
                    system.global_schema.constituent_class(db_name, global_cls)
                ]
                if local_cls is not None
            )

            # --- run the site's work for real (logic layer) -------------
            result = db.execute_local(local_query, columnar=use_columnar)
            local_results[db_name] = result
            if self.phase_o_first:
                scan, scan_meter = db.collect_unsolved(
                    local_query, columnar=use_columnar
                )
                items = scan.all_items()
            else:
                items = [
                    item
                    for row in result.maybe_rows
                    for item in row.unsolved_items
                ]
            plan = plan_dispatch(
                db_name, items, system,
                use_signatures=self.use_signatures,
                constraints=constraints,
            )
            signature_verdicts.extend(plan.signature_verdicts)
            work.checks_pruned += plan.checks_pruned
            if plan.checks_pruned:
                events.append(TraceEvent.of(
                    "planner.prune",
                    kind="check",
                    site=db_name,
                    checks_pruned=plan.checks_pruned,
                ))
            events.append(TraceEvent.of(
                "dispatch.plan",
                site=db_name,
                unsolved_items=len(items),
                assistants=plan.assistants_found,
                check_requests=len(plan.requests),
                signature_verdicts=len(plan.signature_verdicts),
            ))

            work.objects_scanned += result.objects_scanned
            work.comparisons += result.comparisons
            work.assistants_looked_up += plan.assistants_found
            work.signature_comparisons += plan.signature_comparisons

            # --- build the site's activity sub-graph --------------------
            if self.phase_o_first:
                eval_node, dispatch_node = self._build_pl_site(
                    fed, db_name, result, scan, scan_meter, plan,
                    root_obj_bytes, branch_obj_bytes, branch_capacity, work,
                    entry_deps=entry_deps,
                )
            else:
                eval_node, dispatch_node = self._build_bl_site(
                    fed, db_name, result, plan,
                    root_obj_bytes, branch_obj_bytes, branch_capacity, work,
                    entry_deps=entry_deps,
                )

            # --- ship local results to the global processing site -------
            result_bytes = self._result_bytes(result, query, cost)
            work.bytes_network += int(result_bytes)
            work.messages += 1
            certify_deps.append(
                fed.transfer(
                    db_name,
                    system.global_site,
                    nbytes=result_bytes,
                    label=f"{self.name} results",
                    deps=[eval_node],
                )
            )

            # --- dispatch assistant checks -------------------------------
            # Requests whose direct link is dead fail over to the
            # global-site relay when that route is alive; requests with
            # no live route are skipped — eagerly demoting their rows
            # (legacy), or deferring the demotion until verdicts are in
            # (failover mode: a live isomeric copy may settle the pair).
            runnable = []
            relayed = []
            for request in plan.requests:
                if ctx is not None and not ctx.reachable(
                    db_name, request.db_name
                ):
                    if failover:
                        via = relay_route(ctx, system, request.db_name)
                        if via is not None:
                            ctx.checks_failed_over += 1
                            events.append(
                                TraceEvent.of(
                                    "fault.failover",
                                    src=db_name,
                                    dst=request.db_name,
                                    via=via,
                                    assistants=len(request.loids),
                                )
                            )
                            relayed.append(request)
                            continue
                        deferred_requests.append((
                            db_name,
                            request,
                            pending_skips_of(system, db_name, request),
                        ))
                        events.append(
                            TraceEvent.of(
                                "fault.check_skipped",
                                src=db_name,
                                dst=request.db_name,
                                assistants=len(request.loids),
                            )
                        )
                        continue
                    unreachable_check_sites.setdefault(request.db_name)
                    skipped_check_requests.append((db_name, request))
                    g_cls = system.global_schema.global_class_of(
                        request.db_name, request.class_name
                    )
                    for loid in request.loids:
                        goid = (
                            system.catalog.goid_of(g_cls, loid)
                            if g_cls is not None else None
                        )
                        if goid is not None:
                            skipped_goids.setdefault(goid, set()).add(
                                request.db_name
                            )
                    ctx.note_skipped_check()
                    events.append(
                        TraceEvent.of(
                            "fault.check_skipped",
                            src=db_name,
                            dst=request.db_name,
                            assistants=len(request.loids),
                        )
                    )
                    continue
                runnable.append(request)
            paired = run_checks_paired(runnable, system, columnar=use_columnar)
            relayed_paired = run_checks_paired(
                relayed, system, columnar=use_columnar
            )
            reports.extend(report for _, report in paired)
            reports.extend(report for _, report in relayed_paired)
            self._dispatch_checks(
                fed, system, ctx, db_name, paired, relayed_paired,
                dispatch_node, certify_deps, work, avg_branch_bytes,
                events,
            )

        # --- chase rounds for multi-hop missing-reference chains ------------
        verdicts = collect_verdicts(reports, signature_verdicts)
        predicates = query.all_predicates()
        max_rounds = max((len(p.path) for p in predicates), default=0)
        deferred_chase_skips: List[Tuple] = []
        chase_skip_log: List[Tuple] = []
        chase_rounds = chase_blocked(
            reports, system, verdicts, max_rounds, ctx=ctx,
            deferred_skips=deferred_chase_skips, columnar=use_columnar,
            skip_log=chase_skip_log,
        )
        for round_no, chase in enumerate(chase_rounds, start=1):
            events.append(TraceEvent.of(
                "chase.round",
                round=round_no,
                requests=len(chase.requests),
                mapping_lookups=chase.mapping_lookups,
            ))
            for site in chase.skipped_sites:
                unreachable_check_sites.setdefault(site)
                events.append(TraceEvent.of(
                    "fault.check_skipped",
                    src=system.global_site,
                    dst=site,
                    round=round_no,
                ))

        # --- failover post-resolution ----------------------------------
        # Every verdict is in; decide now which skipped pairs actually
        # lost anything.  A pair settled definitively by any live
        # isomeric copy is certified exactly as a fault-free run would
        # certify it; only the rest demote their rows.
        if failover:
            recovered_pairs = 0
            demoted_pairs = 0
            for src, request, skips in deferred_requests:
                dst = request.db_name
                uncovered = [
                    skip for skip in skips
                    if not covered_by_verdicts(system, verdicts, skip)
                ]
                if not uncovered:
                    recovered_pairs += len(skips)
                    continue
                demoted_pairs += len(uncovered)
                unreachable_check_sites.setdefault(dst)
                skipped_check_requests.append((src, request))
                ctx.note_skipped_check()
                for skip in uncovered:
                    skipped_goids.setdefault(skip.goid, set()).add(dst)
            for (
                site, orig_loid, orig_pred, round_no, _holder, _hcls, _rest
            ) in deferred_chase_skips:
                if verdicts.get(orig_loid, orig_pred) in (
                    SATISFIED, VIOLATED
                ):
                    recovered_pairs += 1
                    continue
                demoted_pairs += 1
                unreachable_check_sites.setdefault(site)
                ctx.note_skipped_check()
                events.append(TraceEvent.of(
                    "fault.check_skipped",
                    src=system.global_site,
                    dst=site,
                    round=round_no,
                ))
            if recovered_pairs or demoted_pairs:
                events.append(TraceEvent.of(
                    "fault.failover",
                    mode="coverage",
                    recovered=recovered_pairs,
                    demoted=demoted_pairs,
                ))
        prev_deps: List[Node] = list(certify_deps)
        for round_no, chase in enumerate(chase_rounds, start=1):
            lookup = fed.cpu(
                system.global_site,
                comparisons=chase.mapping_lookups,
                label=f"{self.name} chase lookup",
                phase=PHASE_O,
                deps=prev_deps,
            )
            work.comparisons += chase.mapping_lookups
            certify_deps.append(lookup)
            round_replies: List[Node] = []
            if self.effective_batch_checks(ctx):
                for batch in batch_exchanges(
                    system.global_site, chase.pairs
                ):
                    round_replies.append(self._schedule_batch(
                        fed, system, batch, [lookup], work,
                        avg_branch_bytes, events, kind="chase",
                        round_no=round_no,
                    ))
            else:
                for request, report in chase.pairs:
                    round_replies.append(self._schedule_single(
                        fed, system, request, report,
                        system.global_site, [lookup], work,
                        avg_branch_bytes, kind="chase",
                    ))
            certify_deps.extend(round_replies)
            prev_deps = round_replies or [lookup]

        # --- step BL_G2 / PL_G2: certification at the global site ----------
        cert_stats = CertificationStats()
        results = certify(
            query,
            system.global_schema,
            system.catalog,
            local_results,
            verdicts,
            cert_stats,
            conditions=use_conditions,
        )
        work.comparisons += cert_stats.comparisons
        certify_node = fed.cpu(
            system.global_site,
            comparisons=cert_stats.comparisons,
            label=f"{self.name}_G2 certify",
            phase=PHASE_I,
            deps=certify_deps,
        )

        # --- step BL_G3 / PL_G3: binding completion at the global site -----
        # Local rows bind only what their own site can walk; values held
        # solely by another site's copy (and the union semantics of
        # multi-valued global attributes) are fetched here so the answer
        # is binding-identical to CA's, not merely entity-identical.
        res_stats = ResolutionStats()
        resolve_missing_bindings(system, query, results, ctx=ctx, stats=res_stats)
        work.comparisons += res_stats.mapping_lookups
        if ctx is not None:
            ctx.fetches_unresolved = res_stats.unresolved
        if res_stats.fetches:
            events.append(TraceEvent.of(
                "bindings.resolved",
                entities=res_stats.entities_resolved,
                fetches=res_stats.fetches,
                sites=",".join(sorted(res_stats.fetches_by_site)),
            ))
        for fetch_db in sorted(res_stats.fetches_by_site):
            count = res_stats.fetches_by_site[fetch_db]
            request_bytes = cost.check_request_bytes(count, 1)
            reply_bytes = count * cost.attribute_bytes
            work.bytes_network += request_bytes + reply_bytes
            work.messages += 2
            send = fed.transfer(
                system.global_site,
                fetch_db,
                nbytes=request_bytes,
                label=f"{self.name} fetch-req",
                deps=[certify_node],
                phase=PHASE_I,
            )
            fetch_bytes = count * avg_branch_bytes
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

        # --- degraded-answer annotations under site loss -------------------
        # Localized strategies keep per-site provenance, so only the
        # rows whose certification depended on an unreachable assistant
        # site are affected: they simply stay maybe, annotated with why.
        if ctx is not None and (
            unreachable_check_sites
            or (use_conditions and ctx.queried_sites_down)
        ):
            annotate_site_loss(
                system,
                query,
                local_results,
                results,
                set(unreachable_check_sites),
                skipped_goids,
                conditions=use_conditions,
                queried_down=tuple(ctx.queried_sites_down),
            )

        # --- repair state: what an incremental re-certification needs ------
        # Everything this execution *did not* do, plus the evidence it
        # collected: healed sites can then be re-contacted one by one and
        # the answer re-certified without re-running anything that
        # already succeeded.
        repair_state = None
        if use_conditions and ctx is not None:
            down_sites = tuple(sorted(ctx.queried_sites_down))
            remaining_chase = tuple(
                (site, orig_loid, orig_pred, holder, holder_cls, rest)
                for (
                    site, orig_loid, orig_pred, _round, holder,
                    holder_cls, rest,
                ) in chase_skip_log
                if verdicts.get(orig_loid, orig_pred)
                not in (SATISFIED, VIOLATED)
            )
            if down_sites or skipped_check_requests or remaining_chase:
                from repro.conditions.recertify import LocalizedRepairState

                repair_state = LocalizedRepairState(
                    strategy=self.name,
                    query=query,
                    use_signatures=self.use_signatures,
                    columnar=use_columnar,
                    local_queries=dict(decomposed.local_queries),
                    local_results=dict(local_results),
                    down_sites=down_sites,
                    skipped_requests=tuple(skipped_check_requests),
                    skipped_chase=remaining_chase,
                    verdicts=verdicts.clone(),
                )
                events.append(TraceEvent.of(
                    "conditions.attached",
                    strategy=self.name,
                    down_sites=",".join(down_sites),
                    skipped_requests=len(skipped_check_requests),
                    skipped_chase=len(remaining_chase),
                    rows=len(results.maybe),
                ))

        fault_windows = ()
        if ctx is not None:
            work.retries = ctx.retries
            work.timeouts = ctx.timeouts
            work.messages_lost = ctx.messages_lost
            work.checks_failed_over = ctx.checks_failed_over
            work.hedges = ctx.hedges
            fault_windows = ctx.plan.fault_windows(fed.sites)

        outcome = fed.run()
        metrics = ExecutionMetrics.from_outcome(
            self.name,
            outcome,
            work,
            certain_results=len(results.certain),
            maybe_results=len(results.maybe),
            events=events,
            fault_windows=fault_windows,
        )
        return StrategyResult(
            results=results.sort(),
            metrics=metrics,
            availability=(
                ctx.availability() if ctx is not None else Availability()
            ),
            repair=repair_state,
        )

    # --- phase-O exchanges --------------------------------------------------

    def _dispatch_checks(
        self,
        fed: FederationSim,
        system: DistributedSystem,
        ctx: Optional[ExecutionContext],
        db_name: str,
        paired: List[Tuple["CheckRequest", CheckReport]],
        relayed: List[Tuple["CheckRequest", CheckReport]],
        dispatch_node: Node,
        certify_deps: List[Node],
        work: WorkCounters,
        avg_branch_bytes: float,
        events: List[TraceEvent],
    ) -> None:
        """Schedule one site's check exchanges, batched or per-request.

        Batched (the default): every request sharing a destination rides
        one request/reply message pair.  Unbatched (``--no-batch``): the
        historical one-pair-per-request protocol, byte for byte.

        *relayed* pairs lost their direct link: their requests hop
        through the global-site relay (``src -> global -> dst``); the
        reply path (``dst -> global``) is the same as always.  Direct
        pairs may additionally *hedge*: when the policy sets a hedge
        delay and the direct negotiation is slower than it, a duplicate
        request races through the relay and the faster route carries the
        exchange while the loser's request message is still paid for.
        """
        if self.effective_batch_checks(ctx):
            for batch in batch_exchanges(db_name, paired):
                send_deps: List[Node] = [dispatch_node]
                via: Optional[str] = None
                if ctx is not None:
                    negotiation = ctx.contact(db_name, batch.dst)
                    send_deps, via = self._hedged_deps(
                        fed, system, ctx, db_name, batch.dst,
                        negotiation, send_deps,
                        batch.request_bytes(system.cost_model),
                        work, events,
                    )
                certify_deps.append(self._schedule_batch(
                    fed, system, batch, send_deps, work,
                    avg_branch_bytes, events, kind="check", via=via,
                ))
            for batch in batch_exchanges(db_name, relayed):
                send_deps = fault_wait_chain(
                    fed,
                    ctx,
                    ctx.contact(system.global_site, batch.dst),
                    events,
                    deps=[dispatch_node],
                )
                certify_deps.append(self._schedule_batch(
                    fed, system, batch, send_deps, work,
                    avg_branch_bytes, events, kind="check",
                    via=system.global_site,
                ))
            return
        for request, report in paired:
            send_deps = [dispatch_node]
            via = None
            if ctx is not None:
                negotiation = ctx.contact(db_name, request.db_name)
                send_deps, via = self._hedged_deps(
                    fed, system, ctx, db_name, request.db_name,
                    negotiation, send_deps,
                    system.cost_model.check_request_bytes(
                        len(request.loids), len(request.predicates)
                    ),
                    work, events,
                )
            certify_deps.append(self._schedule_single(
                fed, system, request, report, db_name, send_deps, work,
                avg_branch_bytes, kind="check", via=via,
            ))
        for request, report in relayed:
            send_deps = fault_wait_chain(
                fed,
                ctx,
                ctx.contact(system.global_site, request.db_name),
                events,
                deps=[dispatch_node],
            )
            certify_deps.append(self._schedule_single(
                fed, system, request, report, db_name, send_deps, work,
                avg_branch_bytes, kind="check", via=system.global_site,
            ))

    def _hedged_deps(
        self,
        fed: FederationSim,
        system: DistributedSystem,
        ctx: ExecutionContext,
        src: str,
        dst: str,
        negotiation,
        send_deps: List[Node],
        request_bytes: int,
        work: WorkCounters,
        events: List[TraceEvent],
    ) -> Tuple[List[Node], Optional[str]]:
        """Dependency frontier (and relay site, if the relay won) for
        one direct exchange, racing the hedge when the policy asks.

        No hedge (or the direct route wins): the link's fault-wait
        ladder gates the send as before; the losing relay duplicate — if
        a race fired — is billed but never gates anything.  Relay wins:
        the send waits on the seeded hedge delay plus the relay link's
        ladder instead of the slow direct ladder, and the direct
        request's bytes are billed as the loser.
        """
        decision = plan_hedge(ctx, system, src, dst, negotiation)
        if decision is None:
            return (
                fault_wait_chain(fed, ctx, negotiation, events, deps=send_deps),
                None,
            )
        ctx.hedges += 1
        events.append(TraceEvent.of(
            "fault.hedge",
            src=src,
            dst=dst,
            via=decision.via,
            winner=decision.winner,
            delay_s=f"{decision.delay_s:.6f}",
        ))
        # The loser's request message is sent regardless; pay for it.
        work.bytes_network += request_bytes
        work.messages += 1
        if not decision.relay_won:
            return (
                fault_wait_chain(fed, ctx, negotiation, events, deps=send_deps),
                None,
            )
        ctx.hedges_won += 1
        delay_node = fed.delay(
            src,
            decision.delay_s,
            label=f"hedge {src}->{dst}",
            deps=send_deps,
        )
        return (
            fault_wait_chain(
                fed,
                ctx,
                ctx.contact(system.global_site, dst),
                events,
                deps=[delay_node],
            ),
            decision.via,
        )

    def _schedule_batch(
        self,
        fed: FederationSim,
        system: DistributedSystem,
        batch,
        send_deps: List[Node],
        work: WorkCounters,
        avg_branch_bytes: float,
        events: List[TraceEvent],
        kind: str,
        round_no: Optional[int] = None,
        via: Optional[str] = None,
    ) -> Node:
        """One coalesced request/reply exchange; returns the reply node.

        The per-request disk read and verdict evaluation at the
        destination stay separate nodes (same labels as the unbatched
        protocol, so Gantt granularity is unchanged); only the two
        network messages are shared by the whole batch.

        With *via* (failover / hedge relay) the request rides two hops
        (``src -> via -> dst``), each billed in full; the reply path is
        unchanged (``dst -> global site``), so a relayed exchange costs
        one extra message and one extra request-sized transfer.
        """
        cost = system.cost_model
        request_bytes = batch.request_bytes(cost)
        reply_bytes = batch.reply_bytes(cost)
        hops = 1 if via is None else 2
        work.bytes_network += request_bytes * hops + reply_bytes
        work.messages += hops + 1
        if via is None:
            send = fed.transfer(
                batch.src,
                batch.dst,
                nbytes=request_bytes,
                label=f"{self.name} {kind}-req",
                deps=send_deps,
                phase=PHASE_O,
            )
        else:
            hop = fed.transfer(
                batch.src,
                via,
                nbytes=request_bytes,
                label=f"{self.name} {kind}-req",
                deps=send_deps,
                phase=PHASE_O,
            )
            send = fed.transfer(
                via,
                batch.dst,
                nbytes=request_bytes,
                label=f"{self.name} {kind}-relay",
                deps=[hop],
                phase=PHASE_O,
            )
        check_cpus: List[Node] = []
        for _, report in batch.pairs:
            work.assistants_checked += report.objects_checked
            work.comparisons += report.comparisons
            check_bytes = report.objects_checked * avg_branch_bytes
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
        events.append(TraceEvent.of("dispatch.batch", **attrs))
        return fed.transfer(
            batch.dst,
            system.global_site,
            nbytes=reply_bytes,
            label=f"{self.name} {kind}-reply",
            deps=check_cpus or [send],
            phase=PHASE_O,
        )

    def _schedule_single(
        self,
        fed: FederationSim,
        system: DistributedSystem,
        request,
        report: CheckReport,
        src: str,
        send_deps: List[Node],
        work: WorkCounters,
        avg_branch_bytes: float,
        kind: str,
        via: Optional[str] = None,
    ) -> Node:
        """One per-request exchange (the pre-batching wire protocol).

        *via* relays the request over two hops, exactly as in
        :meth:`_schedule_batch`.
        """
        cost = system.cost_model
        request_bytes = cost.check_request_bytes(
            len(request.loids), len(request.predicates)
        )
        verdict_count = sum(
            len(v) for v in report.satisfied.values()
        ) + sum(len(v) for v in report.violated.values())
        reply_bytes = cost.check_reply_bytes(max(verdict_count, 1))
        hops = 1 if via is None else 2
        work.bytes_network += request_bytes * hops + reply_bytes
        work.messages += hops + 1
        work.assistants_checked += report.objects_checked
        work.comparisons += report.comparisons
        if via is None:
            send = fed.transfer(
                src,
                request.db_name,
                nbytes=request_bytes,
                label=f"{self.name} {kind}-req",
                deps=send_deps,
                phase=PHASE_O,
            )
        else:
            hop = fed.transfer(
                src,
                via,
                nbytes=request_bytes,
                label=f"{self.name} {kind}-req",
                deps=send_deps,
                phase=PHASE_O,
            )
            send = fed.transfer(
                via,
                request.db_name,
                nbytes=request_bytes,
                label=f"{self.name} {kind}-relay",
                deps=[hop],
                phase=PHASE_O,
            )
        check_bytes = report.objects_checked * avg_branch_bytes
        work.bytes_disk += int(check_bytes)
        check_disk = fed.disk(
            request.db_name,
            nbytes=check_bytes,
            label=f"{self.name} {kind} read",
            phase=PHASE_O,
            deps=[send],
            seeks=report.objects_checked,
        )
        check_cpu = fed.cpu(
            request.db_name,
            comparisons=report.comparisons,
            label=f"{self.name} {kind} eval",
            phase=PHASE_O,
            deps=[check_disk],
        )
        return fed.transfer(
            request.db_name,
            system.global_site,
            nbytes=reply_bytes,
            label=f"{self.name} {kind}-reply",
            deps=[check_cpu],
            phase=PHASE_O,
        )

    # --- per-site graphs ----------------------------------------------------

    def _build_bl_site(
        self,
        fed: FederationSim,
        db_name: str,
        result: LocalResultSet,
        plan: DispatchPlan,
        root_obj_bytes: int,
        branch_obj_bytes: int,
        branch_capacity: int,
        work: WorkCounters,
        entry_deps: Tuple[Node, ...] = (),
    ) -> Tuple[Node, Node]:
        """BL at one site: evaluate (P), then look up assistants (O).

        Branch-object reads are capped at the site's branch extents: path
        walks revisit objects, but a buffered extent is read from disk
        once (CA's export charges the same one-pass read).
        """
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
        fed: FederationSim,
        db_name: str,
        result: LocalResultSet,
        scan,
        scan_meter,
        plan: DispatchPlan,
        root_obj_bytes: int,
        branch_obj_bytes: int,
        branch_capacity: int,
        work: WorkCounters,
        entry_deps: Tuple[Node, ...] = (),
    ) -> Tuple[Node, Node]:
        """PL at one site: scan for missing data + dispatch (O), then
        evaluate (P).

        The phase-O scan reads the root extent and the branch objects its
        missing-data probes touch; the evaluation pass then reads only
        the *marginal* branch objects it needs beyond those (the extent
        is buffered — the paper charges PL's overhead to mapping-table
        checks and assistant transfers, not to a second full scan).
        """
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

    # --- sizes ----------------------------------------------------------------

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
        needed = {
            global_cls: attributes_needed(query, global_schema, global_cls)
            for global_cls in (query.range_class,) + branch_classes
        }

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

    def _result_bytes(self, result: LocalResultSet, query: Query, cost) -> int:
        """Bytes of one site's local result shipment.

        Each row carries LOid + GOid + target values; maybe rows add one
        LOid plus predicate descriptors per unsolved item/predicate.
        """
        total = 0
        for row in result.rows:
            total += cost.row_bytes(len(query.targets))
            total += len(row.unsolved) * cost.attribute_bytes
            for item in row.unsolved_items:
                total += cost.loid_bytes
                total += len(item.unsolved) * cost.attribute_bytes
        return total


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
