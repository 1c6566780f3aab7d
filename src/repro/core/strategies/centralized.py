"""CA — the centralized approach (phase order O -> I -> P).

Every object of the local root and branch classes is shipped to the
global processing site (projected on the LOid and the attributes the
query involves, step CA_C1).  The site outerjoins the constituent extents
of each global class over GOid (phases O and I fused, step CA_G2) and
evaluates the predicates on the materialized global classes (phase P,
step CA_G3).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.conditions.algebra import NullAttr, SiteDown, attach
from repro.conditions.reasons import outerjoin_incomplete
from repro.core.certification import still_unsolved
from repro.core.predicates import EvalMeter
from repro.core.query import Query
from repro.core.results import GlobalResult, ResultKind, ResultSet
from repro.core.strategies.base import Strategy, StrategyResult, fault_wait_chain
from repro.core.system import DistributedSystem
from repro.faults.injector import ExecutionContext
from repro.integration.outerjoin import (
    GlobalExtent,
    IntegrationStats,
    materialize,
)
from repro.objectdb.columnar import TRUE_CODE
from repro.objectdb.objects import LocalObject
from repro.obs.spans import TraceEvent
from repro.sim.metrics import ExecutionMetrics, WorkCounters
from repro.sim.taskgraph import PHASE_I, PHASE_P, PHASE_SCAN


def evaluate_global(
    query: Query, extent: GlobalExtent, meter: EvalMeter
) -> ResultSet:
    """Step CA_G3: phase P, on the kernels every site runs.

    The root class of *extent* is one more columnar extent, rows in GOid
    order.  *meter* gets the sums of the kernel's charge arrays plus the
    survivors' target walks — what the modelled site, evaluating object
    by object, is charged; nothing keyed on an operand outlives the
    call.  Certain rows stay columns (GOids and target values) until
    someone reads them; maybe rows are results carrying ``NullAttr``
    atoms (site ``""``: the null was observed on the fused global
    object, not at one site).

    Pure over its inputs, which is what makes CA repair cheap: a
    resumed run re-materializes with the recovered exports merged in
    and evaluates again — no site re-evaluates anything.
    """
    view = extent.view(query.range_class)
    summary = view.build_dnf(query.where, view.build_compare)
    walks = [view.walk(target) for target in query.targets]
    rows = range(len(view))
    if summary.error_rows or any(walk.errors for walk in walks):
        view.raise_first_error(query, rows, summary, walks)
    codes = summary.codes
    survivors = [r for r in rows if codes[r]]
    meter.comparisons += sum(summary.comparisons)
    meter.derefs += sum(summary.derefs) + sum(
        sum(map(walk.derefs.__getitem__, survivors)) for walk in walks
    )
    # Walk columns hold NULL at miss rows: certain rows stay columns.
    certain = [r for r in survivors if codes[r] == TRUE_CODE]
    results = ResultSet(targets=query.targets, columns=(
        list(map(view.ids.__getitem__, certain)),
        [list(map(walk.values.__getitem__, certain)) for walk in walks],
    ))
    predicates = tuple(summary.columns)
    statuses = [column.codes for column in summary.columns.values()]
    position = {p: i for i, p in enumerate(predicates)}
    where = [[position[p] for p in conjunct] for conjunct in query.where]
    for r in [r for r in survivors if codes[r] != TRUE_CODE]:
        goid = view.ids[r]
        bindings = dict(zip(query.targets, [w.values[r] for w in walks]))
        packed = bytes([status[r] for status in statuses])
        unsolved = tuple([
            predicates[i] for i in still_unsolved(where, packed)
        ])
        result = GlobalResult(
            goid=goid, kind=ResultKind.MAYBE, bindings=bindings,
            unsolved=unsolved,
        )
        attach(result, *(
            NullAttr(site="", goid=goid, attr=str(p)) for p in unsolved
        ))
        results.maybe.append(result)
    return results


def demote_outerjoin_incomplete(
    results: ResultSet,
    skipped_sites: Iterable[str],
) -> int:
    """Degraded-answer semantics of a partial CA materialization.

    CA fuses every shipped extent into one outerjoin, erasing per-site
    provenance: with any extent missing, a TRUE predicate can rest on an
    incomplete materialization, so no row can be soundly *certified* —
    every certain result demotes to maybe.  A ``SiteDown`` atom per
    skipped site lands on **all** rows (existing maybes included: their
    missing values may equally stem from the unshipped extent), which
    is what lets repair later re-materialize from exactly the named
    sites.  Returns the number of demoted rows.
    """
    skipped = sorted(skipped_sites)
    note = outerjoin_incomplete(skipped)
    demoted = results.certain
    results.certain = []
    for result in demoted:
        result.kind = ResultKind.MAYBE
        result.notes = result.notes + (note,)
        results.maybe.append(result)
    atoms = [SiteDown(site=site) for site in skipped]
    for result in results.maybe:
        attach(result, *atoms)
    return len(demoted)


class Shipment:
    """One class's CA_C1 export from one site, projected on first use.

    ``len`` is the site's extent size — what the simulated site scans,
    projects and ships, and what CA charges.  The projected copies are
    made only when iterated: by ``materialize`` on a merge miss, or for
    a repair state.  A reused merge never reads them, so this process
    never builds them.  Once made they are kept, so one execution
    projects each object at most once.
    """

    __slots__ = ("_db", "_local_class", "_attributes", "_objects")

    def __init__(self, db, local_class: str, attributes: Tuple[str, ...]):
        self._db, self._local_class = db, local_class
        self._attributes = attributes
        self._objects: Optional[List[LocalObject]] = None

    def __len__(self) -> int:
        return self._db.count(self._local_class)

    def __iter__(self) -> Iterator[LocalObject]:
        if self._objects is None:
            self._objects = self._db.scan_for_export(
                self._local_class, self._attributes
            )
        return iter(self._objects)


def export_site(
    system: DistributedSystem,
    db_name: str,
    needed: Dict[str, Tuple[str, ...]],
) -> Iterator[Tuple[str, Shipment, int]]:
    """Step CA_C1 at one site: retrieve and project its extents.

    *needed* maps each involved global class to the attributes the
    query needs of it (:func:`attributes_needed_by_class`).  For each
    class the site holds a constituent of, yields ``(global class,
    shipment, attributes projected)`` — the :class:`Shipment` of its
    objects projected on the LOid and the needed attributes the local
    class actually defines.
    """
    db = system.db(db_name)
    for global_class, attributes in needed.items():
        local_class = system.global_schema.constituent_class(
            db_name, global_class
        )
        if local_class is None:
            continue
        cdef = db.schema.cls(local_class)
        local_needed = tuple(a for a in attributes if cdef.has_attribute(a))
        yield (
            global_class,
            Shipment(db, local_class, local_needed),
            len(local_needed),
        )


class CentralizedStrategy(Strategy):
    """The paper's algorithm CA."""

    name = "CA"

    def execute(
        self,
        system: DistributedSystem,
        query: Query,
        ctx: ExecutionContext,
        resume=None,
    ) -> StrategyResult:
        query.validate(system.global_schema.schema)
        fed = system.simulator(ctx.plan)
        work = WorkCounters()
        cost = system.cost_model
        fault_events: List[TraceEvent] = []
        skipped_sites: List[str] = []
        exchanges: List[str] = []

        needed = system.query_shape(query).needed
        involved_classes = tuple(needed)  # the root, then branch classes

        # --- step CA_C1: each site retrieves, projects and ships extents ---
        exports_by_class: Dict[str, Dict[str, Iterable[LocalObject]]] = {
            cls: {} for cls in involved_classes
        }
        sites: Iterable[str] = system.databases
        if resume is not None:
            # A repair: the exports the degraded run fused are already
            # here, and only the sites it skipped are asked to ship —
            # one that left the federation since stays skipped for good.
            for cls, by_site in resume.exports_by_class.items():
                exports_by_class.setdefault(cls, {}).update(by_site)
            sites = [s for s in resume.skipped_sites if s in system.databases]
            skipped_sites.extend(
                s for s in resume.skipped_sites if s not in system.databases
            )
        ship_nodes = []
        for db_name in sites:
            negotiation = ctx.contact(system.global_site, db_name)
            entry_deps = fault_wait_chain(fed, ctx, negotiation, fault_events)
            if not negotiation.ok:
                # The extent never ships: the fused outerjoin will
                # run over a partial materialization.
                skipped_sites.append(db_name)
                fault_events.append(
                    TraceEvent.of(
                        "fault.site_skipped",
                        site=db_name,
                        reason=negotiation.reason,
                        attempts=len(negotiation.attempts),
                    )
                )
                continue
            exports = list(export_site(system, db_name, needed))
            if not exports:
                continue
            site_bytes = 0
            site_objects = 0
            for global_class, objs, n_attrs in exports:
                exports_by_class[global_class][db_name] = objs
                site_bytes += len(objs) * cost.object_bytes(n_attrs)
                site_objects += len(objs)
            work.objects_scanned += site_objects
            work.objects_shipped += site_objects
            work.bytes_disk += site_bytes
            work.bytes_network += site_bytes
            work.messages += 1
            exchanges.append(db_name)
            scan = fed.disk(
                db_name,
                nbytes=site_bytes,
                label=f"CA_C1 scan@{db_name}",
                phase=PHASE_SCAN,
                deps=entry_deps,
            )
            project = fed.cpu(
                db_name,
                comparisons=site_objects,
                label=f"CA_C1 project@{db_name}",
                phase=PHASE_SCAN,
                deps=[scan],
            )
            ship_nodes.append(
                fed.transfer(
                    db_name,
                    system.global_site,
                    nbytes=site_bytes,
                    label="CA_C1 ship",
                    deps=[project],
                )
            )

        # --- step CA_G2: outerjoin over GOid at the global site (O + I) ----
        # The exports a resumed run fuses were projected at the degraded
        # run's versions, not this one's: it merges afresh.
        stats = IntegrationStats()
        extent = materialize(
            involved_classes,
            system.global_schema,
            system.catalog,
            exports_by_class,
            stats,
            reuse=None if resume is not None else (
                system.merged_extents(),
                (involved_classes, tuple(needed.values()), tuple(exchanges)),
            ),
        )
        work.comparisons += stats.comparisons
        integrate = fed.cpu(
            system.global_site,
            comparisons=stats.comparisons,
            label="CA_G2 outerjoin",
            phase=PHASE_I,
            deps=ship_nodes,
        )

        # --- step CA_G3: evaluate predicates on materialized classes (P) ---
        meter = EvalMeter()
        results = evaluate_global(query, extent, meter)
        work.comparisons += meter.comparisons
        fed.cpu(
            system.global_site,
            comparisons=meter.comparisons,
            label="CA_G3 evaluate",
            phase=PHASE_P,
            deps=[integrate],
        )

        # --- degraded-answer semantics under site loss ---------------------
        repair_state = None
        if skipped_sites:
            demoted = demote_outerjoin_incomplete(results, skipped_sites)
            fault_events.append(
                TraceEvent.of(
                    "fault.degraded",
                    strategy=self.name,
                    demoted=demoted,
                    sites_skipped=",".join(sorted(skipped_sites)),
                )
            )
            from repro.conditions.recertify import CentralizedRepairState

            # Plain lists, projected now: a resumed run merges the data
            # as it was here, never a lazy view of live objects.
            repair_state = CentralizedRepairState(
                strategy=self.name,
                query=query,
                schema_epoch=system.schema_epoch,
                exports_by_class={
                    cls: {site: list(objs) for site, objs in by_site.items()}
                    for cls, by_site in exports_by_class.items()
                },
                skipped_sites=tuple(sorted(skipped_sites)),
            )
            fault_events.append(
                TraceEvent.of(
                    "conditions.attached",
                    strategy=self.name,
                    sites=",".join(sorted(skipped_sites)),
                    rows=len(results.maybe),
                )
            )

        ctx.charge(work)
        outcome_sim = fed.run()
        metrics = ExecutionMetrics.from_outcome(
            self.name,
            outcome_sim,
            work,
            certain_results=results.certain_count,
            maybe_results=len(results.maybe),
            events=[TraceEvent.of(
                "ca.integrate",
                classes=len(involved_classes),
                objects_shipped=work.objects_shipped,
                outerjoin_comparisons=stats.comparisons,
            )] + fault_events,
            fault_windows=ctx.fault_windows(fed.sites),
        )
        return StrategyResult(
            results=results.sort(),
            metrics=metrics,
            availability=ctx.availability(),
            repair=repair_state,
            exchanges=tuple(exchanges),
        )
