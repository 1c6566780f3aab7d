"""The public query engine facade.

:class:`GlobalQueryEngine` is the main entry point for library users: it
accepts a :class:`~repro.core.query.Query` (or an SQL/X string), executes
it with a chosen strategy, and returns a unified
:class:`~repro.core.report.ExecutionReport` — the answer, the metrics,
the span trace (with Chrome-trace / JSONL / Gantt exporters) and the
per-site utilization profile of that one execution.  ``explain()`` and
``compare()`` consume the same report object, so rendering a schedule
never re-runs the query.

Per-execution configuration lives in one immutable
:class:`~repro.core.options.ExecutionOptions` value (``engine.options``);
derive variants with ``engine.options.with_(planner="constraints")`` and
pass them as ``options=`` — the one way to configure an execution.

Concurrent callers over one shared federation each take an
:meth:`GlobalQueryEngine.session` — a lightweight handle with its own
default strategy, options and per-worker cache accounting.  Every
execution gets its own
:class:`~repro.faults.injector.ExecutionContext`, the single carrier of
its options and all per-execution state (fault negotiations, departed
sites), so strategies hold no option and interleaved executions can
never bleed into each other.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.options import ExecutionOptions
from repro.core.query import Query
from repro.core.report import ExecutionReport
from repro.core.results import ResultKind, certified_subset, same_answers
from repro.core.session import EngineSession
from repro.core.strategies import DEFAULT_REGISTRY, Strategy
from repro.core.strategies.registry import StrategyRegistry
from repro.core.system import DistributedSystem
from repro.errors import ReproError
from repro.faults.injector import ExecutionContext
from repro.faults.plan import FaultPlan
from repro.obs.spans import TraceEvent


def _with_departed_outages(
    options: ExecutionOptions, sites: Sequence[str]
) -> ExecutionOptions:
    """Merge formally-departed sites into the execution's fault plan.

    A site whose leave window is open is unreachable for the whole
    execution; modelling that as a synthetic whole-execution outage
    reuses the entire existing degradation machinery (relay failover,
    verdict demotion, certified-subset soundness) unchanged.
    """
    from repro.faults.plan import OutageWindow

    base = options.fault_plan
    synthetic = tuple(OutageWindow(site, 0.0, 1e12) for site in sites)
    if base is None:
        plan = FaultPlan(outages=synthetic)
    else:
        plan = FaultPlan(
            seed=base.seed,
            outages=base.outages + synthetic,
            links=base.links,
        )
    return options.with_(fault_plan=plan)


def _demote_uncertified(
    results, query: Query, flux, epoch: int = 0, protect=frozenset()
) -> Tuple[int, List[str]]:
    """Apply the flux consistency contract to one straddling answer.

    When an open window drops or renames an attribute the query
    references, rows certified mid-propagation cannot be trusted to
    match either the pre- or post-epoch baseline bindings — so *every*
    certain row is demoted to maybe with an ``"uncertified: schema in
    flux"`` note.  (An empty certified set is trivially a sound subset
    of both baselines; adds and joins need no demotion because the flux
    answer equals one baseline exactly, and leaves are handled by the
    fault machinery's own degradation.)  Returns (rows demoted, labels
    of the windows that forced it).

    Every demoted row carries a ``FluxEpoch`` atom per forcing window,
    and rows *already* maybe for a site-loss reason (``SiteDown`` /
    ``UncheckedCopy`` atoms) pick up the same atoms — their answer is
    blocked by the outage AND the open window, and the conjunction
    discharges only when both clear.  Atoms never alter notes, so
    rendered degradation text is unchanged.

    *protect* names entities exempt from demotion: a repair passes the
    rows the degraded answer had already certified, whose certification
    predates the window — repair never demotes.
    """
    from repro.conditions.algebra import (
        FluxEpoch,
        SiteDown,
        UncheckedCopy,
        attach,
    )
    from repro.conditions.reasons import schema_flux
    from repro.evolution.seeding import referenced_attributes

    if not flux.uncertified_attrs:
        return 0, []
    referenced = referenced_attributes(query)
    hit = [
        label
        for label, event in flux.open_events
        if any(a in referenced for a in event.touched_attrs)
    ]
    if not hit:
        return 0, hit
    flux_atoms = tuple(FluxEpoch(epoch=epoch, event=label) for label in hit)
    for row in results.maybe:
        if any(
            isinstance(a, (SiteDown, UncheckedCopy)) for a in row.conditions
        ):
            attach(row, *flux_atoms)
    demoted = [row for row in results.certain if row.goid not in protect]
    if not demoted:
        return 0, hit
    notes = tuple(schema_flux(label) for label in hit)
    results.certain[:] = [
        row for row in results.certain if row.goid in protect
    ]
    for row in demoted:
        row.kind = ResultKind.MAYBE
        row.notes = row.notes + notes
        attach(row, *flux_atoms)
        results.maybe.append(row)
    return len(demoted), hit


class GlobalQueryEngine:
    """Executes global queries against a federation."""

    def __init__(
        self,
        system: DistributedSystem,
        default_strategy: Union[str, Strategy] = "BL",
        registry: Optional[StrategyRegistry] = None,
        options: Optional[ExecutionOptions] = None,
    ) -> None:
        self.system = system
        self.registry = registry or DEFAULT_REGISTRY
        self.default_strategy = self._resolve(default_strategy)
        #: Engine-wide default :class:`ExecutionOptions`; immutable —
        #: replace it (``engine.options = engine.options.with_(...)``)
        #: rather than mutating.
        self.options = options if options is not None else ExecutionOptions()
        self._sessions = 0
        self._root_session = EngineSession(self, name="main")

    # --- sessions ----------------------------------------------------------

    def session(
        self,
        name: Optional[str] = None,
        strategy: Union[str, Strategy, None] = None,
        options: Optional[ExecutionOptions] = None,
        fault_seed: Optional[int] = None,
    ) -> EngineSession:
        """A lightweight per-caller handle over the shared federation.

        Each session carries its own default strategy, options and fault
        seed plus per-session cache hit/miss accounting, while the
        federation (databases, catalogs, decomposition/mapping caches,
        signature catalog) stays shared.  Sessions are cooperative: calls
        interleave deterministically, and all per-execution fault state
        is created per call, so sessions never bleed into each other.
        """
        self._sessions += 1
        return EngineSession(
            self,
            name=name or f"session-{self._sessions}",
            strategy=strategy,
            options=options,
            fault_seed=fault_seed,
        )

    def _resolve(self, strategy: Union[str, Strategy]) -> Strategy:
        if isinstance(strategy, Strategy):
            return strategy
        return self.registry.create(strategy)

    def parse(self, text: str) -> Query:
        """Parse an SQL/X query string against the global schema."""
        from repro.sqlx import parse_query

        return parse_query(text)

    def ensure_signatures(self) -> None:
        """Build the signature catalog now if it is absent.

        Signature strategies (BL-S/PL-S) need the catalog; without this
        call the engine builds it implicitly on first use and records a
        ``signatures.build`` event on that report.  The catalog is part
        of the shared federation: it is built once and reused by every
        session.
        """
        self.system.ensure_signatures()

    def _run(
        self,
        query: Union[Query, str],
        strategy: Optional[Union[str, Strategy]],
        options: ExecutionOptions,
        session: EngineSession,
    ) -> ExecutionReport:
        """One execution with fully-resolved options, on behalf of *session*.

        The options ride the execution's :class:`ExecutionContext`; the
        chosen strategy instance holds none, so a Strategy shared
        between sessions is safe under interleaving.
        """
        query_text = query if isinstance(query, str) else str(query)
        if isinstance(query, str):
            query = self.parse(query)
        chosen = (
            session.default_strategy
            if strategy is None
            else self._resolve(strategy)
        )
        built_signatures = False
        if getattr(chosen, "use_signatures", False) and self.system.signatures is None:
            self.system.build_signatures()
            built_signatures = True
        # Epoch pinning: the execution runs synchronously against the
        # federation state *now*, so snapshotting the flux view here is
        # what "pinned to schema_epoch" means — the controller only
        # advances between executions (a traffic worker executes a whole
        # query at its admission grant).
        evo = self.system.evolution
        flux = evo.in_flux_view() if evo is not None else None
        departed = flux.departed_sites if flux is not None else ()
        if departed:
            options = _with_departed_outages(options, departed)
        ctx = ExecutionContext(options, departed)
        hits_before, misses_before = self.system.cache_counts()
        with self.system.cache_scope(session.name):
            result = chosen.execute(self.system, query, ctx)
        demoted, flux_labels = 0, []
        if evo is not None:
            if flux is not None and flux.active:
                demoted, flux_labels = _demote_uncertified(
                    result.results,
                    query,
                    flux,
                    epoch=self.system.schema_epoch,
                )
                if demoted:
                    result.metrics.certain_results = len(result.results.certain)
                    result.metrics.maybe_results = len(result.results.maybe)
            result.availability = dataclasses.replace(
                result.availability,
                schema_epoch=self.system.schema_epoch,
                epochs_straddled=flux.labels if flux is not None else (),
            )
        # Strategies do not see the cache layer; attribute the traffic
        # this execution generated (mapping-index + decomposition) to its
        # metrics before the lazy registry snapshot is built.
        hits, misses = self.system.cache_counts()
        hits -= hits_before
        misses -= misses_before
        result.metrics.work.cache_hits = hits
        result.metrics.work.cache_misses = misses
        session.note_execution(hits, misses)
        report = ExecutionReport.from_result(result, query_text=query_text)
        if built_signatures:
            report.record_event(TraceEvent.of(
                "signatures.build",
                implicit=True,
                strategy=chosen.name,
                hint="call engine.ensure_signatures() to build up front",
            ))
        if evo is not None:
            report.record_event(TraceEvent.of(
                "evolution.epoch",
                epoch=self.system.schema_epoch,
                in_flux=bool(flux is not None and flux.active),
                straddled=",".join(flux.labels) if flux is not None else "",
            ))
            if demoted:
                report.record_event(TraceEvent.of(
                    "evolution.straddle",
                    demoted=demoted,
                    windows=",".join(flux_labels),
                ))
        if ctx.active:
            report.record_event(TraceEvent.of(
                "faults.plan",
                outages=len(ctx.plan.outages),
                links=len(ctx.plan.links),
                policy=ctx.policy.name,
                seed=ctx.injector.seed,
                complete=ctx.complete,
            ))
        return report

    def execute(
        self,
        query: Union[Query, str],
        strategy: Optional[Union[str, Strategy]] = None,
        options: Optional[ExecutionOptions] = None,
    ) -> ExecutionReport:
        """Run *query* (Query object or SQL/X text) once.

        Returns an :class:`ExecutionReport`: the answer plus metrics
        (it still quacks like the old ``StrategyResult``), with
        ``.trace``, ``.registry`` and ``.utilization`` views derived
        from the same run.

        *options* overrides the engine-wide :class:`ExecutionOptions`
        for this execution only.

        Raises:
            UnavailableError: a site stayed unreachable under a
                fail-fast policy.
            ExecutionTimeout: cumulative fault waits exceeded the
                policy's deadline.
        """
        effective = options if options is not None else self.options
        return self._run(query, strategy, effective, self._root_session)

    def recertify(
        self,
        report: ExecutionReport,
        options: Optional[ExecutionOptions] = None,
    ) -> ExecutionReport:
        """Incrementally repair a degraded *report* against the
        federation as it stands now.

        The strategy that produced *report* is resumed from the report's
        repair state: only the sites it could not reach are contacted,
        everything the original execution already collected (local
        results, check verdicts, exports) is reused, and certification
        runs over the merged evidence.  Promotion is
        monotone — a repaired answer never demotes a row the original
        certified — and a fully healed federation repairs the answer to
        the fault-free baseline byte for byte, at a fraction of a
        re-execution's message cost.

        *options* describes the federation's health *during the repair*
        (default: no fault plan, i.e. fully healed).  Pass a narrower
        fault plan to model a partial recovery: atoms naming still-down
        sites stay outstanding and the returned report remains
        repairable — call :meth:`recertify` again as more sites return.

        Raises:
            RepairError: the federation no longer accepts the query (an
                evolution event invalidated it since the degraded run),
                or repair would demote a certified row.
        """
        from repro.conditions.recertify import ReCertifier

        effective = options if options is not None else ExecutionOptions()
        return ReCertifier(
            self.system, ExecutionContext(effective), self.registry
        ).repair(report)

    def explain(
        self,
        query: Union[Query, str, ExecutionReport],
        strategy: Optional[Union[str, Strategy]] = None,
        width: int = 48,
    ) -> str:
        """Render an execution's schedule as text.

        Pass an :class:`ExecutionReport` to render a run you already
        have — nothing is executed.  Pass a query (text or
        :class:`Query`) and it is executed exactly once, then rendered
        from that single run's report.
        """
        if isinstance(query, ExecutionReport):
            return query.explain(width=width)
        return self.execute(query, strategy).explain(width=width)

    def compare(
        self,
        query: Union[Query, str],
        strategies: Optional[Sequence[Union[str, Strategy]]] = None,
        check_agreement: bool = True,
        options: Optional[ExecutionOptions] = None,
    ) -> Dict[str, ExecutionReport]:
        """Execute *query* under several strategies (default: CA, BL, PL).

        With ``check_agreement`` (the default) a :class:`ReproError` is
        raised if any two strategies return different answers — they
        implement the same query semantics and may only differ in cost.
        Under an active fault plan the check relaxes to
        *completeness-aware agreement*: complete executions must agree
        exactly, and every incomplete (degraded) execution may only
        certify a subset of what a complete one certifies — degradation
        must never add certainty.

        *options* applies to every strategy's execution.
        """
        return self._root_session.compare(
            query,
            strategies=strategies,
            check_agreement=check_agreement,
            options=options if options is not None else self.options,
        )

    @staticmethod
    def _check_agreement(outcomes: Dict[str, ExecutionReport]) -> None:
        complete = {
            name: report
            for name, report in outcomes.items()
            if report.availability.complete
        }
        names = list(complete)
        baseline = complete[names[0]] if names else None
        for name in names[1:]:
            if not same_answers(baseline.results, complete[name].results):
                raise ReproError(
                    f"strategies {names[0]} and {name} disagree: "
                    f"{baseline.results.summary()} vs "
                    f"{complete[name].results.summary()}"
                )
        if baseline is None:
            # All executions degraded: nothing to anchor agreement on.
            return
        for name, report in outcomes.items():
            if report.availability.complete:
                continue
            if not certified_subset(report.results, baseline.results):
                raise ReproError(
                    f"degraded strategy {name} certified results the "
                    f"complete execution {names[0]} does not — "
                    "degradation added certainty"
                )
