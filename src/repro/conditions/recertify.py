"""Incremental re-certification: monotone answer repair.

A degraded :class:`~repro.core.report.ExecutionReport` carries (a)
per-row discharge conditions and (b) a *repair state* — the exact
evidence the strategy certified over, plus the work it had to skip
(unreached sites, undispatched check requests, stalled chase chains,
unshipped CA exports).  Certification is a pure function of that
evidence, so repairing the answer is the *same* execution resumed over
what it could not reach the first time: the :class:`ReCertifier` hands
the state back to the strategy that captured it
(``Strategy.execute(..., resume=state)``), which validates and
decomposes the query at the current epoch, contacts only the sites the
state names, routes and fails over under the repair's own fault plan
like any execution, and certifies over the merged evidence.  What is
left here is what only a repair does:

1. enforce the monotone contract — a row never loses certainty across
   a repair (:class:`RepairError` if it would);
2. re-apply the flux demotion rule against the *current* evolution
   state, never touching rows the original answer already certified,
   and promote rows that waited only on a window that has closed;
3. account for it (:class:`RepairSummary`) and build the new report.

A fully healed repair reproduces the fault-free baseline byte for byte
— without re-running the query at any site that already answered — and
a partially healed one returns an updated repair state, so recovery
can proceed in as many increments as the federation needs.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.conditions.algebra import (
    FluxEpoch,
    NullAttr,
    SystemState,
    rank_mechanisms,
)
from repro.conditions.reasons import schema_flux
from repro.core.tvl import TV
from repro.errors import ReproError


class RepairError(ReproError):
    """The repair contract could not be honored (or nothing to repair)."""


@dataclass
class RepairSummary:
    """What one recertification pass did, for explain/CLI/benches."""

    strategy: str
    #: Atoms from the degraded answer no longer outstanding (cleared by
    #: new evidence, isomeric coverage, or a closed evolution window).
    discharged: int = 0
    #: Site/flux atoms still blocking rows after this pass.
    outstanding: int = 0
    #: Rows promoted maybe -> certain.
    promoted: int = 0
    #: Maybe rows eliminated by new definitive evidence (the fault-free
    #: baseline never had them).
    dropped: int = 0
    #: Repair exchanges only (2 per request/reply pair) — the number the
    #: recertify-vs-reexecute bench compares against a full re-run.
    messages: int = 0
    sites_contacted: Tuple[str, ...] = ()
    #: True when no repair state and no outstanding atoms remain: the
    #: answer now equals the fault-free baseline.
    fully_repaired: bool = False

    def describe(self) -> str:
        sites = ",".join(self.sites_contacted) or "-"
        return (
            f"repair[{self.strategy}]: promoted={self.promoted}"
            f" dropped={self.dropped} discharged={self.discharged}"
            f" outstanding={self.outstanding} messages={self.messages}"
            f" sites={sites}"
            + (" FULLY-REPAIRED" if self.fully_repaired else "")
        )


@dataclass
class LocalizedRepairState:
    """What a localized (BL/PL) run resumes from — and nothing more.

    ``local_results``/``verdicts`` are the evidence the degraded run
    certified over; ``down_sites`` and the ``skipped_*`` fields are the
    exact work units the fault plan forced it to drop.  Local queries
    are not kept: the resumed run decomposes the query again, at the
    schema epoch it runs in.
    """

    #: Registered name of the strategy to resume ("BL", "PL-S", ...).
    strategy: str
    query: object
    #: Schema epoch the degraded run executed at.
    schema_epoch: int
    #: Per-site local results actually obtained (pruned sites hold
    #: synthesized empty sets — they never need re-contact).
    local_results: Dict[str, object]
    #: Queried sites the fault plan made unreachable.
    down_sites: Tuple[str, ...]
    #: Check requests never dispatched: ``(source_site, CheckRequest)``.
    skipped_requests: Tuple[Tuple[str, object], ...]
    #: Chase chains stalled at an unreachable assistant:
    #: ``(orig_loid, orig_pred, holder, holder_class, remaining)``.
    skipped_chase: Tuple[Tuple, ...]
    #: The run's VerdictIndex (a resumed run merges into a clone).
    verdicts: object


@dataclass
class CentralizedRepairState:
    """A resumed CA run ships only the exports the degraded run skipped."""

    strategy: str
    query: object
    #: Schema epoch the degraded run executed at.
    schema_epoch: int
    #: global class -> site -> exported objects (the partial
    #: materialization input the degraded run fused).
    exports_by_class: Dict[str, Dict[str, list]]
    #: Sites whose exports were never shipped.
    skipped_sites: Tuple[str, ...]


class ReCertifier:
    """Monotone, incremental repair of a degraded execution report.

    *ctx* carries the reachability view the repair runs under: a
    context that injects no faults (what the engine passes for a fully
    recovered federation) reaches every present site; one with an
    active fault plan yields partial repairs that leave still-blocked
    conditions (and an updated repair state) in place.  *registry*
    resolves the strategy a repair state names (default: the
    process-wide one).
    """

    def __init__(self, system, ctx, registry=None):
        self.system = system
        self.ctx = ctx
        self.registry = registry
        self.state = SystemState.current(system, ctx)

    # -- entry point ---------------------------------------------------

    def repair(self, report):
        """Repair *report*; returns a new, never-demoted ExecutionReport."""
        from repro.core.report import ExecutionReport

        original = report.results
        protect = {row.goid for row in original.certain}
        if report.repair is not None:
            resumed = self._resume(report.repair)
            repaired, new_state = resumed.results, resumed.repair
            exchanges = resumed.exchanges
            evo = self.system.evolution
            if evo is not None:
                # The straddle rule against the *current* flux view:
                # rows this repair certified while a referenced window
                # is open cannot be trusted; those the original answer
                # certified predate the window and are protected.
                from repro.core.engine import _demote_uncertified

                _demote_uncertified(
                    repaired, report.repair.query, evo.in_flux_view(),
                    epoch=self.state.epoch, protect=protect,
                )
        else:
            # Nothing was skipped: only a closed evolution window can
            # still change the answer.
            repaired, new_state, exchanges = (
                self._copy_results(original), None, ()
            )
            self._promote_flux(repaired)

        # Monotone contract: no row the original answer certified may
        # lose certainty, whatever the merged evidence now says.
        repaired_certain = {row.goid for row in repaired.certain}
        missing = sorted(
            goid.value for goid in protect - repaired_certain
        )
        if missing:
            raise RepairError(
                "repair would demote certified row(s): "
                + ", ".join(missing)
            )

        summary = self._summarize(
            report, original, repaired, exchanges, new_state
        )
        return self._build_report(
            ExecutionReport, report, repaired, summary, new_state
        )

    def _resume(self, state):
        """Run the strategy *state* names, resumed from *state*.

        The resumed run validates and decomposes the query against the
        federation as it stands, exactly like an execution; a query an
        evolution event has invalidated since cannot be repaired.
        """
        from repro.core.strategies.registry import resolve
        from repro.errors import QueryError

        strategy = resolve(state.strategy, self.registry)
        try:
            return strategy.execute(
                self.system, state.query, self.ctx, resume=state
            )
        except QueryError as exc:
            raise RepairError(
                f"the query of this answer (degraded at schema epoch "
                f"{state.schema_epoch}) cannot be resumed at epoch "
                f"{self.state.epoch}: {exc}"
            ) from exc

    # -- flux handling -------------------------------------------------

    def _promote_flux(self, results) -> int:
        """Discharge flux-only rows whose windows have since closed.

        This is the state-free repair path: no site evidence is missing
        (``unsolved`` is empty, every atom is a FluxEpoch), so a closed
        window alone re-certifies the row — no contact needed.
        """
        from repro.core.results import ResultKind

        kept = []
        promoted = 0
        for row in results.maybe:
            atoms = row.conditions
            if (
                row.unsolved
                or not atoms
                or not all(isinstance(a, FluxEpoch) for a in atoms)
                or not all(
                    a.status(self.state) is TV.TRUE for a in atoms
                )
            ):
                kept.append(row)
                continue
            flux_notes = {schema_flux(a.event) for a in atoms}
            row.notes = tuple(
                n for n in row.notes if n not in flux_notes
            )
            row.conditions = ()
            row.kind = ResultKind.CERTAIN
            results.certain.append(row)
            promoted += 1
        results.maybe[:] = kept
        return promoted

    # -- bookkeeping ---------------------------------------------------

    @staticmethod
    def _copy_results(original):
        from repro.core.results import GlobalResult, ResultSet

        out = ResultSet(targets=original.targets)
        for row in original.all_results():
            out.add(
                GlobalResult(
                    goid=row.goid,
                    kind=row.kind,
                    bindings=dict(row.bindings),
                    unsolved=row.unsolved,
                    notes=row.notes,
                    conditions=row.conditions,
                )
            )
        return out

    def _summarize(
        self, report, original, repaired, exchanges, new_state
    ) -> RepairSummary:
        original_maybe = {row.goid: row for row in original.maybe}
        repaired_maybe = {row.goid: row for row in repaired.maybe}
        repaired_certain = {row.goid for row in repaired.certain}
        promoted = sum(
            1 for goid in original_maybe if goid in repaired_certain
        )
        dropped = sum(
            1
            for goid in original_maybe
            if goid not in repaired_certain
            and goid not in repaired_maybe
        )
        discharged = 0
        for goid, row in original_maybe.items():
            old_atoms = {
                atom
                for atom in row.conditions
                if not isinstance(atom, NullAttr)
            }
            if not old_atoms:
                continue
            if goid in repaired_maybe:
                new_atoms = set(repaired_maybe[goid].conditions)
                discharged += len(old_atoms - new_atoms)
            else:
                discharged += len(old_atoms)
        outstanding = sum(
            1
            for row in repaired.maybe
            for atom in row.conditions
            if not isinstance(atom, NullAttr)
            and atom.status(self.state) is not TV.TRUE
        )
        return RepairSummary(
            strategy=report.metrics.strategy,
            discharged=discharged,
            outstanding=outstanding,
            promoted=promoted,
            dropped=dropped,
            messages=2 * len(exchanges),
            sites_contacted=tuple(dict.fromkeys(exchanges)),
            fully_repaired=new_state is None and outstanding == 0,
        )

    def _build_report(
        self, report_cls, report, repaired, summary, new_state
    ):
        from repro.obs.spans import TraceEvent

        sampling, systematic = rank_mechanisms(repaired)
        availability = dataclasses.replace(
            report.availability,
            fully_recovered=(
                report.availability.fully_recovered
                or summary.fully_repaired
            ),
            maybe_sampling=sampling,
            maybe_systematic=systematic,
        )
        metrics = copy.copy(report.metrics)
        metrics.work = dataclasses.replace(report.metrics.work)
        metrics.work.messages += summary.messages
        metrics.work.conditions_discharged += summary.discharged
        metrics.certain_results = len(repaired.certain)
        metrics.maybe_results = len(repaired.maybe)
        repaired.sort()
        new_report = report_cls(
            results=repaired,
            metrics=metrics,
            availability=availability,
            repair=new_state,
            query_text=report.query_text,
            repair_summary=summary,
        )
        new_report.record_event(TraceEvent.of(
            "repair.recertify",
            strategy=summary.strategy,
            promoted=summary.promoted,
            dropped=summary.dropped,
            discharged=summary.discharged,
            outstanding=summary.outstanding,
            messages=summary.messages,
            sites=",".join(summary.sites_contacted),
        ))
        return new_report
