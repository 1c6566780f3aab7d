"""Condition algebra, compound conditions, and incremental repair.

Covers the `repro.conditions` package three ways: unit tests of the
3VL algebra (atom status against live :class:`SystemState` views,
attach/mechanism helpers, byte-exact :mod:`repro.conditions.reasons`
notes); compound outage-AND-flux
conjunctions through the engine's flux demotion; and end-to-end
answer repair on the school federation — partial recovery that stays
maybe but remains repairable, chained repair converging on the
fault-free baseline, and early discharge of an unchecked copy from an
isomeric sibling's verdict without re-contacting the dead site.
"""

import types

import pytest

from helpers import context
from repro.conditions import (
    FluxEpoch,
    NullAttr,
    RepairError,
    SiteDown,
    SystemState,
    UncheckedCopy,
    attach,
    condition_sites,
    mechanism,
    rank_mechanisms,
)
from repro.conditions import reasons
from repro.core.certification import SATISFIED
from repro.core.engine import GlobalQueryEngine, _demote_uncertified
from repro.core.options import ExecutionOptions
from repro.core.results import GlobalResult, ResultKind
from repro.core.tvl import TV
from repro.errors import QueryError
from repro.faults import FaultPlan, OutageWindow
from repro.objectdb.ids import GOid
from repro.resilience.failover import pending_skips_of
from repro.workload.paper_example import Q1_TEXT

DB2_DOWN = FaultPlan.single_site_loss("DB2")
DB3_DOWN = FaultPlan.single_site_loss("DB3")
DB2_DB3_DOWN = FaultPlan(outages=(
    OutageWindow("DB2", 0.0, 1e9),
    OutageWindow("DB3", 0.0, 1e9),
))


def goid(value):
    return GOid(value=value)


def healed(system, **view):
    """The state of a federation every present site of which answers."""
    return SystemState(system=system, ctx=context(), **view)


def db2_down(system):
    return SystemState(
        system=system, ctx=context(fault_plan=DB2_DOWN)
    )


def maybe_row(value, *conditions):
    row = GlobalResult(goid=goid(value), kind=ResultKind.MAYBE)
    attach(row, *conditions)
    return row


class TestSystemState:
    def test_healed_view_marks_present_sites_dischargeable(self, school):
        state = healed(school)
        assert state.site_status("DB1") is TV.TRUE
        assert state.site_status("DB2") is TV.TRUE

    def test_excised_site_is_permanently_false(self, school):
        assert healed(school).site_status("DBX") is TV.FALSE

    def test_outage_blocks_without_refuting(self, school):
        ctx = context(fault_plan=DB2_DOWN)
        state = SystemState(system=school, ctx=ctx)
        assert state.site_status("DB2") is TV.UNKNOWN
        assert state.site_status("DB1") is TV.TRUE

    def test_flux_label_open_vs_closed(self, school):
        state = healed(school, flux_labels=("w1",))
        assert state.flux_status("w1") is TV.UNKNOWN
        assert state.flux_status("w2") is TV.TRUE

    def test_current_snapshots_epoch(self, school):
        ctx = context()
        state = SystemState.current(school, ctx)
        assert state.epoch == school.schema_epoch
        assert state.ctx is ctx


class TestAtoms:
    def test_null_attr_never_discharges(self, school):
        atom = NullAttr(site="DB1", goid=goid("gs2"), attr="city")
        assert atom.status(healed(school)) is TV.FALSE

    def test_site_down_tracks_live_reachability(self, school):
        atom = SiteDown(site="DB2")
        assert atom.status(healed(school)) is TV.TRUE
        assert atom.status(db2_down(school)) is TV.UNKNOWN
        assert SiteDown(site="DBX").status(healed(school)) is TV.FALSE

    def test_unchecked_copy_follows_holder_site(self, school):
        atom = UncheckedCopy(site="DB2", goid=goid("gt1"))
        blocked = db2_down(school)
        assert atom.status(blocked) is TV.UNKNOWN
        assert atom.status(healed(school)) is TV.TRUE

    def test_flux_epoch_clears_when_window_closes(self, school):
        atom = FluxEpoch(epoch=2, event="drop:DB1.K1.a@2")
        open_ = healed(school, flux_labels=("drop:DB1.K1.a@2",))
        assert atom.status(open_) is TV.UNKNOWN
        assert atom.status(healed(school)) is TV.TRUE

    def test_describe_renderings(self):
        assert str(NullAttr("DB1", goid("gs1"), "a.b = 'x'")) == (
            "null[DB1:gs1:a.b = 'x']"
        )
        assert str(NullAttr("", goid("gs1"), "p")) == "null[*:gs1:p]"
        assert str(SiteDown("DB2")) == "site-down[DB2]"
        assert str(UncheckedCopy("DB2", goid("gt1"))) == "unchecked[DB2:gt1]"
        assert str(FluxEpoch(3, "w")) == "flux[w@3]"


class TestAttachAndRanking:
    def test_attach_dedupes_and_sorts(self):
        row = maybe_row("g")
        attach(row, SiteDown("DB2"), NullAttr("DB1", goid("g"), "p"))
        attach(row, SiteDown("DB2"), UncheckedCopy("DB2", goid("t")))
        assert [str(c) for c in row.conditions] == [
            "null[DB1:g:p]",
            "site-down[DB2]",
            "unchecked[DB2:t]",
        ]

    def test_condition_sites_names_repair_targets(self):
        conditions = (
            NullAttr("DB1", goid("g"), "p"),
            UncheckedCopy("DB3", goid("t")),
            SiteDown("DB2"),
            FluxEpoch(1, "w"),
        )
        assert condition_sites(conditions) == ("DB2", "DB3")

    def test_mechanism_classification(self):
        null = NullAttr("DB1", goid("g"), "p")
        assert mechanism(()) == "sampling"
        assert mechanism((null,)) == "sampling"
        assert mechanism((null, SiteDown("DB2"))) == "systematic"
        assert mechanism((FluxEpoch(1, "w"),)) == "systematic"

    def test_rank_mechanisms_counts_maybe_rows(self):
        results = types.SimpleNamespace(maybe=[
            maybe_row("a", NullAttr("DB1", goid("a"), "p")),
            maybe_row("b", SiteDown("DB2")),
            maybe_row("c"),
        ])
        assert rank_mechanisms(results) == (2, 1)


class TestDegradationReason:
    """The note functions must spell the historical note strings byte
    for byte — committed bench baselines match on them."""

    def test_site_unavailable(self):
        assert reasons.site_unavailable("DB2") == (
            "uncertified: site DB2 unavailable"
        )

    def test_outerjoin_incomplete_sorts_sites(self):
        assert reasons.outerjoin_incomplete(["DB3", "DB1"]) == (
            "uncertified: outerjoin incomplete (site DB1, DB3 unavailable)"
        )

    def test_schema_flux(self):
        assert reasons.schema_flux("drop:DB1.K1.a@2") == (
            "uncertified: schema in flux (drop:DB1.K1.a@2)"
        )


class FluxStub:
    """Minimal stand-in for the evolution controller's flux view."""

    def __init__(self, label, attrs):
        self.uncertified_attrs = set(attrs)
        self.open_events = [
            (label, types.SimpleNamespace(touched_attrs=set(attrs)))
        ]


class TestCompoundConditions:
    """Outage AND open-window conjunctions through flux demotion."""

    LABEL = "drop:DB2.Teacher.speciality@1"

    def test_flux_atoms_join_site_blocked_maybes(self, school_engine):
        degraded = school_engine.execute(
            Q1_TEXT, "BL", options=ExecutionOptions(fault_plan=DB2_DOWN)
        )
        query = school_engine.parse(Q1_TEXT)
        flux = FluxStub(self.LABEL, {"speciality"})
        demoted, labels = _demote_uncertified(
            degraded.results, query, flux, epoch=3
        )
        assert demoted == 0 and labels == [self.LABEL]
        rows = {str(r.goid): r for r in degraded.results.maybe}
        # gs1 is blocked by the DB2 outage: its conjunction now also
        # requires the window to close.
        gs1 = [str(c) for c in rows["gs1"].conditions]
        assert "site-down[DB2]" in gs1
        assert f"flux[{self.LABEL}@3]" in gs1
        # gs2 is maybe on genuine nulls only — no flux atom.
        assert all(
            not str(c).startswith("flux[") for c in rows["gs2"].conditions
        )

    def test_flux_demotes_certain_rows_with_atoms(self, school_engine):
        baseline = school_engine.execute(Q1_TEXT, "BL")
        query = school_engine.parse(Q1_TEXT)
        certified = {str(r.goid) for r in baseline.results.certain}
        assert certified, "baseline must certify at least one row"
        flux = FluxStub(self.LABEL, {"speciality"})
        demoted, _ = _demote_uncertified(
            baseline.results, query, flux, epoch=2
        )
        assert demoted == len(certified)
        assert not baseline.results.certain
        rows = {str(r.goid): r for r in baseline.results.maybe}
        for value in certified:
            row = rows[value]
            assert (
                f"uncertified: schema in flux ({self.LABEL})" in row.notes
            )
            assert f"flux[{self.LABEL}@2]" in [
                str(c) for c in row.conditions
            ]

    def test_unreferenced_window_is_inert(self, school_engine):
        baseline = school_engine.execute(Q1_TEXT, "BL")
        query = school_engine.parse(Q1_TEXT)
        flux = FluxStub("drop:DB1.Student.sex@1", {"sex"})
        demoted, labels = _demote_uncertified(
            baseline.results, query, flux, epoch=2
        )
        assert (demoted, labels) == (0, [])
        assert baseline.results.certain


class TestAnswerRepair:
    def test_fault_free_report_is_a_noop_repair(self, school_engine):
        report = school_engine.execute(Q1_TEXT, "BL")
        repaired = school_engine.recertify(report)
        assert repaired.results.to_dicts() == report.results.to_dicts()
        assert repaired.repair_summary.messages == 0
        assert repaired.repair_summary.sites_contacted == ()

    def test_partial_recovery_stays_maybe_but_repairable(
        self, school_engine
    ):
        degraded = school_engine.execute(
            Q1_TEXT, "BL", options=ExecutionOptions(fault_plan=DB2_DB3_DOWN)
        )
        assert not degraded.results.certain
        assert degraded.repair is not None

        # DB2 heals, DB3 stays dark: repair ships DB2's evidence but
        # must leave DB3-blocked rows conditional — and repairable.
        partial = school_engine.recertify(
            degraded, options=ExecutionOptions(fault_plan=DB3_DOWN)
        )
        summary = partial.repair_summary
        assert summary.sites_contacted == ("DB2",)
        assert not summary.fully_repaired
        assert summary.outstanding > 0
        assert partial.repair is not None
        rows = {str(r.goid): [str(c) for c in r.conditions]
                for r in partial.results.maybe}
        # gs4 only surfaced once DB2 healed; its teacher copy at DB3 is
        # still unchecked, so it enters conditionally, not certified.
        assert "unchecked[DB3:gt4]" in rows["gs4"]
        assert "unchecked[DB3:gt2]" in rows["gs3"]

        # DB3 heals: the chained repair converges on the fault-free
        # baseline, monotonically.
        full = school_engine.recertify(partial)
        assert full.repair_summary.fully_repaired
        assert full.repair_summary.sites_contacted == ("DB3",)
        assert full.repair_summary.promoted >= 1
        baseline = school_engine.execute(Q1_TEXT, "BL")
        assert full.results.to_dicts() == baseline.results.to_dicts()
        certified = {r.goid for r in partial.results.certain}
        assert certified <= {r.goid for r in full.results.certain}

    def test_isomeric_verdict_discharges_without_contact(
        self, school, school_engine
    ):
        """A settled verdict from an isomeric sibling copy clears an
        ``unchecked`` atom with zero messages to the dead site."""
        degraded = school_engine.execute(
            Q1_TEXT, "BL", options=ExecutionOptions(fault_plan=DB2_DOWN)
        )
        state = degraded.repair
        assert state is not None and state.skipped_requests
        for src, request in state.skipped_requests:
            for skip in pending_skips_of(school, src, request):
                placements = school.catalog.table(
                    skip.global_class
                ).loids_of(skip.goid)
                for site in sorted(placements):
                    if site != "DB2":
                        state.verdicts.add(
                            placements[site], skip.predicate, SATISFIED
                        )

        repaired = school_engine.recertify(
            degraded, options=ExecutionOptions(fault_plan=DB2_DOWN)
        )
        summary = repaired.repair_summary
        assert summary.discharged >= 1
        assert summary.messages == 0
        assert summary.sites_contacted == ()
        rows = {str(r.goid): [str(c) for c in r.conditions]
                for r in repaired.results.maybe}
        # The copy-check condition cleared from the sibling's verdict;
        # the placement outage itself is still outstanding.
        assert "unchecked[DB2:gt1]" not in rows["gs1"]
        assert "site-down[DB2]" in rows["gs1"]

    def test_coverage_discharge_spares_the_healed_site(
        self, school, school_engine
    ):
        """The same discharge with every site back: the resumed run
        could reach DB3 now, and still sends it nothing — a verdict in
        hand settles each skipped request before it is dispatched."""
        degraded = school_engine.execute(
            Q1_TEXT, "PL", options=ExecutionOptions(fault_plan=DB3_DOWN)
        )
        state = degraded.repair
        assert state.down_sites == () and state.skipped_requests
        assert {r.db_name for _, r in state.skipped_requests} == {"DB3"}
        for src, request in state.skipped_requests:
            for skip in pending_skips_of(school, src, request):
                placements = school.catalog.table(
                    skip.global_class
                ).loids_of(skip.goid)
                state.verdicts.add(
                    placements["DB3"], skip.predicate, SATISFIED
                )
        summary = school_engine.recertify(degraded).repair_summary
        assert summary.messages == 0
        assert summary.sites_contacted == ()
        assert summary.discharged >= 1 and summary.fully_repaired

    def test_auto_report_resumes_its_delegate(self, school_engine):
        degraded = school_engine.execute(
            Q1_TEXT, "AUTO", options=ExecutionOptions(fault_plan=DB2_DOWN)
        )
        chosen = degraded.metrics.strategy.removeprefix("AUTO->")
        assert degraded.repair.strategy == chosen
        repaired = school_engine.recertify(degraded)
        assert repaired.repair_summary.fully_repaired
        baseline = school_engine.execute(Q1_TEXT, chosen)
        assert repaired.results.to_dicts() == baseline.results.to_dicts()

    def test_conditions_excluded_from_exports(self, school_engine):
        degraded = school_engine.execute(
            Q1_TEXT, "BL", options=ExecutionOptions(fault_plan=DB2_DOWN)
        )
        assert any(row.conditions for row in degraded.results.maybe)
        for record in degraded.results.to_dicts():
            assert "conditions" not in record


def evolve(system, spec):
    """Apply one evolution event to *system*, window opened and closed."""
    from repro.evolution.controller import EvolutionController
    from repro.evolution.plan import EvolutionPlan

    EvolutionController(system, EvolutionPlan.from_spec(spec)).run_all()


class TestRepairAcrossEvolution:
    """A repair validates and decomposes at the epoch it runs in."""

    @pytest.mark.parametrize("strategy", ["CA", "BL"])
    @pytest.mark.parametrize("spec", [
        "drop:DB2.Teacher.speciality@0",
        "rename:Student.name>fullname@0",
    ])
    def test_invalidated_query_is_a_repair_error(
        self, school, school_engine, spec, strategy
    ):
        degraded = school_engine.execute(
            Q1_TEXT, strategy, options=ExecutionOptions(fault_plan=DB2_DOWN)
        )
        then = school.schema_epoch
        evolve(school, spec)
        with pytest.raises(QueryError) as executed:
            school_engine.execute(Q1_TEXT, strategy)
        contacted = []
        for db in school.databases.values():
            db.execute_local = db.scan_for_export = (
                lambda *args, _db=db: contacted.append(_db.name)
            )
        with pytest.raises(RepairError) as repaired:
            school_engine.recertify(degraded)
        assert not contacted
        assert isinstance(repaired.value.__cause__, QueryError)
        message = str(repaired.value)
        assert str(executed.value) in message
        assert f"epoch {then}" in message
        assert f"epoch {school.schema_epoch}" in message
        assert then != school.schema_epoch

    @pytest.mark.parametrize("strategy", ["CA", "BL", "PL"])
    def test_drop_of_an_attribute_defined_elsewhere_still_repairs(
        self, school, school_engine, strategy
    ):
        degraded = school_engine.execute(
            Q1_TEXT, strategy,
            options=ExecutionOptions(fault_plan=FaultPlan.single_site_loss("DB1")),
        )
        assert degraded.repair is not None
        evolve(school, "drop:DB1.Teacher.department@0")
        repaired = school_engine.recertify(degraded)
        assert repaired.repair_summary.fully_repaired
        fresh = school_engine.execute(Q1_TEXT, strategy)
        assert repaired.results.to_dicts() == fresh.results.to_dicts()
