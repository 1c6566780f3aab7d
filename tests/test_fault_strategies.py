"""Strategy behavior under fault plans: degraded answers, determinism,
zero overhead when off, and the completeness-aware agreement check.

The headline scenario (the chaos bench sweeps it too): with DB1 down,
CA loses *all* certainty — its fused outerjoin can no longer prove any
row complete — while BL/PL keep certifying rows whose provenance avoids
DB1.  That asymmetry is the paper-level payoff of per-site provenance.
"""

import dataclasses

import pytest

from repro.core.engine import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.results import Availability, certified_subset
from repro.errors import ExecutionTimeout, ReproError, UnavailableError
from repro.faults import EMPTY_PLAN, ExecutionPolicy, FaultPlan
from repro.workload.paper_example import Q1_TEXT, build_school_federation

DB1_DOWN = FaultPlan.single_site_loss("DB1")
DB2_DOWN = FaultPlan.single_site_loss("DB2")
DB3_DOWN = FaultPlan.single_site_loss("DB3")


class TestDegradedAnswers:
    def test_ca_collapses_under_db1_loss_but_bl_pl_do_not(self, school):
        engine = GlobalQueryEngine(school)
        ca = engine.execute(
            Q1_TEXT, "CA",
            options=engine.options.with_(fault_plan=DB1_DOWN),
        )
        bl = engine.execute(
            Q1_TEXT, "BL",
            options=engine.options.with_(fault_plan=DB1_DOWN),
        )
        pl = engine.execute(
            Q1_TEXT, "PL",
            options=engine.options.with_(fault_plan=DB1_DOWN),
        )
        # CA demotes everything: the outerjoin is missing an extent.
        assert len(ca.results.certain) == 0
        # Susan's provenance (DB2 + DB3) avoids DB1 entirely.
        assert len(bl.results.certain) == 1
        assert len(pl.results.certain) == 1
        for report in (ca, bl, pl):
            assert not report.availability.complete
            assert report.availability.sites_skipped == ("DB1",)

    def test_ca_demotion_notes_name_the_dead_site(self, school):
        report = GlobalQueryEngine(school).execute(
            Q1_TEXT, "CA",
            options=ExecutionOptions(fault_plan=DB1_DOWN),
        )
        assert report.results.maybe, "demoted rows must survive as maybe"
        for row in report.results.maybe:
            assert any("DB1" in note for note in row.notes)
            assert any("outerjoin incomplete" in note for note in row.notes)

    def test_bl_notes_blame_the_unreachable_assistant_site(self, school):
        report = GlobalQueryEngine(school).execute(
            Q1_TEXT, "BL",
            options=ExecutionOptions(fault_plan=DB2_DOWN),
        )
        noted = {
            str(row.goid): row.notes
            for row in report.results.maybe
            if row.notes
        }
        # gs1 (John) stays maybe only because his DB2 assistant copy is
        # unreachable; gs2 is genuinely missing data and gets no note.
        assert "gs1" in noted
        assert any("DB2" in note for note in noted["gs1"])
        assert "gs2" not in noted

    def test_degradation_never_invents_certainty(self, school):
        engine = GlobalQueryEngine(school)
        for strategy in ("CA", "BL", "PL", "BL-S", "PL-S"):
            clean = engine.execute(Q1_TEXT, strategy)
            for plan in (DB1_DOWN, DB2_DOWN, DB3_DOWN):
                degraded = engine.execute(
                    Q1_TEXT, strategy,
                    options=engine.options.with_(fault_plan=plan),
                )
                assert certified_subset(degraded.results, clean.results), (
                    f"{strategy} under {plan.outages[0].site} loss "
                    "certified a row the clean run does not"
                )

    def test_auto_threads_the_fault_context_through(self, school):
        report = GlobalQueryEngine(school).execute(
            Q1_TEXT, "AUTO",
            options=ExecutionOptions(fault_plan=DB1_DOWN),
        )
        assert not report.availability.complete
        assert report.metrics.strategy.startswith("AUTO->")


class TestDeterminismAndOverhead:
    def test_same_plan_same_seed_byte_identical(self):
        # Fresh federations so both executions start with cold mapping/
        # decomposition caches — cache traffic is part of the report.
        plan = FaultPlan.from_spec("DB2@0:0.4,link:*>DB1:loss0.4", seed=11)
        first = GlobalQueryEngine(build_school_federation()).execute(
            Q1_TEXT, "BL",
            options=ExecutionOptions(fault_plan=plan, fault_seed=3),
        )
        second = GlobalQueryEngine(build_school_federation()).execute(
            Q1_TEXT, "BL",
            options=ExecutionOptions(fault_plan=plan, fault_seed=3),
        )
        assert first.to_dict() == second.to_dict()

    def test_different_fault_seed_may_differ_but_stays_valid(self, school):
        plan = FaultPlan(links=(FaultPlan.from_spec(
            "link:*>DB1:loss0.6").links[0],))
        engine = GlobalQueryEngine(school)
        clean = engine.execute(Q1_TEXT, "BL")
        for seed in range(4):
            report = engine.execute(
                Q1_TEXT, "BL",
                options=engine.options.with_(fault_plan=plan, fault_seed=seed),
            )
            # Whatever the draws did, the partial answer never certifies
            # anything the clean run does not.
            assert certified_subset(report.results, clean.results)

    def test_empty_plan_is_exactly_no_plan(self):
        """The zero-overhead contract: an inactive plan must leave the
        report byte-identical — answers AND timings.  Fresh federations
        keep cache warmth (part of the report) equal across the runs."""
        baseline = GlobalQueryEngine(build_school_federation()).execute(
            Q1_TEXT, "PL"
        )
        gated = GlobalQueryEngine(build_school_federation()).execute(
            Q1_TEXT, "PL",
            options=ExecutionOptions(fault_plan=EMPTY_PLAN),
        )
        assert gated.to_dict() == baseline.to_dict()
        assert gated.total_time == baseline.total_time
        assert gated.response_time == baseline.response_time

    def test_engine_wide_plan_applies_and_per_call_overrides(self, school):
        engine = GlobalQueryEngine(
            school,
            options=ExecutionOptions(fault_plan=DB1_DOWN),
        )
        assert not engine.execute(Q1_TEXT, "BL").availability.complete
        overridden = engine.execute(
            Q1_TEXT, "BL",
            options=engine.options.with_(fault_plan=EMPTY_PLAN),
        )
        assert overridden.availability.complete


class TestPolicies:
    def test_fail_fast_raises_unavailable(self, school):
        engine = GlobalQueryEngine(school)
        with pytest.raises(UnavailableError) as excinfo:
            engine.execute(
                Q1_TEXT, "BL",
                options=engine.options.with_(
                    fault_plan=DB1_DOWN,
                    policy="fail-fast",
                ),
            )
        assert "DB1" in str(excinfo.value)

    def test_deadline_raises_execution_timeout(self, school):
        tight = ExecutionPolicy(name="tight", deadline_s=0.05)
        with pytest.raises(ExecutionTimeout):
            GlobalQueryEngine(school).execute(
                Q1_TEXT, "CA",
                options=ExecutionOptions(fault_plan=DB1_DOWN, policy=tight),
            )

    def test_patient_policy_waits_out_short_outage(self, school):
        # DB1 recovers after 0.4s; patient retries reach past that.
        blip = FaultPlan.from_spec("DB1@0:0.4")
        report = GlobalQueryEngine(school).execute(
            Q1_TEXT, "BL",
            options=ExecutionOptions(fault_plan=blip, policy="patient"),
        )
        assert report.availability.complete
        assert report.availability.retries  # it did have to retry
        assert report.metrics.work.retries > 0


class TestObservability:
    def test_fault_artifacts_visible_everywhere(self, school):
        report = GlobalQueryEngine(school).execute(
            Q1_TEXT, "BL",
            options=ExecutionOptions(fault_plan=DB1_DOWN),
        )
        assert ("DB1", 0.0, 1e9) in report.metrics.fault_windows
        events = {event.name for event in report.metrics.events}
        assert "faults.plan" in events
        assert "fault.site_skipped" in events
        assert any(name.startswith("fault.attempt") for name in events) or \
            "fault.attempt" in events
        snapshot = report.registry.snapshot()
        assert snapshot["work.timeouts"] > 0
        chrome = report.trace.to_chrome_json()
        assert "OUTAGE DB1" in chrome
        assert report.trace.to_dict()["fault_windows"]

    def test_fault_waits_surface_in_phase_times(self, school):
        report = GlobalQueryEngine(school).execute(
            Q1_TEXT, "BL",
            options=ExecutionOptions(fault_plan=DB1_DOWN),
        )
        assert report.metrics.phase_time.get("fault", 0.0) > 0
        assert "INCOMPLETE" in report.summary()


class TestCompareAgreement:
    def test_compare_passes_when_all_degrade(self, school):
        outcomes = GlobalQueryEngine(school).compare(
            Q1_TEXT,
            options=ExecutionOptions(fault_plan=DB1_DOWN),
        )
        assert all(
            not report.availability.complete for report in outcomes.values()
        )

    def test_compare_mixed_complete_and_degraded(self, school):
        # Only the global->DB1 link is lossy: CA (which ships extents to
        # the global site) may degrade while nothing else must; either
        # way the relaxed agreement check must hold.
        plan = FaultPlan.from_spec("DB1@0:0.4")
        outcomes = GlobalQueryEngine(school).compare(
            Q1_TEXT,
            options=ExecutionOptions(fault_plan=plan, policy="patient"),
        )
        assert len(outcomes) >= 3  # no ReproError raised

    def test_added_certainty_is_rejected(self, school):
        engine = GlobalQueryEngine(school)
        clean = engine.execute(Q1_TEXT, "BL")
        degraded_ca = engine.execute(
            Q1_TEXT, "CA",
            options=engine.options.with_(fault_plan=DB1_DOWN),
        )
        # Forge the pathological pair: a "complete" run certifying
        # nothing and an "incomplete" one certifying a row.
        fake_complete = dataclasses.replace(
            degraded_ca, availability=Availability()
        )
        fake_degraded = dataclasses.replace(
            clean, availability=Availability(complete=False)
        )
        with pytest.raises(ReproError, match="added certainty"):
            GlobalQueryEngine._check_agreement(
                {"CA": fake_complete, "BL": fake_degraded}
            )

    def test_agreement_without_complete_baseline_is_vacuous(self, school):
        engine = GlobalQueryEngine(school)
        a = dataclasses.replace(
            engine.execute(Q1_TEXT, "CA"),
            availability=Availability(complete=False),
        )
        b = dataclasses.replace(
            engine.execute(
                Q1_TEXT, "BL",
                options=engine.options.with_(fault_plan=DB1_DOWN),
            ),
        )
        GlobalQueryEngine._check_agreement({"CA": a, "BL": b})  # no raise


class TestQueryTextRepr:
    def test_query_object_yields_readable_query_text(self, school):
        engine = GlobalQueryEngine(school)
        query = engine.parse(Q1_TEXT)
        report = engine.execute(query, "BL")
        assert report.query_text == str(query)
        assert report.query_text  # the old bug left this empty


class TestSurvivingSiteCosting:
    """``avg_branch_bytes`` — the per-object charge for shipped check
    replies — must average over the sites that survived negotiation,
    not every site the decomposition named."""

    def test_average_over_subset_differs_from_all_sites(self):
        from helpers import make_workload

        workload = make_workload(seed=304)
        system, query = workload.system, workload.query
        all_sites = tuple(system.databases)
        shape = system.query_shape(query)
        full = shape.branch_average(all_sites)
        per_site = {db: shape.site_size(db)[1] for db in all_sites}
        # This federation's sites store different constituent attributes,
        # so the per-site sizes differ and a subset shifts the average.
        assert len(set(per_site.values())) > 1
        assert {db: shape.branch_average([db]) for db in all_sites} == per_site
        assert full == pytest.approx(
            sum(per_site.values()) / len(per_site)
        )

    def test_no_surviving_sites_charges_nothing(self, school):
        from repro.sqlx import parse_query

        shape = school.query_shape(parse_query(Q1_TEXT))
        assert shape.branch_average([]) == 0.0
        assert shape._sizes == {}  # no site was sized

    def test_faulted_run_uses_surviving_average(self, school):
        """With DB3 down, check replies are costed at the DB1/DB2
        average — the run must not silently keep the three-site figure."""
        engine = GlobalQueryEngine(school)
        clean = engine.execute(Q1_TEXT, "BL")
        faulted = engine.execute(
            Q1_TEXT, "BL",
            options=engine.options.with_(fault_plan=DB3_DOWN),
        )
        assert faulted.availability.sites_skipped == ("DB3",)
        # Different surviving set, different byte accounting.
        assert (faulted.metrics.work.bytes_network
                != clean.metrics.work.bytes_network)
