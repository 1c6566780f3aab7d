"""Live federation evolution: plans, controller semantics, consistency.

The load-bearing guarantees:

* plans are deterministic, round-trip through JSON and the CLI spec,
  and auto entries are flagged until seeding resolves them;
* every controller transition bumps the schema epoch, and each event
  kind mutates the federation exactly as documented (add/drop/rename
  at open, join/leave membership at close);
* the flux consistency contract holds: a query straddling a window is
  annotated, and certified rows referencing an in-flux attribute are
  demoted to maybe — never a wrong certain answer;
* a formal leave makes every execution refuse the site without a retry
  ladder, and a formal rejoin is contacted again;
* an epoch bump invalidates every session's cached decompositions;
* traffic runs with an active plan verify against serial replay and
  are byte-identical across rebuilds.
"""

from __future__ import annotations

import json

import pytest

from helpers import make_workload
from repro.core.engine import GlobalQueryEngine
from repro.core.results import certified_subset, same_answers
from repro.errors import EvolutionError
from repro.evolution import (
    EvolutionController,
    EvolutionEvent,
    EvolutionPlan,
    mix_referenced_attributes,
    referenced_attributes,
    resolve_auto,
    safe_plan,
)
from repro.faults import FaultPlan
from repro.traffic import TrafficEngine, default_mix


def fresh_workload(seed: int = 1996, scale: float = 0.03):
    return make_workload(seed, scale=scale)


@pytest.fixture
def workload():
    return fresh_workload()


def plan_for(spec: str, workload, **kwargs) -> EvolutionPlan:
    plan = EvolutionPlan.from_spec(spec, **kwargs)
    return resolve_auto(plan, workload.system, workload.query)


class TestPlan:
    def test_spec_parses_concrete_entries(self):
        plan = EvolutionPlan.from_spec(
            "leave:DB2@1.0,join:DBX@2.0,add:DB1.K1.x9@0.5,"
            "drop:DB2.K1.p0@0.9,rename:K1.t1>t1r@1.5"
        )
        kinds = [e.kind for e in plan.events]
        assert kinds == [
            "site_leave", "site_join", "attr_add", "attr_drop", "attr_rename",
        ]
        assert not plan.needs_resolution
        rename = plan.events[-1]
        assert (rename.global_class, rename.attr, rename.new_name) == (
            "K1", "t1", "t1r"
        )

    def test_ordered_events_by_time_then_declaration(self):
        plan = EvolutionPlan.from_spec("leave:DB2@2.0,join:DBX@1.0")
        assert [e.kind for e in plan.ordered_events()] == [
            "site_join", "site_leave",
        ]

    def test_auto_entries_need_resolution(self):
        # Regression: auto placeholders carry "?"-sentinels, not empty
        # strings — needs_resolution must flag both forms.
        for spec in ("leave@1", "join@1", "add@1", "drop@1", "rename@1"):
            assert EvolutionPlan.from_spec(spec).needs_resolution, spec
        concrete = EvolutionPlan.from_spec("leave:DB1@1")
        assert not concrete.needs_resolution

    def test_controller_rejects_unresolved_plan(self, workload):
        plan = EvolutionPlan.from_spec("leave@1")
        with pytest.raises(EvolutionError, match="unresolved auto"):
            EvolutionController(workload.system, plan)

    def test_json_round_trip(self):
        plan = EvolutionPlan.from_spec(
            "leave:DB2@1.0,rename:K1.t1>t1r@1.5", seed=7,
            propagation_lag_s=0.25,
        )
        again = EvolutionPlan.from_json(plan.to_json())
        assert again == plan

    def test_bad_specs_rejected(self):
        for spec in ("leave", "frobnicate:DB1@1", "rename:K1.t1@1", "add:x@1"):
            with pytest.raises(EvolutionError):
                EvolutionPlan.from_spec(spec)
        with pytest.raises(EvolutionError):
            EvolutionPlan(propagation_lag_s=0.0)
        with pytest.raises(EvolutionError):
            EvolutionPlan(clone_fraction=1.5)

    def test_describe(self):
        assert EvolutionPlan().describe() == "evolve(off)"
        plan = EvolutionPlan.from_spec("leave:DB2@1")
        assert plan.describe() == "evolve(leave:DB2)"


class TestControllerKinds:
    def run_event(self, workload, spec):
        plan = plan_for(spec, workload)
        controller = EvolutionController(workload.system, plan)
        return controller

    def test_every_transition_bumps_epoch(self, workload):
        controller = self.run_event(workload, "add:DB1.K1.zz@1")
        assert workload.system.schema_epoch == 0
        opened = controller.step()
        assert (opened.phase, opened.epoch) == ("open", 1)
        assert workload.system.schema_epoch == 1
        closed = controller.step()
        assert (closed.phase, closed.epoch) == ("close", 2)
        assert workload.system.schema_epoch == 2
        assert controller.done
        with pytest.raises(EvolutionError, match="no next step"):
            controller.step()

    def test_attr_add_visible_at_open(self, workload):
        controller = self.run_event(workload, "add:DB1.K1.zz@1")
        controller.step()
        db = workload.system.db("DB1")
        local = workload.system.global_schema.constituent_class("DB1", "K1")
        assert db.schema.cls(local).has_attribute("zz")
        assert workload.system.global_schema.cls("K1").has_attribute("zz")

    def test_attr_drop_removes_values(self, workload):
        controller = self.run_event(workload, "drop:DB1.K1.t0@1")
        local = workload.system.global_schema.constituent_class("DB1", "K1")
        controller.step()
        db = workload.system.db("DB1")
        assert not db.schema.cls(local).has_attribute("t0")
        assert all(
            "t0" not in obj.values for obj in db.extent(local).values()
        )

    def test_attr_rename_moves_values(self, workload):
        system = workload.system
        sites_with_t0 = [
            ref.db_name
            for ref in system.global_schema.correspondence("K1").constituents
            if system.db(ref.db_name).schema.cls(ref.class_name)
            .has_attribute("t0")
        ]
        controller = self.run_event(workload, "rename:K1.t0>t0r@1")
        controller.step()
        for site in sites_with_t0:
            local = system.global_schema.constituent_class(site, "K1")
            cdef = system.db(site).schema.cls(local)
            assert cdef.has_attribute("t0r")
            assert not cdef.has_attribute("t0")
        assert system.global_schema.cls("K1").has_attribute("t0r")

    def test_attr_drop_forgets_its_index(self, workload):
        db = workload.system.db("DB1")
        local = workload.system.global_schema.constituent_class("DB1", "K1")
        db.create_index(local, "t0", kind="sorted")
        self.run_event(workload, "drop:DB1.K1.t0@1").step()
        assert db.indexes == {}

    def test_attr_rename_rekeys_its_index(self, workload):
        db = workload.system.db("DB1")
        local = workload.system.global_schema.constituent_class("DB1", "K1")
        db.create_index(local, "t0", kind="sorted")
        self.run_event(workload, "rename:K1.t0>t0r@1").step()
        assert db.indexes == {(local, "t0r"): "sorted"}

    def test_key_attribute_protected(self, workload):
        controller = self.run_event(workload, "drop:DB1.K1.key@1")
        with pytest.raises(EvolutionError, match="correspondence key"):
            controller.step()

    def test_site_leave_excises_at_close(self, workload):
        system = workload.system
        controller = self.run_event(workload, "leave:DB2@1")
        opened = controller.step()
        assert opened.phase == "open"
        # Open: still a member, but administratively unreachable and
        # reported departed to the engine.
        assert "DB2" in system.databases
        assert controller.in_flux_view().departed_sites == ("DB2",)
        controller.step()
        assert "DB2" not in system.databases
        assert all(
            ref.db_name != "DB2"
            for name in system.global_schema.class_names
            for ref in system.global_schema.correspondence(name).constituents
        )
        for table in system.catalog.tables():
            for goid in table.goids():
                assert "DB2" not in table.loids_of(goid)

    def test_site_join_invisible_until_close(self, workload):
        system = workload.system
        before = set(system.databases)
        plan = plan_for("join:DBX@1", workload)
        controller = EvolutionController(system, plan)
        controller.step()
        assert set(system.databases) == before
        controller.step()
        assert set(system.databases) == before | {"DBX"}
        # Cloned entities are consistent: every new LOid is registered
        # in a mapping table and loadable.
        db = system.db("DBX")
        cloned = 0
        for local in db.schema.class_names:
            for obj in db.extent(local).values():
                cloned += 1
                name = system.global_schema.global_class_of("DBX", local)
                assert system.catalog.table(name).goid_of(obj.loid) is not None
        assert cloned > 0

    def test_step_to_replays_and_refuses_backwards(self):
        a = fresh_workload()
        b = fresh_workload()
        spec = "add:DB1.K1.zz@1,rename:K1.t0>t0r@2"
        ctl_a = EvolutionController(a.system, plan_for(spec, a))
        ctl_b = EvolutionController(b.system, plan_for(spec, b))
        ctl_a.run_all()
        ctl_b.step_to(ctl_a.applied)
        assert ctl_b.applied == ctl_a.applied == 4
        assert a.system.global_schema.cls("K1").has_attribute("t0r")
        assert b.system.global_schema.cls("K1").has_attribute("t0r")
        with pytest.raises(EvolutionError, match="backwards"):
            ctl_b.step_to(1)


class TestFluxContract:
    def digestable(self, report):
        from repro.difftest.oracle import answer_digest

        return answer_digest(report.results)

    def test_straddling_query_is_annotated_and_demoted(self):
        # Seed 11's query certifies rows against the intact federation,
        # so the mid-window demotion is observable.
        workload = fresh_workload(11)
        system = workload.system
        query = workload.query
        referenced = referenced_attributes(query)

        def definers(attr):
            return [
                ref.db_name
                for ref in system.global_schema.correspondence(
                    "K1"
                ).constituents
                if system.db(ref.db_name).schema.cls(ref.class_name)
                .has_attribute(attr)
            ]

        # Drop at one of several defining sites: the query stays
        # well-formed post-close, but mid-window certifications are
        # suspect — the demotion scenario.
        site, target = next(
            (definers(attr)[0], attr)
            for attr in sorted(referenced - {"key", "ref"})
            if len(definers(attr)) >= 2
        )
        plan = plan_for(f"drop:{site}.K1.{target}@1", workload)
        controller = EvolutionController(system, plan)
        engine = GlobalQueryEngine(system, default_strategy="BL")
        session = engine.session()

        pre = session.execute(query)
        assert pre.availability.schema_epoch == 0
        assert pre.availability.epochs_straddled == ()
        assert pre.results.certain  # something to demote

        opened = controller.step()
        flux = session.execute(query)
        assert flux.availability.schema_epoch == 1
        assert flux.availability.epochs_straddled == (opened.event.label,)
        # The contract: nothing certain survives that could differ from
        # either baseline; demoted rows carry the flux note.
        assert not flux.results.certain
        assert any(
            any("uncertified: schema in flux" in n for n in row.notes)
            for row in flux.results.maybe
        )

        controller.step()
        post = session.execute(query)
        assert post.availability.schema_epoch == 2
        assert post.availability.epochs_straddled == ()
        assert (
            same_answers(flux.results, pre.results)
            or same_answers(flux.results, post.results)
            or (
                certified_subset(flux.results, pre.results)
                and certified_subset(flux.results, post.results)
            )
        )

    def test_add_does_not_demote(self, workload):
        system = workload.system
        controller = EvolutionController(
            system, plan_for("add:DB1.K1.zz@1", workload)
        )
        engine = GlobalQueryEngine(system, default_strategy="BL")
        session = engine.session()
        pre = session.execute(workload.query)
        controller.step()
        flux = session.execute(workload.query)
        assert flux.availability.epochs_straddled
        assert same_answers(flux.results, pre.results)

    def test_epoch_determinism_across_rebuilds(self):
        digests = []
        for _ in range(2):
            w = fresh_workload()
            plan = safe_plan(
                w.system, w.query, ["rename", "add", "join"], seed=5
            )
            assert plan.active
            controller = EvolutionController(w.system, plan)
            engine = GlobalQueryEngine(w.system, default_strategy="BL")
            session = engine.session()
            run = []
            run.append(self.digestable(session.execute(w.query)))
            while not controller.done:
                controller.step()
                run.append(self.digestable(session.execute(w.query)))
            digests.append(run)
        assert digests[0] == digests[1]


class TestSeeding:
    def test_safe_plan_resolves_all_kinds(self, workload):
        plan = safe_plan(
            workload.system, workload.query,
            ["join", "rename", "add", "drop"], seed=3,
        )
        assert plan.active
        assert not plan.needs_resolution
        kinds = {e.kind for e in plan.events}
        assert "site_join" in kinds
        # Resolved targets never break the workload query: renames stay
        # off referenced attributes entirely; a drop may touch one only
        # while another site still defines it (sound degradation).
        referenced = referenced_attributes(workload.query)
        system = workload.system
        for event in plan.events:
            if event.kind == "attr_rename":
                assert event.attr not in referenced
            elif event.kind == "attr_drop" and event.attr in referenced:
                definers = [
                    ref.db_name
                    for ref in system.global_schema.correspondence(
                        event.global_class
                    ).constituents
                    if system.db(ref.db_name).schema.cls(ref.class_name)
                    .has_attribute(event.attr)
                ]
                assert len(definers) >= 2
        EvolutionController(workload.system, plan).run_all()

    def test_safe_plan_is_deterministic(self, workload):
        one = safe_plan(workload.system, workload.query, ["rename"], seed=5)
        two = safe_plan(workload.system, workload.query, ["rename"], seed=5)
        assert one == two

    def test_resolve_auto_keeps_concrete_entries(self, workload):
        plan = EvolutionPlan.from_spec("leave:DB1@1,rename@2", seed=9)
        resolved = resolve_auto(plan, workload.system, workload.query)
        assert not resolved.needs_resolution
        leave = resolved.ordered_events()[0]
        assert (leave.kind, leave.site) == ("site_leave", "DB1")

    def test_mix_referenced_attributes_covers_templates(self, workload):
        mix = default_mix(workload)
        attrs = mix_referenced_attributes(mix)
        assert "key" in attrs and "t0" in attrs


class TestDepartedSite:
    """A formal leave refuses the site at once; a rejoin contacts it."""

    def leave_then_rejoin(self):
        w = fresh_workload()
        plan = EvolutionPlan.from_spec("leave:DB2@1,join:DB2@5", seed=1)
        controller = EvolutionController(w.system, plan)
        return w, controller, GlobalQueryEngine(w.system)

    def test_leave_refuses_the_site_without_a_ladder(self):
        w, controller, engine = self.leave_then_rejoin()
        controller.step()  # leave opens
        for _ in range(2):
            report = engine.execute(w.query, "BL")
            attempts = [
                e.attr_dict() for e in report.metrics.events
                if e.name == "fault.attempt"
            ]
            # The whole-execution outage on DB2 would cost a retry
            # ladder per link; the refusal costs nothing.
            assert attempts and all(
                (a["dst"], a["outcome"], a["wait_s"])
                == ("DB2", "open-circuit", "0.000000")
                for a in attempts
            )
            assert report.availability.fault_wait_s == 0.0
            assert report.availability.sites_skipped == ("DB2",)

    def test_rejoin_is_contacted_again(self):
        w, controller, engine = self.leave_then_rejoin()
        for _ in range(4):  # leave opens, closes; join opens, closes
            controller.step()
        assert "DB2" in w.system.databases
        # A plan that is active but never fires, so contacts are recorded.
        options = engine.options.with_(
            fault_plan=FaultPlan.from_spec("DB1@1e6:1")
        )
        report = engine.execute("Select X.key From K1 X", "BL", options=options)
        assert "DB2" in report.availability.sites_contacted
        assert report.availability.sites_skipped == ()
        assert report.availability.fault_wait_s == 0.0


class TestCrossSessionStaleness:
    """Satellite: an epoch bump invalidates *every* session's cache."""

    def test_other_sessions_decompositions_invalidated(self, workload):
        system = workload.system
        engine = GlobalQueryEngine(system, default_strategy="BL")
        alice = engine.session(name="alice")
        bob = engine.session(name="bob")
        alice.execute(workload.query)
        before = system._decompose_stats.hits
        bob.execute(workload.query)
        assert system._decompose_stats.hits > before  # shared cache hit
        assert system._decompose_cache

        controller = EvolutionController(
            system, plan_for("add:DB1.K1.zz@1", workload)
        )
        controller.step()  # epoch bump in "alice's" timeline
        assert not system._decompose_cache

        misses = system._decompose_stats.misses
        report = bob.execute(workload.query)
        assert system._decompose_stats.misses > misses
        assert report.availability.schema_epoch == 1

    def test_bump_epoch_implies_schema_version(self, workload):
        system = workload.system
        epoch, version = system.schema_epoch, system.schema_version
        system.bump_epoch()
        assert system.schema_epoch == epoch + 1
        assert system.schema_version == version + 1


class TestTrafficChurn:
    def churn_report(self, seed=17):
        w = fresh_workload(seed)
        mix = default_mix(w)
        plan = resolve_auto(
            EvolutionPlan.from_spec(
                "join@2,rename@4", seed=seed, propagation_lag_s=0.2
            ),
            w.system, w.query,
            extra_referenced=mix_referenced_attributes(mix),
        )
        assert plan.active
        engine = TrafficEngine(
            w.system, mix, workers=4, queries=3, seed=seed, strategy="BL",
            evolution=plan,
            system_factory=lambda: fresh_workload(seed).system,
        )
        return engine.run(verify=True)

    def test_verified_with_zero_violations(self):
        report = self.churn_report()
        assert report.verified
        assert report.violations == []
        assert report.evo_transitions == 4
        assert report.final_epoch == 4
        assert report.evolution.startswith("evolve(")

    def test_byte_identical_across_rebuilds(self):
        one = json.dumps(self.churn_report().to_dict(), sort_keys=True)
        two = json.dumps(self.churn_report().to_dict(), sort_keys=True)
        assert one == two

    def test_engine_is_single_shot_with_evolution(self):
        w = fresh_workload(17)
        mix = default_mix(w)
        plan = safe_plan(w.system, w.query, ["add"], seed=17)
        engine = TrafficEngine(
            w.system, mix, workers=2, queries=2, seed=17,
            evolution=plan,
        )
        engine.run(verify=False)
        from repro.errors import WorkloadError
        with pytest.raises(WorkloadError):
            engine.run(verify=False)
