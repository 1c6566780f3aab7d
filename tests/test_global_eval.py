"""CA's global site on the columnar kernels: kernel = reference, no stale read.

``evaluate_global`` (production: value-indexed compare kernel over the
root class of a materialized extent) against ``evaluate_global_extent``
(the per-object body it replaced, now in ``repro.difftest.reference``),
and the reuse of merged extents inside ``materialize`` against a merge
made afresh.
"""

import dataclasses
import math
import random

import pytest

from helpers import make_workload
from repro.conditions.recertify import CentralizedRepairState
from repro.core.decompose import attributes_needed_by_class
from repro.core.engine import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.predicates import EvalMeter
from repro.core.query import Op, Path, Predicate, Query
from repro.core.strategies.centralized import evaluate_global
from repro.difftest.reference import (
    evaluate_global_extent,
    record_difference,
    shadowed_global_evaluation,
)
from repro.errors import QueryError
from repro.evolution import EvolutionPlan, resolve_auto
from repro.evolution.controller import EvolutionController
from repro.faults import FaultPlan
from repro.integration import outerjoin
from repro.integration.outerjoin import GlobalExtent, REUSED_SHAPES
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.objects import IntegratedObject, LocalObject
from repro.objectdb.values import MultiValue, NULL
from repro.traffic import default_mix
from repro.workload.paper_example import Q1_TEXT


# --- kernel = reference ------------------------------------------------------


def extent_of(**classes):
    """A materialized extent from ``Class={goid: values}`` literals."""
    extent = GlobalExtent()
    for class_name, rows in classes.items():
        extent.install(class_name, {
            GOid(goid): IntegratedObject(GOid(goid), class_name, dict(values))
            for goid, values in rows.items()
        })
    return extent


def school():
    """C(a, b, tags, ref -> D(x, more -> E(y))), installed out of GOid order.

    Nested paths run through the branch classes D and E; ``c4`` dangles
    (its D was never shipped), ``c6`` keeps an LOid no mapping table
    translated, ``c5`` misses everything.
    """
    return extent_of(
        C={
            "c3": {"a": 3, "b": NULL, "tags": MultiValue([3]),
                   "ref": GOid("d3")},
            "c1": {"a": 1, "b": "p", "tags": MultiValue([1, 2]),
                   "ref": GOid("d1")},
            "c7": {"a": 5, "b": "r", "tags": MultiValue(["x", 2]),
                   "ref": GOid("d1")},
            "c2": {"a": NULL, "b": "q", "ref": GOid("d2")},
            "c6": {"a": 5, "b": "p", "ref": LOid("DB1", "d9")},
            "c4": {"a": 1, "b": "p", "ref": GOid("ghost")},
            "c5": {},
        },
        D={
            "d1": {"x": 10, "more": GOid("e1")},
            "d2": {"x": NULL, "more": GOid("e2")},
            "d3": {"x": 30},
        },
        E={"e1": {"y": 1.5}, "e2": {"y": NULL}},
    )


def pred(path, op, operand):
    return Predicate(path=Path.parse(path), op=op, operand=operand)


def query_of(where, targets=("b", "ref.x")):
    return Query.disjunctive("C", targets, where) if where else (
        Query.conjunctive("C", targets)
    )


def outcome(evaluate, query, extent):
    """``(ResultSet, EvalMeter)``, or the (type, message) raised."""
    meter = EvalMeter()
    try:
        return evaluate(query, extent, meter), meter
    except Exception as exc:
        return type(exc), str(exc)


def assert_global_is_reference(query, extent):
    got = outcome(evaluate_global, query, extent)
    want = outcome(evaluate_global_extent, query, extent)
    if isinstance(got[0], type):
        assert got == want
    else:
        assert record_difference(got, want) is None
    return got


A_EQ_1 = pred("a", Op.EQ, 1)
X_GE_10 = pred("ref.x", Op.GE, 10)
Y_LT_2 = pred("ref.more.y", Op.LT, 2)

WHERES = {
    "no-predicates": (),
    "eq-tie": ((A_EQ_1,),),
    "ne": ((pred("a", Op.NE, 5),),),
    "le-tie": ((pred("a", Op.LE, 3),),),
    "ge-tie": ((pred("a", Op.GE, 3),),),
    "lt-between": ((pred("a", Op.LT, 4),),),
    "gt-above-all": ((pred("a", Op.GT, 99),),),
    "float-operand-on-ints": ((pred("a", Op.LE, 1.0),),),
    "bool-operand": ((pred("a", Op.EQ, True),),),
    "string-column": ((pred("b", Op.GE, "q"),),),
    "nested": ((X_GE_10,),),
    "nested-twice": ((Y_LT_2,),),
    "conjunction": ((A_EQ_1, X_GE_10),),
    "contains": ((pred("tags", Op.CONTAINS, 2),),),
    "not-contains": ((pred("tags", Op.NOT_CONTAINS, 2),),),
    "multi-valued-existential": ((pred("tags", Op.EQ, 3),),),
    "nan-operand": ((pred("a", Op.LT, math.nan),),),
    "nan-operand-ne": ((pred("a", Op.NE, math.nan),),),
    "wrong-kind-eq": ((pred("a", Op.EQ, "1"),),),
    "dnf": ((A_EQ_1, X_GE_10), (Y_LT_2,)),
    "dnf-repeated-predicate": ((A_EQ_1, X_GE_10), (X_GE_10, Y_LT_2)),
    "dnf-repeated-in-one-conjunct": ((X_GE_10, X_GE_10), (A_EQ_1,)),
    # ref.x >= 10 comes second in one conjunct and first in the other.
    "dnf-unsolved-order": ((pred("a", Op.EQ, 7), X_GE_10), (X_GE_10, A_EQ_1)),
}


class TestKernelIsReference:
    @pytest.mark.parametrize("name", sorted(WHERES))
    def test_where_clauses(self, name):
        assert_global_is_reference(query_of(WHERES[name]), school())

    @pytest.mark.parametrize("targets", [
        ("a",), ("tags", "b"), ("ref",), ("ref.more.y", "ref.x", "a"),
    ])
    def test_targets(self, targets):
        query = query_of(WHERES["dnf"], targets)
        results, _meter = assert_global_is_reference(query, school())
        assert len(results)

    def test_rows_and_errors_follow_goid_order_not_install_order(self):
        results, _ = assert_global_is_reference(query_of(()), school())
        goids = [r.goid.value for r in results.certain]
        assert goids == sorted(goids) and len(goids) == 7

    def test_unsolved_is_first_occurrence_among_unknown_conjuncts(self):
        # c2 misses a and ref.x: both conjuncts are UNKNOWN.  c4 holds
        # a = 1 and a dangling ref: the first conjunct is FALSE, so only
        # the second one's UNKNOWN predicate is unsolved.
        query = query_of(WHERES["dnf-unsolved-order"])
        results, _ = assert_global_is_reference(query, school())
        by_goid = {r.goid.value: r for r in results.maybe}
        assert by_goid["c4"].unsolved == (X_GE_10,)
        assert by_goid["c2"].unsolved == (pred("a", Op.EQ, 7), X_GE_10, A_EQ_1)
        assert [c.attr for c in by_goid["c4"].conditions] == [str(X_GE_10)]

    def test_meter_is_what_an_object_by_object_scan_is_charged(self):
        query = query_of(WHERES["dnf-repeated-predicate"])
        (_, meter), (_, expected) = (
            outcome(evaluate, query, school())
            for evaluate in (evaluate_global, evaluate_global_extent)
        )
        assert (meter.comparisons, meter.derefs) == (
            expected.comparisons, expected.derefs
        )
        assert meter.comparisons and meter.derefs

    def test_nan_value_in_the_column(self):
        extent = extent_of(C={
            "c1": {"a": math.nan}, "c2": {"a": 2}, "c3": {"a": 1},
        })
        for op in (Op.EQ, Op.NE, Op.LT, Op.GE):
            assert_global_is_reference(
                query_of(((pred("a", op, 2),),), ("a",)), extent
            )

    def test_mixed_kind_column(self):
        extent = extent_of(C={
            "c1": {"a": "one"}, "c2": {"a": 2}, "c3": {"a": 2.0},
        })
        assert_global_is_reference(
            query_of(((pred("a", Op.EQ, 2),),), ("a",)), extent
        )
        got = assert_global_is_reference(
            query_of(((pred("a", Op.LT, 3),),), ("a",)), extent
        )
        assert got[0] is QueryError  # 'one' < 3, met first in GOid order


class TestErrors:
    def bad_school(self, **c_rows):
        extent = school()
        rows = {
            goid.value: obj.values for goid, obj in extent.extent("C").items()
        }
        rows.update(c_rows)
        return extent_of(
            C=rows,
            D={g.value: o.values for g, o in extent.extent("D").items()},
            E={g.value: o.values for g, o in extent.extent("E").items()},
        )

    def test_operand_of_the_wrong_kind_raises_at_the_first_goid(self):
        got = assert_global_is_reference(
            query_of(((pred("a", Op.LT, "x"),),)), school()
        )
        assert got[0] is QueryError and "1" in got[1]  # c1, not c3

    def test_non_reference_mid_path(self):
        extent = self.bad_school(
            c3={"a": 3, "ref": "not-a-ref"}, c0={"a": 0, "ref": 17},
        )
        got = assert_global_is_reference(query_of(((X_GE_10,),)), extent)
        assert got[0] is QueryError and "17" in got[1]  # c0 sorts first

    def test_contains_on_a_scalar(self):
        got = assert_global_is_reference(
            query_of(((pred("a", Op.CONTAINS, 1),),)), school()
        )
        assert got == (QueryError, "contains requires a multi-valued attribute")

    def test_where_error_precedes_an_earlier_rows_target_error(self):
        # c0's Where raises before c1's target walk would.
        extent = self.bad_school(c0={"a": "zero"}, c1={"a": 1, "ref": 5})
        got = assert_global_is_reference(
            query_of(((pred("a", Op.LT, 2),),)), extent
        )
        assert got[0] is QueryError and "'zero'" in got[1]

    def test_target_walk_error_on_a_survivor(self):
        extent = self.bad_school(c1={"a": 1, "ref": 5})
        got = assert_global_is_reference(query_of(((A_EQ_1,),)), extent)
        assert got[0] is QueryError and "non-reference" in got[1]

    def test_target_walk_error_on_an_eliminated_row_is_harmless(self):
        extent = self.bad_school(c3={"a": 3, "ref": 5})
        results, _ = assert_global_is_reference(
            query_of(((A_EQ_1,),)), extent
        )
        assert GOid("c3") not in {r.goid for r in results.all_results()}

    def test_the_shadow_compares_both_ways(self, monkeypatch):
        from repro.core.strategies import centralized

        extent, query = school(), query_of(WHERES["dnf"])
        differences = []
        with shadowed_global_evaluation(differences):
            centralized.evaluate_global(query, extent, EvalMeter())
            with pytest.raises(QueryError):
                centralized.evaluate_global(
                    query_of(((pred("a", Op.LT, "x"),),)), extent, EvalMeter()
                )
        assert differences == []
        assert centralized.evaluate_global is evaluate_global
        # Evaluating in extent (install) order is caught; CA-vs-BL,
        # which compares answers as sets, would not see it.
        monkeypatch.setattr(
            GlobalExtent, "view",
            lambda self, name: outerjoin.ColumnarExtent(
                name, list(self.extent(name)),
                list(self.extent(name).values()), self.deref, None,
            ),
        )
        with shadowed_global_evaluation(differences):
            centralized.evaluate_global(query, extent, EvalMeter())
        assert len(differences) == 1
        assert differences[0].startswith("evaluate_global: result[0].maybe[0].goid")


class TestNothingOperandKeyedIsRetained:
    def test_200_distinct_operands_leave_the_view_as_it_was(self):
        extent = school()
        view = extent.view("C")

        def cached():
            return {
                name: len(value) for name, value in vars(view).items()
                if isinstance(value, dict)
            }

        evaluate_global(query_of(WHERES["dnf"]), extent, EvalMeter())
        before = cached()
        assert before["_walks"] == 4 and before["_preds"] == 0
        for operand in range(200):
            where = ((pred("a", Op.LE, operand), X_GE_10),
                     (pred("ref.more.y", Op.LT, operand / 7),))
            evaluate_global(query_of(where), extent, EvalMeter())
        assert cached() == before
        assert extent.view("C") is view

    def test_a_site_and_the_global_site_share_one_builder(self):
        view = school().view("C")
        assert view.predicate_column(A_EQ_1) is view.predicate_column(A_EQ_1)
        built = view.build_compare(A_EQ_1)
        assert built is not view.predicate_column(A_EQ_1)
        assert built.codes == view.predicate_column(A_EQ_1).codes
        where = WHERES["dnf-repeated-predicate"]
        assert (
            view.build_dnf(where, view.build_compare).codes
            == view.dnf_summary(where).codes
        )


# --- no stale read ------------------------------------------------------------


def ca_session(system):
    return GlobalQueryEngine(system).session("ca", strategy="CA")


def assert_same_report(got, want):
    """Answers, conditions, every work counter, sim times, events, spans."""
    assert record_difference(got.results, want.results) is None
    for report in (got, want):
        assert report.metrics.work.comparisons > 0
    assert dataclasses.asdict(got.metrics) == dataclasses.asdict(want.metrics)
    assert got.availability == want.availability


def assert_warm_is_fresh(session, query, rebuild, **execute):
    """*session*'s federation may reuse every merge it ever made;
    *rebuild* returns the same federation built (and mutated) anew, which
    has none.  Both run under the shadow, which also compares each extent
    and its ``IntegrationStats`` with a fresh merge of the same exports.
    """
    differences = []
    with shadowed_global_evaluation(differences):
        first = session.execute(query, **execute)
        again = session.execute(query, **execute)
        fresh = ca_session(rebuild()).execute(query, **execute)
    assert differences == []
    assert_same_report(first, fresh)
    assert_same_report(again, fresh)
    return first


def some_root_object(system, query):
    db_name = system.global_schema.databases_of(query.range_class)[0]
    local = system.global_schema.constituent_class(db_name, query.range_class)
    return db_name, next(iter(system.db(db_name).extent(local).values()))


def degrade_without(site):
    return ExecutionOptions(
        fault_plan=FaultPlan.from_spec(f"{site}@0:1e9"), policy="degrade"
    )


class TestNoStaleRead:
    def test_insert_mutation_and_registration(self):
        workload = make_workload(1996)
        query, root = workload.query, workload.query.range_class
        attr = query.where[0][0].path.first

        def insert(system):
            db_name, template = some_root_object(system, query)
            loid = LOid(db_name, "inserted")
            system.db(db_name).insert(LocalObject(
                loid, template.class_name, dict(template.values)
            ), validate=False)
            system.catalog.table(root).add(GOid("g-inserted"), loid)

        def mutate_in_place(system):
            db_name, obj = some_root_object(system, query)
            obj.values[attr] = NULL
            system.note_mutation(db_name, obj)

        def register(system):
            db_name, _ = some_root_object(system, query)
            key = system.global_schema.key_attribute(root)
            system.register_entity(root, {db_name: {key: 10**9, attr: 0}})

        session = ca_session(workload.system)
        applied = []

        def rebuild():
            system = make_workload(1996).system
            for mutate in applied:
                mutate(system)
            return system

        sizes = [len(assert_warm_is_fresh(session, query, rebuild).results)]
        for mutate in (insert, mutate_in_place, register):
            mutate(workload.system)
            applied.append(mutate)
            sizes.append(
                len(assert_warm_is_fresh(session, query, rebuild).results)
            )
        assert len(set(sizes)) > 1  # the mutations reached the answer

    @pytest.mark.parametrize("spec", [
        "join@1", "leave@1", "rename@1", "drop@1", "add@1",
        "join@1,add@2,rename@3,drop@4,leave@5",
    ])
    def test_every_evolution_transition(self, spec):
        workload = make_workload(1996)
        query = workload.query
        plan = resolve_auto(
            EvolutionPlan.from_spec(spec, seed=7), workload.system, query
        )
        session = ca_session(workload.system)
        assert_warm_is_fresh(session, query, lambda: make_workload(1996).system)
        controller = EvolutionController(workload.system, plan)
        while not controller.done:
            controller.step()

            def rebuild():
                system = make_workload(1996).system
                EvolutionController(system, plan).step_to(controller.applied)
                return system

            assert_warm_is_fresh(session, query, rebuild)
        assert controller.applied == 2 * len(plan.events)

    def test_outage_and_repair(self):
        workload = make_workload(1996)
        query = workload.query
        session = ca_session(workload.system)

        def rebuild():
            return make_workload(1996).system

        baseline = assert_warm_is_fresh(session, query, rebuild)
        down = workload.system.site_names[-1]
        degraded = assert_warm_is_fresh(
            session, query, rebuild, options=degrade_without(down)
        )
        assert not degraded.results.certain and degraded.results.maybe
        state = degraded.repair
        assert isinstance(state, CentralizedRepairState)
        assert state.skipped_sites == (down,)
        shipped = {
            cls: {site: list(objs) for site, objs in by_site.items()}
            for cls, by_site in state.exports_by_class.items()
        }
        differences = []
        with shadowed_global_evaluation(differences):
            repaired = session.recertify(degraded)
        assert differences == []
        assert repaired.repair is None
        assert record_difference(repaired.results, baseline.results) is None
        # The state round-trips unchanged: a repair reads it, never edits it.
        assert state.exports_by_class == shipped
        assert state.skipped_sites == (down,)
        # Neither the partial extent nor the repaired one is what a later
        # fault-free run is served.
        assert_same_report(
            assert_warm_is_fresh(session, query, rebuild), baseline
        )

    def test_a_resumed_run_merges_the_exports_it_was_handed(self, monkeypatch):
        workload = make_workload(1996)
        session = ca_session(workload.system)
        session.execute(workload.query)
        degraded = session.execute(
            workload.query,
            options=degrade_without(workload.system.site_names[-1]),
        )
        merges = count_merges(monkeypatch)
        session.recertify(degraded)
        assert merges  # not served from the fault-free run's extent


def count_merges(monkeypatch):
    """The classes ``integrate_class`` is asked to merge from here on."""
    merged = []
    integrate = outerjoin.integrate_class

    def counting(global_class, *args, **kwargs):
        merged.append(global_class)
        return integrate(global_class, *args, **kwargs)

    monkeypatch.setattr(outerjoin, "integrate_class", counting)
    return merged


def count_projections(monkeypatch):
    """The objects ``LocalObject.project`` copies from here on."""
    projected = []
    project = LocalObject.project

    def counting(self, attributes):
        projected.append(self.loid)
        return project(self, attributes)

    monkeypatch.setattr(LocalObject, "project", counting)
    return projected


class TestReuse:
    def test_alternating_templates_merge_once_per_shape(self, monkeypatch):
        workload = make_workload(1996)
        system = workload.system
        templates = [entry.template for entry in default_mix(workload).entries]
        assert [t.name for t in templates] == ["point", "scan", "paper"]
        session = ca_session(system)
        merges = count_merges(monkeypatch)
        rng = random.Random(5)
        shapes = set()
        for _ in range(6):
            for template in templates:
                query = template.instantiate(rng).query
                classes = (query.range_class,) + query.branch_classes(
                    system.global_schema.schema
                )
                shape = tuple(attributes_needed_by_class(
                    query, system.global_schema, classes
                ).items())
                before = len(merges)
                report = session.execute(query)
                assert report.metrics.work.comparisons > 0
                assert merges[before:] == (
                    [] if shape in shapes else list(classes)
                ), template.name
                shapes.add(shape)
        # point and scan project the same attributes: one shape.
        assert len(shapes) == len(system.merged_extents()) == 2

    def test_a_hit_charges_what_the_merge_was_charged(self):
        workload = make_workload(1996)
        session = ca_session(workload.system)
        first = session.execute(workload.query)
        second = session.execute(workload.query)
        assert_same_report(second, first)
        integrate, = (
            e for e in second.metrics.events if e.name == "ca.integrate"
        )
        assert int(integrate.attr_dict()["outerjoin_comparisons"]) > 0
        assert second.metrics.work.cache_hits > 0

    def test_a_hit_projects_nothing_and_charges_in_full(self, monkeypatch):
        workload = make_workload(1996)
        system = workload.system
        session = ca_session(system)
        projected = count_projections(monkeypatch)
        runs = []
        for _ in range(2):
            before, probes = len(projected), system.catalog.cache_stats()
            report = session.execute(workload.query)
            runs.append((
                report, len(projected) - before,
                system.catalog.cache_stats().delta(probes),
            ))
        (miss, miss_projected, miss_probes), (hit, hit_projected, hit_probes) = runs
        work = miss.metrics.work
        assert miss_projected == work.objects_shipped > 0
        assert hit_projected == 0
        for name in ("objects_scanned", "objects_shipped", "bytes_disk",
                     "bytes_network", "messages"):
            assert getattr(hit.metrics.work, name) == getattr(work, name)
        assert hit_probes == miss_probes and miss_probes.lookups > 0

        def integrate_event(report):
            event, = (
                e for e in report.metrics.events if e.name == "ca.integrate"
            )
            return event.attr_dict()

        assert integrate_event(hit) == integrate_event(miss)
        assert [(s.name, s.site, s.duration) for s in hit.metrics.spans] == [
            (s.name, s.site, s.duration) for s in miss.metrics.spans
        ]
        assert any(s.name.startswith("CA_C1 project") for s in hit.metrics.spans)
        assert hit.metrics.total_time == miss.metrics.total_time
        assert hit.metrics.response_time == miss.metrics.response_time
        assert_same_report(hit, miss)

    def test_a_degraded_run_stores_copies_not_live_objects(self, school):
        engine = GlobalQueryEngine(school)
        degraded = engine.execute(
            Q1_TEXT, "CA",
            options=ExecutionOptions(fault_plan=FaultPlan.single_site_loss("DB2")),
        )
        stored = degraded.repair.exports_by_class
        shipped = [
            (site, obj)
            for by_site in stored.values()
            for site, objs in by_site.items()
            for obj in objs
        ]
        assert shipped and {site for site, _ in shipped} == {"DB1", "DB3"}
        for by_site in stored.values():
            assert all(type(objs) is list for objs in by_site.values())
        for site, obj in shipped:
            assert type(obj) is LocalObject
            assert obj is not school.db(site).get(obj.loid)
        snapshot = [(obj.loid, dict(obj.values)) for _, obj in shipped]

        site, copy = next((s, o) for s, o in shipped if o.values)
        live = school.db(site).get(copy.loid)
        attr = next(iter(copy.values))
        version = school.db(site).data_version
        live.values[attr] = "written after the degraded run"
        school.note_mutation(site, live)
        assert school.db(site).data_version > version

        repaired = engine.recertify(degraded)
        assert repaired.repair_summary.fully_repaired
        assert [(obj.loid, dict(obj.values)) for _, obj in shipped] == snapshot
        assert copy.values[attr] != live.values[attr]

    def test_the_store_is_bounded_and_dropped_wholesale(self):
        workload = make_workload(1996)
        system, query = workload.system, workload.query
        session = ca_session(system)
        paths = [p.path for p in query.where[0]] + list(query.targets)
        shapes = set()
        for width in range(1, len(paths) + 1):
            shaped = Query.conjunctive(
                query.range_class, paths[:width], query.where[0][:1]
            )
            session.execute(shaped)
            shapes.add(tuple(sorted(
                system.involved_attribute_count(shaped, cls)
                for cls in system.global_schema.schema.class_names
            )))
            assert 1 <= len(system.merged_extents()) <= REUSED_SHAPES
        assert len(shapes) > REUSED_SHAPES  # so the store did overflow
        store = system.merged_extents()
        assert store and system.merged_extents() is store
        system.bump_schema_version()
        assert system.merged_extents() == {}
