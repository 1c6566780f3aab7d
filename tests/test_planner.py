"""Constraint-pruned adaptive planning (repro.planner).

Covers AUTO's trace event and delegation, the constraint catalog's
sound prunes, and the answer-identity contract across every planner
mode.
"""

from __future__ import annotations

import pytest

from helpers import context, make_workload
from repro.core.engine import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.query import Op, Path, Predicate, Query
from repro.core.results import same_answers
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.ids import LOid
from repro.objectdb.objects import LocalObject
from repro.objectdb.schema import ClassDef, ComponentSchema, primitive
from repro.objectdb.values import NULL, MultiValue, is_null
from repro.planner import (
    PLANNER_MODES,
    AttributeStats,
    ConstraintCatalog,
    uses_constraints,
)
from repro.planner.constraints import KIND_NUMBER
from repro.workload.paper_example import Q1_TEXT, build_school_federation


# --- AUTO's pick event --------------------------------------------------


class TestMispredictionAccounting:
    def test_auto_answers_identical_to_delegate(self):
        engine = GlobalQueryEngine(build_school_federation())
        auto = engine.execute(Q1_TEXT, "AUTO")
        choice = dict(
            [e for e in auto.metrics.events if e.name == "auto.predict"][0]
            .attrs
        )["choice"]
        direct = engine.execute(Q1_TEXT, choice)
        assert same_answers(auto.results, direct.results)

    def test_predict_event_carries_planner_and_notes(self):
        engine = GlobalQueryEngine(build_school_federation())
        report = engine.execute(
            Q1_TEXT, "AUTO",
            options=engine.options.with_(planner="constraints"),
        )
        attrs = dict(
            [e for e in report.metrics.events if e.name == "auto.predict"][0]
            .attrs
        )
        assert attrs == {
            "choice": "CA",
            "planner": "constraints",
            "unreachable": "none",
            "share": "3/9",
        }
        assert report.metrics.strategy == "AUTO->CA"


# --- tentpole: constraint catalog -------------------------------------------


class TestConstraintCatalog:
    def test_class_stats_counts_nulls_and_ranges(self):
        system = build_school_federation()
        catalog = ConstraintCatalog()
        db = system.db("DB1")
        sno = catalog.attribute_stats(db, "Student", "s-no")
        assert sno.values == 3
        assert (sno.lo, sno.hi) == (798302, 808301)
        assert sno.range_usable
        sex = catalog.attribute_stats(db, "Student", "sex")
        assert sex.nulls == 1 and not sex.range_usable
        assert sex.coverage == pytest.approx(2 / 3)
        assert catalog.attribute_stats(db, "Student", "undeclared") is None

    def test_memo_hits_and_data_version_invalidation(self):
        # The catalog keeps nothing: a repeat reads the columnar
        # extent's value index again, and a mutation drops that extent.
        system = build_school_federation()
        catalog = ConstraintCatalog()
        db = system.db("DB1")
        first = catalog.attribute_stats(db, "Student", "age")
        index = db.columnar_extent("Student").walk(Path.of("age")).index
        assert catalog.attribute_stats(db, "Student", "age") == first
        assert db.columnar_extent("Student").walk(Path.of("age")).index is index
        for obj in db.extent("Student").values():
            obj.values["age"] = 99
            break
        db.note_mutation("Student")
        fresh = catalog.attribute_stats(db, "Student", "age")
        assert fresh.hi == 99
        assert db.columnar_extent("Student").walk(Path.of("age")).index is not index

    def test_stats_equal_a_scan_of_the_column(self):
        # lo/hi keep the first of a tied run, as a min/max scan does.
        values = [1.0, True, NULL, 1, 0.5, MultiValue([])]
        schema = ComponentSchema.of("DB", [ClassDef.of("C", [primitive("a")])])
        db = ComponentDatabase(schema)
        for i, value in enumerate(values):
            db.insert(
                LocalObject(LOid("DB", f"c{i}"), "C", {"a": value}),
                validate=False,
            )
        stats = ConstraintCatalog().attribute_stats(db, "C", "a")
        assert stats == AttributeStats(
            values=6, nulls=2, multi=0, kind=KIND_NUMBER, lo=0.5, hi=1.0
        )
        assert type(stats.hi) is float
        db.insert(
            LocalObject(LOid("DB", "m"), "C", {"a": MultiValue([2])}),
            validate=False,
        )
        stats = ConstraintCatalog().attribute_stats(db, "C", "a")
        assert (stats.multi, stats.kind, stats.lo, stats.hi) == (
            1, None, None, None
        )

    def test_range_prunes_are_3vl_sound(self):
        system = build_school_federation()
        catalog = ConstraintCatalog()
        db = system.db("DB1")

        def prune(attr, op, operand):
            return catalog.predicate_all_false(
                db, "Student", Predicate.of(attr, op, operand)
            )

        # s-no in [798302, 808301], fully populated: range prunes apply.
        assert prune("s-no", Op.GE, 810000)
        assert prune("s-no", Op.GT, 808301)
        assert prune("s-no", Op.LT, 798302)
        assert prune("s-no", Op.EQ, 1)
        assert not prune("s-no", Op.GE, 808301)  # hi satisfies it
        assert not prune("s-no", Op.NE, 798302)  # lo != hi
        # EQ across kinds never raises — plain False, prunable.
        assert prune("s-no", Op.EQ, "a-string")
        # Order comparison across kinds raises QueryError: never prune.
        assert not prune("s-no", Op.GT, "a-string")
        # 'sex' has a null: any comparison is UNKNOWN there, never prune.
        assert not prune("sex", Op.EQ, "neither")
        # Reference-valued column: no scalar kind, never prune.
        assert not prune("advisor", Op.EQ, "x")

    def test_check_prune_requires_all_null_single_step(self):
        system = build_school_federation()
        catalog = ConstraintCatalog()
        db2 = system.db("DB2")
        pred = Predicate.of("speciality", Op.EQ, "database")
        assert not catalog.check_provably_unknown(db2, "Teacher", pred)
        for obj in db2.extent("Teacher").values():
            obj.values["speciality"] = NULL
        db2.note_mutation("Teacher")
        assert catalog.check_provably_unknown(db2, "Teacher", pred)
        nested = Predicate.of("department.name", Op.EQ, "CS")
        assert not catalog.check_provably_unknown(db2, "Teacher", nested)

    def test_site_prune_reason(self):
        system = build_school_federation()
        catalog = ConstraintCatalog()
        query = Query.conjunctive(
            "Student", ["name"], [Predicate.of("s-no", ">=", 810000)]
        )
        decomposed = system.decompose(query)
        reasons = {
            db: catalog.site_prune_reason(
                system.db(db), decomposed.local_queries[db]
            )
            for db in decomposed.local_queries
        }
        assert reasons["DB1"] is not None and "all-false" in reasons["DB1"]
        assert reasons["DB2"] is None

    def test_no_predicates_never_prunes(self):
        system = build_school_federation()
        catalog = ConstraintCatalog()
        query = Query.conjunctive("Student", ["name"])
        decomposed = system.decompose(query)
        for db in decomposed.local_queries:
            assert catalog.site_prune_reason(
                system.db(db), decomposed.local_queries[db]
            ) is None


# --- tentpole: planner modes end to end -------------------------------------


class TestPlannerModes:
    def test_options_validate_planner(self):
        with pytest.raises(TypeError, match="unknown planner mode"):
            ExecutionOptions(planner="psychic")
        assert ExecutionOptions(planner="constraints").planner == "constraints"
        for retired in ("feedback", "full"):
            with pytest.raises(
                TypeError,
                match=r"choose from \['static', 'constraints'\]",
            ):
                ExecutionOptions(planner=retired)

    def test_mode_predicates(self):
        assert PLANNER_MODES == ("static", "constraints")
        assert uses_constraints("constraints")
        assert not uses_constraints("static")

    @pytest.mark.parametrize("strategy", ["CA", "BL", "PL", "AUTO"])
    @pytest.mark.parametrize("mode", ["constraints"])
    def test_every_mode_answer_identical_to_static(self, strategy, mode):
        system = build_school_federation()
        engine = GlobalQueryEngine(system)
        static = engine.execute(
            Q1_TEXT, strategy, options=engine.options.with_(planner="static")
        ).results
        adaptive = engine.execute(
            Q1_TEXT, strategy, options=engine.options.with_(planner=mode)
        ).results
        assert same_answers(static, adaptive)

    def test_site_prune_fires_and_preserves_the_answer(self):
        system = build_school_federation()
        engine = GlobalQueryEngine(system)
        query = Query.conjunctive(
            "Student", ["name"], [Predicate.of("s-no", ">=", 810000)]
        )
        static = engine.execute(
            query, "BL", options=engine.options.with_(planner="static")
        )
        pruned = engine.execute(
            query, "BL", options=engine.options.with_(planner="constraints")
        )
        assert same_answers(static.results, pruned.results)
        assert static.metrics.work.sites_pruned == 0
        assert pruned.metrics.work.sites_pruned == 1
        events = [
            e for e in pruned.metrics.events if e.name == "planner.prune"
        ]
        assert dict(events[0].attrs)["site"] == "DB1"
        # The pruned run does strictly less local work.
        assert (
            pruned.metrics.work.objects_scanned
            < static.metrics.work.objects_scanned
        )

    def test_check_prune_fires_and_preserves_the_answer(self):
        system = build_school_federation()
        db2 = system.db("DB2")
        for obj in db2.extent("Teacher").values():
            obj.values["speciality"] = NULL
        db2.note_mutation("Teacher")
        engine = GlobalQueryEngine(system)
        static = engine.execute(
            Q1_TEXT, "BL", options=engine.options.with_(planner="static")
        )
        pruned = engine.execute(
            Q1_TEXT, "BL", options=engine.options.with_(planner="constraints")
        )
        assert same_answers(static.results, pruned.results)
        assert static.metrics.work.checks_pruned == 0
        assert pruned.metrics.work.checks_pruned >= 1
        assert (
            pruned.metrics.work.assistants_checked
            < static.metrics.work.assistants_checked
        )

    def test_catalog_refreshes_after_mutation(self):
        """A stale range must never mask a fresh value: after inserting
        a matching object at the pruned site, the prune stops firing."""
        system = build_school_federation()
        engine = GlobalQueryEngine(system)
        query = Query.conjunctive(
            "Student", ["name"], [Predicate.of("s-no", ">=", 810000)]
        )
        opts = engine.options.with_(planner="constraints")
        first = engine.execute(query, "BL", options=opts)
        assert first.metrics.work.sites_pruned == 1
        system.register_entity(
            "Student",
            {"DB1": {"s-no": 888888, "name": "Zoe"}},
        )
        second = engine.execute(query, "BL", options=opts)
        assert second.metrics.work.sites_pruned == 0
        names = sorted(
            str(list(r.bindings.values())[0])
            for r in second.results.certain
        )
        assert names == ["Fanny", "Zoe"]
