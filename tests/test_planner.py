"""Constraint-pruned, trace-fed adaptive planning (repro.planner).

Covers the stride-based null-ratio sampler (and the AUTO flip the
first-N bias caused), the constraint catalog's sound prunes, trace
feedback folding, misprediction accounting, and the answer-identity
contract across every planner mode.
"""

from __future__ import annotations

import pytest

from helpers import context, make_workload
from repro.core.engine import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.query import Op, Path, Predicate, Query
from repro.core.results import same_answers
from repro.core.strategies.adaptive import (
    NULL_RATIO_CAP,
    NULL_SAMPLE_SIZE,
    AdaptiveStrategy,
    NullRatioSample,
    _sampled_null_ratio,
    extract_params_ex,
)
from repro.faults.plan import FaultPlan, LinkFault
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.ids import LOid
from repro.objectdb.objects import LocalObject
from repro.objectdb.schema import ClassDef, ComponentSchema, primitive
from repro.objectdb.values import NULL, MultiValue, is_null
from repro.planner import (
    PLANNER_MODES,
    AttributeStats,
    ConstraintCatalog,
    PlannerFeedback,
    uses_constraints,
    uses_feedback,
)
from repro.planner.constraints import KIND_NUMBER
from repro.planner.feedback import SLOWDOWN_CAP
from repro.workload.paper_example import Q1_TEXT, build_school_federation


# --- satellite 2: stride null-ratio sampling --------------------------------


def _first_n_ratio(db, class_name, attributes):
    """The pre-fix first-N sampler, reimplemented for comparison."""
    seen = nulls = 0
    for obj in db.extent(class_name).values():
        for attr in attributes:
            seen += 1
            if is_null(obj.get(attr)):
                nulls += 1
        if seen >= NULL_SAMPLE_SIZE * len(attributes):
            break
    return nulls / seen if seen else 0.0


def _null_the_tails(workload):
    """Null every predicate attribute beyond the first NULL_SAMPLE_SIZE
    insertion-ordered objects of every queried extent."""
    system, query = workload.system, workload.query
    schema = system.global_schema
    chain = [query.range_class] + list(query.branch_classes(schema.schema))
    pred_attrs = {p.path.last for p in query.all_predicates()}
    for db_name in system.databases:
        db = system.db(db_name)
        for global_cls in chain:
            local = schema.constituent_class(db_name, global_cls)
            if local is None:
                continue
            for obj in list(db.extent(local).values())[NULL_SAMPLE_SIZE:]:
                for attr in pred_attrs:
                    if attr in obj.values:
                        obj.values[attr] = NULL
            db.note_mutation(local)


class TestNullRatioSampling:
    def test_stride_sees_the_skewed_tail(self):
        """First-N reads insertion order and misses a null-heavy tail;
        the stride samples the whole extent."""
        w = make_workload(seed=7)
        _null_the_tails(w)
        schema = w.system.global_schema
        local = schema.constituent_class("DB1", w.query.range_class)
        db = w.system.db("DB1")
        sample = _sampled_null_ratio(db, local, ["p0"])
        assert sample.ratio > 0.5
        assert _first_n_ratio(db, local, ["p0"]) == 0.0

    def test_stride_is_deterministic_and_bounded(self):
        w = make_workload(seed=7)
        schema = w.system.global_schema
        local = schema.constituent_class("DB1", w.query.range_class)
        db = w.system.db("DB1")
        a = _sampled_null_ratio(db, local, ["p0"])
        b = _sampled_null_ratio(db, local, ["p0"])
        assert a == b
        assert a.objects_sampled <= NULL_SAMPLE_SIZE

    def test_clamp_is_surfaced_not_silent(self):
        """An all-null column reports raw 1.0, clamped flag set, and an
        extraction note."""
        system = build_school_federation()
        db = system.db("DB2")
        for obj in db.extent("Teacher").values():
            obj.values["speciality"] = NULL
        db.note_mutation("Teacher")
        sample = _sampled_null_ratio(db, "Teacher", ["speciality"])
        assert sample.raw_ratio == pytest.approx(1.0)
        assert sample.clamped
        assert sample.ratio == pytest.approx(NULL_RATIO_CAP)
        from repro.sqlx import parse_query
        _params, notes = extract_params_ex(system, parse_query(Q1_TEXT))
        assert any("null-ratio clamp" in note for note in notes)

    def test_empty_inputs(self):
        system = build_school_federation()
        db = system.db("DB1")
        assert _sampled_null_ratio(db, "Student", []) == NullRatioSample(
            0.0, 0.0, False, 0
        )

    def test_biased_sampler_flipped_the_auto_pick(self, monkeypatch):
        """Regression: with a null-skewed tail the first-N sampler saw a
        phantom fully-populated federation and picked a localized
        strategy; whole-extent sampling flips the pick (seed 14: to CA).
        Both picks stay answer-identical — only the cost moves."""
        import repro.core.strategies.adaptive as adaptive

        w = make_workload(seed=14)
        _null_the_tails(w)
        system, query = w.system, w.query

        stride_pred = AdaptiveStrategy().predict(
            system, query, context()
        ).predictions
        stride_pick = min(stride_pred, key=stride_pred.get)

        def first_n(db, class_name, attributes):
            if not attributes:
                return NullRatioSample(0.0, 0.0, False, 0)
            ratio = _first_n_ratio(db, class_name, attributes)
            return NullRatioSample(
                min(ratio, NULL_RATIO_CAP), ratio,
                ratio > NULL_RATIO_CAP, NULL_SAMPLE_SIZE,
            )

        monkeypatch.setattr(adaptive, "_sampled_null_ratio", first_n)
        biased_pred = AdaptiveStrategy().predict(
            system, query, context()
        ).predictions
        biased_pick = min(biased_pred, key=biased_pred.get)
        monkeypatch.undo()

        assert biased_pick != stride_pick
        assert stride_pick == "CA" and biased_pick == "BL"
        engine = GlobalQueryEngine(system)
        left = engine.execute(query, stride_pick).results
        right = engine.execute(query, biased_pick).results
        assert same_answers(left, right)


# --- satellite 3: misprediction accounting ----------------------------------


class TestMispredictionAccounting:
    def test_auto_outcome_event_records_predicted_vs_actual(self):
        engine = GlobalQueryEngine(build_school_federation())
        report = engine.execute(Q1_TEXT, "AUTO")
        outcomes = [
            e for e in report.metrics.events if e.name == "auto.outcome"
        ]
        assert len(outcomes) == 1
        attrs = dict(outcomes[0].attrs)
        assert attrs["choice"] in ("CA", "BL", "PL")
        assert float(attrs["predicted_s"]) > 0.0
        assert float(attrs["actual_s"]) > 0.0
        rank = int(attrs["rank_of_actual"])
        assert 1 <= rank <= 3
        assert attrs["mispredicted"] == ("true" if rank > 1 else "false")

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
            options=engine.options.with_(planner="feedback"),
        )
        attrs = dict(
            [e for e in report.metrics.events if e.name == "auto.predict"][0]
            .attrs
        )
        assert attrs["planner"] == "feedback"
        # No prior observations: feedback mode behaves statically.
        assert attrs["used_feedback"] == "false"
        assert "notes" in attrs


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
        assert ExecutionOptions(planner="full").planner == "full"

    def test_mode_predicates(self):
        assert PLANNER_MODES == ("static", "feedback", "constraints", "full")
        assert uses_constraints("constraints") and uses_constraints("full")
        assert not uses_constraints("feedback")
        assert uses_feedback("feedback") and uses_feedback("full")
        assert not uses_feedback("static")

    @pytest.mark.parametrize("strategy", ["CA", "BL", "PL", "AUTO"])
    @pytest.mark.parametrize("mode", ["feedback", "constraints", "full"])
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


# --- tentpole: trace-fed feedback -------------------------------------------


class _StubNegotiation:
    def __init__(self, ok, wait_s):
        self.ok = ok
        self.wait_s = wait_s


class _StubInjector:
    def __init__(self, memo):
        self._memo = memo


class _StubCtx:
    def __init__(self, memo):
        self.injector = _StubInjector(memo)


class TestPlannerFeedback:
    def test_entry_and_peer_buckets(self):
        fb = PlannerFeedback()
        fb.observe_execution(_StubCtx({
            ("GPS", "DB1"): _StubNegotiation(True, 0.2),
            ("DB2", "DB1"): _StubNegotiation(True, 0.6),
        }), None, "GPS")
        assert fb.entry_stalls() == {"DB1": pytest.approx(0.2)}
        assert fb.peer_stalls() == {"DB1": pytest.approx(0.6)}
        assert fb.has_data

    def test_zero_wait_failures_do_not_dilute_the_ewma(self):
        """A departed site's refused contacts synthesize failed
        negotiations with zero wait; folding them would dilute the stall
        EWMA, so the feedback fold skips them."""
        fb = PlannerFeedback()
        fb.observe_execution(_StubCtx({
            ("GPS", "DB1"): _StubNegotiation(True, 1.0),
        }), None, "GPS")
        for _ in range(5):
            fb.observe_execution(_StubCtx({
                ("GPS", "DB1"): _StubNegotiation(False, 0.0),
            }), None, "GPS")
        assert fb.entry_stalls() == {"DB1": pytest.approx(1.0)}
        record = fb.site("DB1")
        assert record.entry_failures == 5 and record.entry_successes == 1

    def test_unreliable_sites_require_zero_successes(self):
        fb = PlannerFeedback()
        fb.observe_execution(_StubCtx({
            ("GPS", "DB1"): _StubNegotiation(False, 0.5),
            ("GPS", "DB2"): _StubNegotiation(True, 0.1),
        }), None, "GPS")
        assert fb.unreliable_sites() == ("DB1",)
        fb.observe_execution(_StubCtx({
            ("GPS", "DB1"): _StubNegotiation(True, 0.5),
        }), None, "GPS")
        assert fb.unreliable_sites() == ()

    def test_slowdown_multiplier_is_capped(self):
        fb = PlannerFeedback()
        record = fb.site("GPS")
        record.slowdown_ewma = 40.0
        record.slowdown_samples = 3
        assert fb.site_multipliers()["GPS"] == pytest.approx(SLOWDOWN_CAP)

    def test_engine_folds_observations_under_faults(self):
        system = build_school_federation()
        engine = GlobalQueryEngine(system)
        plan = FaultPlan(seed=3, links=(
            LinkFault(src="DB1", dst="DB3",
                      latency_multiplier=8.0, loss=0.6),
            LinkFault(src="DB2", dst="DB3",
                      latency_multiplier=8.0, loss=0.6),
        ))
        opts = engine.options.with_(fault_plan=plan)
        engine.execute(Q1_TEXT, "PL", options=opts)
        fb = system.planner_feedback
        assert fb.executions_observed == 1
        assert "DB3" in fb.peer_stalls()

    def test_peer_storm_flips_auto_toward_ca(self):
        """The differentiator static plan-peeking cannot see: sub-0.99
        peer-link loss stalls only the localized check exchanges, so a
        warmed feedback store flips AUTO's pick to CA — with the answer
        unchanged."""
        system = build_school_federation()
        engine = GlobalQueryEngine(system)
        plan = FaultPlan(seed=3, links=(
            LinkFault(src="DB1", dst="DB3",
                      latency_multiplier=8.0, loss=0.6),
            LinkFault(src="DB2", dst="DB3",
                      latency_multiplier=8.0, loss=0.6),
        ))
        feedback_opts = engine.options.with_(
            fault_plan=plan, planner="feedback"
        )
        static_opts = engine.options.with_(
            fault_plan=plan, planner="static"
        )
        for _ in range(3):  # warm the store
            engine.execute(Q1_TEXT, "AUTO", options=feedback_opts)
        fed = engine.execute(Q1_TEXT, "AUTO", options=feedback_opts)
        static = engine.execute(Q1_TEXT, "AUTO", options=static_opts)
        fed_choice = dict(
            [e for e in fed.metrics.events if e.name == "auto.predict"][0]
            .attrs
        )["choice"]
        static_choice = dict(
            [e for e in static.metrics.events if e.name == "auto.predict"][0]
            .attrs
        )["choice"]
        assert static_choice in ("BL", "PL")
        assert fed_choice == "CA"
        assert same_answers(fed.results, static.results)
