"""Tests for the adaptive strategy (decomposition-driven selection)."""

import pytest

from helpers import context, make_workload
from repro.core.engine import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.results import same_answers
from repro.core.strategies import AdaptiveStrategy, resolve
from repro.errors import QueryError
from repro.faults import FaultPlan
from repro.sqlx import parse_query
from repro.workload.paper_example import Q1_TEXT, expected_q1_answers

#: One predicate, local at DB1 only (DB2's Student lacks ``age``, DB3
#: holds no Student): kept 1 of 1 x 3 sites, a share of exactly 1/3.
ONE_THIRD = "Select X.name From Student X Where X.age > 25"

#: Three ``age`` predicates (DB1 only) and ``s-no`` (DB1 and DB2): kept
#: 5 of 4 x 3 sites, the smallest share above 1/3 four predicates reach.
ABOVE_ONE_THIRD = (
    "Select X.name From Student X Where X.age > 25 and X.age < 60 "
    "and X.age <> 30 and X.s-no > 0"
)


def pick(system, text, ctx=None):
    return AdaptiveStrategy().predict(
        system, parse_query(text), ctx if ctx is not None else context()
    )


class TestRule:
    def test_share_of_one_third_picks_ca(self, school):
        predicted = pick(school, ONE_THIRD)
        assert (predicted.kept, predicted.total) == (1, 3)
        assert predicted.choice == "CA"

    def test_share_just_above_one_third_picks_bl(self, school):
        predicted = pick(school, ABOVE_ONE_THIRD)
        assert (predicted.kept, predicted.total) == (5, 12)
        assert predicted.choice == "BL"

    def test_predicate_free_query_picks_bl(self, school):
        # CA 0.0074 s, BL 0.0067 s: with nothing to evaluate there are
        # no maybe results, and shipping the extents only costs.
        text = "Select s.name From Student s"
        predicted = pick(school, text)
        assert (predicted.kept, predicted.total) == (0, 0)
        assert predicted.choice == "BL"
        engine = GlobalQueryEngine(school)
        assert (engine.execute(text, "BL").response_time
                < engine.execute(text, "CA").response_time)

    def test_q1_pinned_as_ca(self, school):
        # Q1's local queries keep address.city and advisor.speciality at
        # DB2 and advisor.department.name at DB1; DB3 holds no Student
        # and gets no local query.  Share 3/9.  Concrete response times:
        # CA 0.0210 s < PL 0.0366 s < BL 0.0411 s.
        predicted = pick(school, Q1_TEXT)
        assert (predicted.kept, predicted.total) == (3, 9)
        assert predicted.choice == "CA"

    def test_down_site_never_yields_ca(self, school):
        for site in school.site_names:
            ctx = context(fault_plan=FaultPlan.single_site_loss(site))
            for text in (ONE_THIRD, Q1_TEXT):
                predicted = pick(school, text, ctx)
                assert predicted.unreachable == (site,)
                assert predicted.choice == "BL"

    def test_invalid_query_rejected(self, school):
        from repro.core.query import Query

        with pytest.raises(QueryError):
            AdaptiveStrategy().predict(
                school, Query.conjunctive("Ghost", ["x"]), context()
            )


class TestAdaptiveExecution:
    def test_auto_answers_match_paper(self, school):
        engine = GlobalQueryEngine(school)
        outcome = engine.execute(Q1_TEXT, "AUTO")
        expected = expected_q1_answers()
        assert tuple(outcome.results.certain_rows()) == expected["certain"]
        assert tuple(outcome.results.maybe_rows()) == expected["maybe"]
        assert outcome.metrics.strategy.startswith("AUTO->")

    def test_choice_recorded(self, school):
        result = AdaptiveStrategy().execute(
            school, parse_query(Q1_TEXT), context()
        )
        assert result.metrics.strategy == "AUTO->CA"
        (event,) = [e for e in result.metrics.events
                    if e.name == "auto.predict"]
        assert event.attr_dict()["choice"] == "CA"

    def test_registry_lookup(self):
        assert resolve("auto").name == "AUTO"

    def test_auto_equivalent_on_generated(self):
        workload = make_workload(seed=404, scale=0.02)
        engine = GlobalQueryEngine(workload.system)
        baseline = engine.execute(workload.query, "CA")
        auto = engine.execute(workload.query, "AUTO")
        assert same_answers(baseline.results, auto.results)


class TestFaultAwarePrediction:
    def test_clean_prediction_unchanged_by_none_ctx(self, school):
        strategy = AdaptiveStrategy()
        query = parse_query(Q1_TEXT)
        from repro.faults import EMPTY_PLAN

        clean = strategy.predict(school, query, context())
        assert clean == strategy.predict(
            school, query, context(fault_plan=EMPTY_PLAN)
        )
        assert clean.unreachable == ()

    def test_down_site_penalizes_ca(self, school):
        assert pick(school, ONE_THIRD).choice == "CA"
        ctx = context(fault_plan=FaultPlan.single_site_loss("DB2"))
        predicted = pick(school, ONE_THIRD, ctx)
        assert predicted.unreachable == ("DB2",)
        assert predicted.choice == "BL"
        # The share is a property of the schemas, not of the plan.
        assert (predicted.kept, predicted.total) == (1, 3)

    def test_predict_does_not_consume_negotiations(self, school):
        """Prediction must read the plan, never negotiate: availability
        bookkeeping belongs to the delegate's execution alone."""
        ctx = context(fault_plan=FaultPlan.single_site_loss("DB1"))
        AdaptiveStrategy().predict(school, parse_query(Q1_TEXT), ctx)
        assert ctx.contacted == []
        assert ctx.skipped == []

    def test_fully_lossy_link_counts_as_unreachable(self, school):
        # Two stacked 0.9-loss faults compose to 0.99: hopeless delivery.
        ctx = context(fault_plan=FaultPlan.from_spec(
            "link:*>DB3:loss0.9,link:GPS>DB3:loss0.9"
        ))
        predicted = AdaptiveStrategy().predict(
            school, parse_query(Q1_TEXT), ctx
        )
        assert "DB3" in predicted.unreachable

    def test_auto_event_records_unreachable(self, school):
        report = GlobalQueryEngine(school).execute(
            Q1_TEXT, "AUTO",
            options=ExecutionOptions(
                fault_plan=FaultPlan.single_site_loss("DB1"),
            ),
        )
        events = {e.name: e.attr_dict() for e in report.metrics.events}
        assert events["auto.predict"]["unreachable"] == "DB1"

    def test_picks_bl_s_once_built(self, school):
        assert pick(school, ABOVE_ONE_THIRD).choice == "BL"
        school.build_signatures()
        assert pick(school, ABOVE_ONE_THIRD).choice == "BL-S"
        # A CA pick does not move: signatures speed only the checks.
        assert pick(school, Q1_TEXT).choice == "CA"
