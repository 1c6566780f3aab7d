import dataclasses
import statistics

import pytest

import harness
from workloads import BY_NAME, DEFAULT_SEED, Workload, build_federation

TINY = Workload(
    name="tiny",
    strategy="BL",
    weights=(("point", 4.0), ("scan", 2.0), ("paper", 1.0)),
    queries=16,
    why="self-test",
)


@pytest.fixture(scope="module")
def generated():
    return build_federation()


def test_a_clean_pass_answers_every_query_in_worker_order(generated):
    traffic = harness.make_traffic(TINY, generated, 3, TINY.queries)
    result = harness.run_pass(traffic, TINY.queries, verify=True)
    assert not result.error
    assert (result.answered, result.unanswered) == (16, 0)
    assert (result.raised, result.shed, result.violations) == (0, 0, 0)
    assert all(wall > 0 for wall in result.walls)
    # The stopwatch read the paper's total time off the same reports.
    assert statistics.fmean(s[1] for s in result.samples) == pytest.approx(
        result.report.mean_service_s
    )
    assert result.digest == harness.answers_digest(result.report.records)
    # Replaying the sequence gives the same answers.
    again = harness.run_pass(
        harness.make_traffic(TINY, generated, 3, TINY.queries), TINY.queries
    )
    assert again.digest == result.digest


def test_a_raising_query_is_counted_with_the_queries_it_cut_off(generated):
    traffic = harness.make_traffic(TINY, generated, 3, TINY.queries)
    open_session = traffic.engine.session
    calls = []

    def session(*args, **kwargs):
        handle = open_session(*args, **kwargs)
        execute = handle.execute

        def flaky(query, *a, **kw):
            calls.append(query)
            if len(calls) == 5:
                raise RuntimeError("injected")
            return execute(query, *a, **kw)

        handle.execute = flaky
        return handle

    traffic.engine.session = session
    result = harness.run_pass(traffic, TINY.queries)
    assert "injected" in result.error
    assert result.raised == 1
    assert result.answered == 4
    assert result.unanswered == 12
    assert harness.stats.failed_share(result.unanswered, 0, 16) == 0.75


def test_a_shed_query_is_unanswered(generated):
    from repro.traffic import AdmissionControl

    traffic = harness.make_traffic(
        TINY, generated, 3, TINY.queries,
        admission=AdmissionControl(max_in_flight=1, queue_depth=0),
    )
    result = harness.run_pass(traffic, TINY.queries)
    assert not result.error
    assert result.shed > 0
    assert result.unanswered == result.shed
    assert result.answered + result.shed == TINY.queries


def test_a_forged_digest_changes_the_answers_digest_and_fails_the_pin(generated):
    traffic = harness.make_traffic(TINY, generated, 3, TINY.queries)
    records = harness.run_pass(traffic, TINY.queries).report.records
    honest = harness.answers_digest(records)
    forged = list(records)
    forged[7] = dataclasses.replace(forged[7], digest="0" * 64)
    assert harness.answers_digest(forged) != honest
    assert harness.answers_digest(list(reversed(records))) == honest
    with pytest.raises(harness.PinMismatch):
        harness.check_pin("point-bl", DEFAULT_SEED, harness.answers_digest(forged))
    harness.check_pin("point-bl", DEFAULT_SEED + 1, "anything")  # not pinned


def test_every_workload_is_pinned_and_leaves_ten_samples_beyond_p95():
    import json

    pins = json.loads(harness.PINS_PATH.read_text())
    assert pins["seed"] == DEFAULT_SEED
    assert set(pins["answers_digest"]) == set(BY_NAME)
    for workload in BY_NAME.values():
        assert workload.queries >= 300
        harness.stats.require_supported(workload.queries, 0.95)


def test_the_churn_plan_scales_with_the_pass_and_is_checked(generated):
    churn = BY_NAME["churn-bl"]
    queries = 80
    traffic = harness.make_traffic(churn, build_federation(), 3, queries)
    events = traffic.evolution.ordered_events()
    assert len(events) >= 10
    assert events[-1].at == pytest.approx(530 * queries / 800)
    result = harness.run_pass(traffic, queries)
    assert not result.error
    assert result.report.evo_transitions == 2 * len(events) >= 20
    assert harness.churn_errors(traffic, result.report) == []
    # A plan that finishes too late in the pass is reported, not ignored.
    late = dataclasses.replace(result.report, makespan_s=1.0)
    assert any("makespan" in e for e in harness.churn_errors(traffic, late))
    few = dataclasses.replace(result.report, queries_straddled=0)
    assert any("straddled" in e for e in harness.churn_errors(traffic, few))
