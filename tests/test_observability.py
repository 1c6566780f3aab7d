"""Tests for the observability layer: spans, registry, exporters,
utilization, and the ExecutionReport facade."""

import json

import pytest

from repro.core.engine import GlobalQueryEngine
from repro.core.report import ExecutionReport
from repro.obs import (
    MetricsRegistry,
    Trace,
    compute_utilization,
    trace_from_jsonl,
)
from repro.obs.registry import Counter, Gauge, Histogram
from repro.obs.spans import Span, TraceEvent
from repro.sim.taskgraph import PHASE_I, PHASE_O, PHASE_P
from repro.workload.paper_example import Q1_TEXT


def overlapping(a: Span, b: Span) -> bool:
    """Strictly overlapping windows (both with positive duration)."""
    return (
        a.duration > 0 and b.duration > 0
        and a.start < b.finish and b.start < a.finish
    )


@pytest.fixture()
def pl_report(school_engine) -> ExecutionReport:
    return school_engine.execute(Q1_TEXT, strategy="PL")


class TestExecutionReport:
    def test_execute_returns_report(self, school_engine):
        report = school_engine.execute(Q1_TEXT, strategy="BL")
        assert isinstance(report, ExecutionReport)
        # Still quacks like the old StrategyResult.
        assert report.total_time == report.metrics.total_time
        assert report.response_time == report.metrics.response_time
        assert len(report.results.certain) == 1

    def test_trace_matches_metrics(self, pl_report):
        trace = pl_report.trace
        assert trace.strategy == "PL"
        assert trace.query_text == Q1_TEXT
        assert trace.spans == pl_report.metrics.spans
        assert trace.response_time == pytest.approx(
            pl_report.metrics.response_time
        )

    def test_to_dict_is_json_serializable(self, pl_report):
        dumped = json.loads(json.dumps(pl_report.to_dict()))
        assert dumped["strategy"] == "PL"
        assert dumped["answers"]["certain"] == 1
        assert dumped["metrics"]["spans.count"] == len(pl_report.trace.spans)

    def test_trace_round_trips_through_jsonl(self, pl_report):
        trace = pl_report.trace
        rebuilt = trace_from_jsonl(trace.to_jsonl())
        assert rebuilt.strategy == trace.strategy
        assert rebuilt.query_text == trace.query_text
        assert sorted(rebuilt.spans, key=lambda s: s.index) == sorted(
            trace.spans, key=lambda s: s.index
        )
        assert rebuilt.events == trace.events

    def test_trace_round_trips_through_dict(self, pl_report):
        trace = pl_report.trace
        rebuilt = Trace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert rebuilt == trace

    def test_explain_renders_without_reexecuting(self, school, pl_report):
        engine = GlobalQueryEngine(school)

        class Exploding:
            name = "BOOM"

            def execute(self, _system, _query):  # pragma: no cover
                raise AssertionError("explain() re-executed the query")

        engine.default_strategy = Exploding()
        text = engine.explain(pl_report)
        assert "strategy PL" in text
        assert "busy time per phase" in text
        assert "critical path" in text

    def test_explain_query_executes_once(self, school):
        calls = []
        engine = GlobalQueryEngine(school)
        original = engine.execute

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        engine.execute = counting
        engine.explain(Q1_TEXT, "BL")
        assert len(calls) == 1


class TestMetricsRegistry:
    def test_instruments(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        registry.gauge("depth").set(3.5)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("lat").observe(value)
        snap = registry.snapshot()
        assert snap["hits"] == 3
        assert snap["depth"] == 3.5
        assert snap["lat"]["count"] == 4
        assert snap["lat"]["mean"] == pytest.approx(2.5)
        assert registry.histogram("lat").percentile(50) == 3.0

    def test_percentile_rounds_the_interpolated_index(self):
        # Index round(p/100 * (n-1)), half to even; nearest-rank
        # (ceil(q*n), the rule of the traffic report) would give 10 at
        # p=25 and 20 at p=50.
        histogram = Histogram("h")
        for value in (40, 10, 30, 20):
            histogram.observe(value)
        assert [histogram.percentile(p) for p in (0, 25, 50, 100)] == [
            10.0, 20.0, 30.0, 40.0,
        ]
        pair = Histogram("pair")
        pair.observe(2)
        pair.observe(1)
        assert pair.percentile(50) == 1.0  # round(0.5) == 0
        assert Histogram("empty").percentile(95) == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_name_collision_across_types(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)

    def test_report_registry_subsumes_work_counters(self, pl_report):
        snap = pl_report.registry.snapshot()
        work = pl_report.metrics.work
        assert snap["work.bytes_network"] == work.bytes_network
        assert snap["work.comparisons"] == work.comparisons
        assert snap["work.assistants_checked"] == work.assistants_checked
        assert snap["answers.certain"] == pl_report.metrics.certain_results
        assert snap["time.response"] == pytest.approx(
            pl_report.metrics.response_time
        )


class TestChromeExport:
    def test_schema(self, pl_report):
        raw = pl_report.trace.to_chrome_json()
        doc = json.loads(raw)
        events = doc["traceEvents"]
        assert doc["otherData"]["strategy"] == "PL"
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, "no complete events exported"
        for event in complete:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert event["pid"] >= 1
            assert event["tid"] >= 1
        # Complete events are sorted by timestamp.
        stamps = [e["ts"] for e in complete]
        assert stamps == sorted(stamps)

    def test_pid_per_site_tid_per_resource(self, pl_report):
        doc = pl_report.trace.to_chrome()
        events = doc["traceEvents"]
        site_pids = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        # One distinct pid per site, and every span's pid matches its site.
        assert len(set(site_pids.values())) == len(site_pids)
        for event in events:
            if event["ph"] != "X":
                continue
            assert site_pids[f"site {event['args']['site']}"] == event["pid"]

    def test_instant_events_for_engine_bookkeeping(self, school):
        engine = GlobalQueryEngine(school)
        report = engine.execute(Q1_TEXT, strategy="BL-S")
        doc = report.trace.to_chrome()
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] == "signatures.build" for e in instants)


class TestUtilization:
    def test_busy_within_window(self, pl_report):
        util = pl_report.utilization
        assert util.window == pytest.approx(pl_report.metrics.response_time)
        for profile in util.resources.values():
            assert profile.busy <= util.window + 1e-9
            assert profile.queue_delay >= 0.0
        for site in util.sites.values():
            assert 0.0 <= site.utilization(util.window) <= 1.0 + 1e-9

    def test_site_busy_matches_metrics(self, pl_report):
        util = pl_report.utilization
        for site, busy in pl_report.metrics.site_busy.items():
            assert util.sites[site].busy == pytest.approx(busy)

    def test_critical_path_spans_the_window(self, pl_report):
        util = pl_report.utilization
        path = util.critical_path
        assert path, "empty critical path"
        assert path[-1].finish == pytest.approx(util.window)
        # Walking backwards, each hop starts no later than its successor.
        for earlier, later in zip(path, path[1:]):
            assert earlier.start <= later.start + 1e-12

    def test_standalone_compute(self):
        spans = (
            Span(0, "a", "P", "S1", "S1:cpu", 0.0, 1.0),
            Span(1, "b", "O", "S1", "S1:disk", 0.5, 2.0, deps=(0,)),
        )
        util = compute_utilization(spans)
        assert util.window == pytest.approx(2.0)
        assert util.sites["S1"].busy == pytest.approx(2.5)


class TestPhaseOrderingInvariants:
    """The paper's phase orders, checked on the span timeline."""

    def test_ca_checks_before_evaluation(self, school_engine):
        trace = school_engine.execute(Q1_TEXT, strategy="CA").trace
        integration = trace.phase_spans(PHASE_I)
        evaluation = trace.phase_spans(PHASE_P)
        assert integration and evaluation
        assert max(s.finish for s in integration) <= min(
            s.start for s in evaluation
        ) + 1e-12

    def test_bl_evaluates_before_checking(self, school_engine):
        trace = school_engine.execute(Q1_TEXT, strategy="BL").trace
        for site in trace.sites():
            evaluation = [
                s for s in trace.site_spans(site) if s.phase == PHASE_P
            ]
            checks = [s for s in trace.site_spans(site) if s.phase == PHASE_O]
            if not evaluation or not checks:
                continue
            assert max(s.finish for s in evaluation) <= min(
                s.start for s in checks
            ) + 1e-12

    def test_pl_overlaps_checks_with_evaluation(self, school_engine):
        trace = school_engine.execute(Q1_TEXT, strategy="PL").trace
        o_spans = trace.phase_spans(PHASE_O)
        p_spans = trace.phase_spans(PHASE_P)
        assert any(
            overlapping(o, p) for o in o_spans for p in p_spans
        ), "PL shows no O||P overlap"

    def test_certification_is_last(self, school_engine):
        # CA is O>I>P (evaluation after the outerjoin), so "certify
        # finishes last" is a localized-strategy invariant.
        for name in ("BL", "PL"):
            trace = school_engine.execute(Q1_TEXT, strategy=name).trace
            integration = trace.phase_spans(PHASE_I)
            assert integration
            others = [s for s in trace.spans if s.phase != PHASE_I]
            assert max(s.finish for s in integration) >= max(
                s.finish for s in others
            ) - 1e-12


class TestGantt:
    def test_gantt_from_report(self, pl_report):
        text = pl_report.trace.gantt()
        assert "PL_C1 scan" in text
        assert "#" in text

    def test_events_rendered(self):
        trace = Trace(
            strategy="X",
            spans=(Span(0, "work", "P", "S", "S:cpu", 0.0, 1.0),),
            events=(TraceEvent.of("note", detail="hello"),),
        )
        assert "(event) note" in trace.gantt()
