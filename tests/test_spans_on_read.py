"""Spans are built when read, and every view of them reads as before.

``ExecutionMetrics`` keeps the scheduled nodes and flattens them into
spans on first read: an execution, faulted or not, reads none, and the trace,
Chrome and JSONL exports, the registry and the utilization table are
pinned byte for byte (md5) to the spans the eager flattening built.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.sim.metrics
from helpers import context
from repro import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.strategies import DEFAULT_REGISTRY
from repro.faults import FaultPlan
from repro.obs.spans import TraceEvent
from repro.sqlx import parse_query
from repro.workload.paper_example import Q1_TEXT, build_school_federation

STRATEGIES = ("CA", "BL", "PL")


def md5(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def views(report) -> dict:
    """The md5 of each rendering of *report*'s spans."""
    return {
        "jsonl": md5(report.trace.to_jsonl()),
        "chrome": md5(report.trace.to_chrome_json()),
        "registry": md5(json.dumps(report.registry.snapshot(), sort_keys=True)),
        "utilization": md5(report.utilization.table()),
    }


#: Q1 on the school federation, as the eager flattening rendered it.
PINNED = {
    "CA": {
        "jsonl": "d1eb61774a0e31298b2ee2486f5ed4d3",
        "chrome": "6527294b4e9daa64ff78893b7166f974",
        "registry": "4255d95ef64b8db3566d918ded725ebb",
        "utilization": "eadace7c3ee3fd76de29493d9ef94825",
    },
    "BL": {
        "jsonl": "84ef672d5f434b11114bfbe99c883465",
        "chrome": "bf7ce7122b1f0ceb1ed2ef5f926aa22a",
        "registry": "64922279ad47f77a031734d4ff08cc29",
        "utilization": "1bcbc06c64d0c2bff7f2c184316159bd",
    },
    "PL": {
        "jsonl": "12dea1294d44d16d06e278faf0bdde8a",
        "chrome": "d7bafa555c35d47a0ea7ff47ece82be7",
        "registry": "f24e4cae2f2aba9dec61097a73c38e0d",
        "utilization": "264904f7437cf2219a56cfc248cc7e84",
    },
}
#: Q1's BL trace after one recorded event, and a repaired PL trace.
EVENT_JSONL = "e68cfb1b282625778d2397a9796d45a6"
REPAIRED_JSONL = "7a29eb8ebde8f4cfbcf4bd563ded6f02"


@pytest.fixture()
def counted(monkeypatch):
    """Calls of ``spans_from_nodes`` made through the metrics module."""
    calls = []
    real = repro.sim.metrics.spans_from_nodes

    def counting(nodes):
        calls.append(nodes)
        return real(nodes)

    monkeypatch.setattr(repro.sim.metrics, "spans_from_nodes", counting)
    return calls


@pytest.mark.parametrize("name", STRATEGIES)
def test_a_fault_free_execution_flattens_no_spans(name, counted):
    system = build_school_federation()
    result = DEFAULT_REGISTRY.create(name).execute(
        system, parse_query(Q1_TEXT), context()
    )
    assert counted == []
    spans = result.metrics.spans
    assert spans and len(counted) == 1
    assert result.metrics.spans is spans  # built once
    assert len(counted) == 1


@pytest.mark.parametrize("name", STRATEGIES)
def test_a_faulted_execution_flattens_no_spans(name, counted):
    engine = GlobalQueryEngine(build_school_federation())
    report = engine.execute(Q1_TEXT, name, options=ExecutionOptions(
        fault_plan=FaultPlan.from_spec("link:*>DB3:loss0.5")
    ))
    assert "faults.plan" in [e.name for e in report.metrics.events]
    assert counted == []
    assert report.trace.spans and len(counted) == 1


@pytest.mark.parametrize("name", STRATEGIES)
def test_every_view_of_the_spans_is_unchanged(name):
    report = GlobalQueryEngine(build_school_federation()).execute(Q1_TEXT, name)
    assert views(report) == PINNED[name]


def test_a_recorded_event_resets_the_cached_trace():
    report = GlobalQueryEngine(build_school_federation()).execute(Q1_TEXT, "BL")
    before = report.trace
    spans = report.metrics.spans
    report.record_event(TraceEvent.of("note", detail="after"))
    assert report.trace is not before
    assert report.trace.spans == spans
    assert report.trace.events[-1].name == "note"
    assert md5(report.trace.to_jsonl()) == EVENT_JSONL


def test_a_recertified_report_carries_the_degraded_spans():
    engine = GlobalQueryEngine(build_school_federation())
    degraded = engine.execute(Q1_TEXT, "PL", options=ExecutionOptions(
        fault_plan=FaultPlan.from_spec("DB2@0:1e9,DB3@0:1e9")
    ))
    repaired = engine.recertify(degraded)
    assert repaired.repair_summary.fully_repaired
    # Read first on the copy, then on the report it was copied from.
    assert repaired.metrics.spans
    assert repaired.metrics.spans == degraded.metrics.spans
    assert md5(repaired.trace.to_jsonl()) == REPAIRED_JSONL
