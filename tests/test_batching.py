"""Batched phase-O dispatch: one message pair per (src, dst) link.

Covers the wire-protocol contract (batched and unbatched runs return
byte-identical answers; batching never sends more and usually sends
strictly fewer messages), the explicit request<->report pairing that
replaced positional ``zip`` alignment, the ``dispatch.batch`` trace
events, and the engine/CLI plumbing of ``batch_checks``.
"""

from __future__ import annotations

import pytest

from helpers import make_workload
from repro.core.engine import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.query import Predicate
from repro.core.strategies.base import (
    CheckBatch,
    batch_exchanges,
    run_checks_paired,
)
from repro.objectdb.local_query import CheckReport, CheckRequest
from repro.objectdb.ids import LOid
from repro.workload.paper_example import Q1_TEXT, build_school_federation

#: A generated federation whose query produces multiple check requests
#: per (src, dst) link — the case batching collapses.
BUSY_SEED = 103


@pytest.fixture()
def busy_workload():
    return make_workload(BUSY_SEED)


LOCALIZED = ("BL", "PL", "BL-S", "PL-S")


class TestBatchingContract:
    @pytest.mark.parametrize("strategy", LOCALIZED)
    def test_answers_byte_identical(self, busy_workload, strategy):
        engine = GlobalQueryEngine(busy_workload.system)
        batched = engine.execute(busy_workload.query, strategy)
        unbatched = engine.execute(
            busy_workload.query, strategy,
            options=engine.options.with_(batch_checks=False),
        )
        assert batched.results.to_json() == unbatched.results.to_json()

    @pytest.mark.parametrize("strategy", LOCALIZED)
    def test_strictly_fewer_messages(self, busy_workload, strategy):
        engine = GlobalQueryEngine(busy_workload.system)
        batched = engine.execute(busy_workload.query, strategy)
        unbatched = engine.execute(
            busy_workload.query, strategy,
            options=engine.options.with_(batch_checks=False),
        )
        assert (batched.metrics.work.messages
                < unbatched.metrics.work.messages)

    @pytest.mark.parametrize("strategy", LOCALIZED)
    def test_never_more_bytes(self, busy_workload, strategy):
        """Shared predicate descriptors ship once per batch, so the
        batched request stream can only shrink."""
        engine = GlobalQueryEngine(busy_workload.system)
        batched = engine.execute(busy_workload.query, strategy)
        unbatched = engine.execute(
            busy_workload.query, strategy,
            options=engine.options.with_(batch_checks=False),
        )
        assert (batched.metrics.work.bytes_network
                <= unbatched.metrics.work.bytes_network)

    def test_dispatch_batch_events_present_and_sized(self, busy_workload):
        report = GlobalQueryEngine(busy_workload.system).execute(
            busy_workload.query, "BL"
        )
        batches = [e for e in report.metrics.events
                   if e.name == "dispatch.batch"]
        assert batches, "batched run recorded no dispatch.batch events"
        for event in batches:
            attrs = event.attr_dict()
            assert int(attrs["requests"]) >= 1
            assert int(attrs["loids"]) >= 1
            assert int(attrs["request_bytes"]) > 0
            assert attrs["src"] != attrs["dst"]

    def test_unbatched_run_has_no_batch_events(self, busy_workload):
        report = GlobalQueryEngine(busy_workload.system).execute(
            busy_workload.query, "BL",
            options=ExecutionOptions(batch_checks=False),
        )
        assert not [e for e in report.metrics.events
                    if e.name == "dispatch.batch"]

    def test_existing_cost_inequalities_survive(self, busy_workload):
        """The paper-level ordering (BL beats CA on network traffic for
        missing-data workloads) is only amplified by batching."""
        engine = GlobalQueryEngine(busy_workload.system)
        ca = engine.execute(busy_workload.query, "CA")
        bl = engine.execute(busy_workload.query, "BL")
        assert bl.metrics.work.bytes_network < ca.metrics.work.bytes_network


class TestChaseBatching:
    def test_chase_rounds_batch_and_agree(self):
        from test_chase import QUERY, build_chain_federation

        batched = GlobalQueryEngine(build_chain_federation(7)).execute(
            QUERY, "BL"
        )
        unbatched = GlobalQueryEngine(build_chain_federation(7)).execute(
            QUERY, "BL",
            options=ExecutionOptions(batch_checks=False),
        )
        assert batched.results.to_json() == unbatched.results.to_json()
        assert (batched.metrics.work.messages
                <= unbatched.metrics.work.messages)
        # The chase round's batch events carry their round number.
        rounds = [e for e in batched.metrics.events
                  if e.name == "dispatch.batch"
                  and "round" in e.attr_dict()]
        assert rounds, "chase executed but recorded no batched exchange"


class TestPairing:
    def test_reports_keyed_by_request_across_sites(self, school):
        """The regression the explicit pairing prevents: requests to
        different sites interleaved in one dispatch list must come back
        with each report bound to its own request."""
        requests = [
            CheckRequest(
                db_name="DB3", class_name="Dept2",
                loids=(LOid("DB3", 't2"'),),
                predicates=(Predicate.of("dname", "=", "CS"),),
            ),
            CheckRequest(
                db_name="DB2", class_name="Stud2",
                loids=(LOid("DB2", "s2'"),),
                predicates=(Predicate.of("sex", "=", "male"),),
            ),
        ]
        pairs = run_checks_paired(requests, school)
        assert [request for request, _ in pairs] == requests
        for request, report in pairs:
            assert report.db_name == request.db_name
            assert report.class_name == request.class_name


class TestCheckBatchUnits:
    def _pair(self, dst, loids, predicates):
        request = CheckRequest(
            db_name=dst, class_name="C", loids=tuple(loids),
            predicates=tuple(predicates),
        )
        return request, CheckReport(db_name=dst, class_name="C")

    def test_groups_by_destination_sorted(self):
        pred = Predicate.of("x", "=", 1)
        pairs = [
            self._pair("DB3", [LOid("DB3", "a")], [pred]),
            self._pair("DB2", [LOid("DB2", "b")], [pred]),
            self._pair("DB3", [LOid("DB3", "c")], [pred]),
        ]
        batches = batch_exchanges("DB1", pairs)
        assert [b.dst for b in batches] == ["DB2", "DB3"]
        assert all(b.src == "DB1" for b in batches)
        assert len(batches[1].pairs) == 2

    def test_shared_predicates_ship_once(self, school):
        """Batch request bytes charge distinct predicates, not the sum
        of per-request predicate lists."""
        cost = school.cost_model
        pred = Predicate.of("x", "=", 1)
        pairs = [
            self._pair("DB2", [LOid("DB2", "a")], [pred]),
            self._pair("DB2", [LOid("DB2", "b")], [pred]),
        ]
        (batch,) = batch_exchanges("DB1", pairs)
        assert batch.total_loids == 2
        assert batch.distinct_predicates == 1
        per_request = 2 * cost.check_request_bytes(1, 1)
        assert batch.request_bytes(cost) < per_request

    def test_empty_reply_still_charged_one_verdict(self, school):
        batch = CheckBatch(src="DB1", dst="DB2")
        batch.pairs.append(self._pair("DB2", [LOid("DB2", "a")], []))
        assert batch.total_verdicts == 0
        assert batch.reply_bytes(school.cost_model) == (
            school.cost_model.check_reply_bytes(1)
        )


class TestEnginePlumbing:
    def test_engine_wide_flag_and_per_call_override(self, busy_workload):
        engine = GlobalQueryEngine(
            busy_workload.system,
            options=ExecutionOptions(batch_checks=False),
        )
        off = engine.execute(busy_workload.query, "BL")
        on = engine.execute(
            busy_workload.query, "BL",
            options=engine.options.with_(batch_checks=True),
        )
        assert on.metrics.work.messages < off.metrics.work.messages

    def test_auto_threads_flag_to_delegate(self, busy_workload):
        engine = GlobalQueryEngine(busy_workload.system)
        batched = engine.execute(busy_workload.query, "AUTO")
        unbatched = engine.execute(
            busy_workload.query, "AUTO",
            options=engine.options.with_(batch_checks=False),
        )
        assert batched.results.to_json() == unbatched.results.to_json()
        assert (batched.metrics.work.messages
                <= unbatched.metrics.work.messages)

    def test_cli_no_batch_flag(self, capsys):
        from repro.cli import main

        assert main(["query", Q1_TEXT, "--no-batch"]) == 0
        plain = capsys.readouterr().out
        assert main(["query", Q1_TEXT]) == 0
        batched = capsys.readouterr().out
        # Same answer either way (the school federation's Q1).
        assert plain == batched

    def test_messages_counter_in_registry(self, busy_workload):
        report = GlobalQueryEngine(busy_workload.system).execute(
            busy_workload.query, "BL"
        )
        snapshot = report.registry.snapshot()
        assert snapshot["work.messages"] == report.metrics.work.messages
        assert snapshot["work.messages"] > 0


@pytest.mark.parametrize("strategy", LOCALIZED + ("CA",))
def test_school_q1_batched_equals_seed_answers(school, strategy):
    """Batching must not perturb the paper's worked example."""
    engine = GlobalQueryEngine(school)
    report = engine.execute(Q1_TEXT, strategy)
    assert len(report.results.certain) == 1
    assert len(report.results.maybe) == 1
