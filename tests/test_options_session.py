"""ExecutionOptions, the single option carrier, and per-caller sessions.

Covers the options value object (immutability, ``with_`` validation,
policy normalization), the one-carrier contract (strategies hold no
execution option, so a Strategy instance shared between callers serves
each under that caller's own options), and :class:`EngineSession`:
per-session defaults, per-session cache accounting summing to the
federation-wide delta, and cross-session shared-hit attribution.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.engine import GlobalQueryEngine
from repro.core.options import OPTION_FIELDS, ExecutionOptions
from repro.faults.plan import FaultPlan
from repro.faults.policy import resolve_policy
from repro.workload.paper_example import Q1_TEXT, build_school_federation


def _digest(report) -> str:
    return json.dumps(report.results.to_dicts(), sort_keys=True)


PLAN = "DB2@0:0.8,link:*>DB3:loss0.4"


@pytest.fixture
def busy():
    """A federation whose message count shows whether PLAN was applied
    (DB2's outage drops its traffic)."""
    from helpers import make_workload

    return make_workload(103, n_dbs=3)


class TestExecutionOptions:
    def test_defaults(self):
        options = ExecutionOptions()
        assert options.fault_plan is None
        assert options.fault_seed == 0
        assert options.planner == "static"
        assert not options.faults_active
        assert options.policy == resolve_policy(None)

    def test_policy_normalized_at_construction(self):
        options = ExecutionOptions(policy="degrade:timeout=0.5")
        assert options.policy.timeout_s == 0.5
        assert options == ExecutionOptions(policy="degrade:timeout=0.5")

    def test_with_overrides_and_preserves(self):
        base = ExecutionOptions(fault_seed=7)
        derived = base.with_(planner="constraints")
        assert derived.planner == "constraints"
        assert derived.fault_seed == 7
        assert base.planner == "static"  # the original is untouched

    def test_with_rejects_unknown_names(self):
        with pytest.raises(TypeError, match="unknown execution option"):
            ExecutionOptions().with_(bogus=True)

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionOptions().planner = "full"

    def test_faults_active_requires_active_plan(self):
        plan = FaultPlan.from_spec(PLAN)
        assert ExecutionOptions(fault_plan=plan).faults_active
        assert not ExecutionOptions(fault_plan=FaultPlan()).faults_active

    def test_four_fields_and_no_legacy_switch(self):
        assert [f.name for f in dataclasses.fields(ExecutionOptions)] == [
            "fault_plan", "policy", "fault_seed", "planner",
        ]
        for legacy in ("batch_checks", "failover"):
            with pytest.raises(TypeError, match="unknown execution option"):
                ExecutionOptions().with_(**{legacy: True})

    def test_option_fields_match_dataclass(self):
        assert set(OPTION_FIELDS) == set(
            ExecutionOptions.__dataclass_fields__
        )


class TestNoStrategyMutation:
    """Options ride the execution context; a Strategy holds none."""

    def test_no_registered_strategy_carries_an_option(self):
        from repro.core.strategies import DEFAULT_REGISTRY

        for info in DEFAULT_REGISTRY:
            strategy = info.create()
            carried = [
                name for name in OPTION_FIELDS
                if hasattr(strategy, name) or hasattr(type(strategy), name)
            ]
            assert not carried, f"{info.name} carries {carried}"

    def test_session_override_leaves_instance_alone(self, busy):
        engine = GlobalQueryEngine(busy.system)
        shared = engine.registry.create("BL")
        clean = engine.session("clean", strategy=shared)
        faulted = engine.session(
            "faulted", strategy=shared,
            options=engine.options.with_(fault_plan=FaultPlan.from_spec(PLAN)),
        )
        # Interleave the two callers over the one instance: each gets
        # its own options every time.
        counts = {"clean": set(), "faulted": set()}
        for _ in range(2):
            for session in (clean, faulted):
                report = session.execute(busy.query)
                counts[session.name].add(report.metrics.work.messages)
        assert counts == {"clean": {23}, "faulted": {10}}
        assert not hasattr(shared, "fault_plan")

    def test_call_override_leaves_instance_alone(self, busy):
        engine = GlobalQueryEngine(busy.system)
        shared = engine.registry.create("BL")
        faulted = engine.execute(
            busy.query, shared,
            options=engine.options.with_(fault_plan=FaultPlan.from_spec(PLAN)),
        )
        clean = engine.execute(busy.query, shared)
        assert (faulted.metrics.work.messages
                < clean.metrics.work.messages)
        assert not hasattr(shared, "fault_plan")

    def test_default_strategy_not_mutated_by_session_override(self, busy):
        engine = GlobalQueryEngine(busy.system)
        before = engine.execute(busy.query).metrics.work.messages
        session = engine.session(
            options=engine.options.with_(fault_plan=FaultPlan.from_spec(PLAN))
        )
        assert session.execute(busy.query).metrics.work.messages < before
        # The engine's own default strategy still runs fault-free.
        assert engine.execute(busy.query).metrics.work.messages == before

    def test_auto_delegate_honors_override_without_mutation(self, busy):
        engine = GlobalQueryEngine(busy.system)
        auto = engine.registry.create("AUTO")
        override = engine.options.with_(
            fault_plan=FaultPlan.from_spec(PLAN), fault_seed=5
        )
        report = engine.execute(busy.query, auto, options=override)
        # The delegate ran under the very same options as a direct run.
        direct = engine.execute(
            busy.query, report.metrics.strategy.removeprefix("AUTO->"),
            options=override,
        )
        assert report.metrics.work.messages == direct.metrics.work.messages
        assert (report.metrics.work.messages
                < engine.execute(busy.query, auto).metrics.work.messages)
        assert not hasattr(auto, "fault_plan")


class TestEngineSession:
    def test_session_defaults_inherit_engine_live(self, school):
        engine = GlobalQueryEngine(school)
        session = engine.session()
        assert session.options == engine.options
        engine.options = engine.options.with_(planner="constraints")
        assert session.options.planner == "constraints"  # inherits live

    def test_session_own_options_are_isolated(self, school):
        engine = GlobalQueryEngine(school)
        session = engine.session(
            options=engine.options.with_(planner="constraints"),
            fault_seed=21,
        )
        assert session.options.planner == "constraints"
        assert session.options.fault_seed == 21
        assert engine.options.planner == "static"
        assert engine.options.fault_seed == 0

    def test_session_default_strategy(self, school):
        engine = GlobalQueryEngine(school)
        session = engine.session(strategy="PL")
        report = session.execute(Q1_TEXT)
        assert report.metrics.strategy == "PL"
        assert engine.default_strategy.name == "BL"

    def test_sessions_autoname_and_repr(self, school):
        engine = GlobalQueryEngine(school)
        first, second = engine.session(), engine.session()
        assert first.name != second.name
        assert first.name in repr(first)

    def test_session_answers_match_engine(self, school):
        engine = GlobalQueryEngine(school)
        session = engine.session()
        assert _digest(session.execute(Q1_TEXT)) == _digest(
            engine.execute(Q1_TEXT)
        )

    def test_session_compare_agreement(self, school):
        engine = GlobalQueryEngine(school)
        outcomes = engine.session().compare(
            Q1_TEXT, strategies=("CA", "BL", "PL")
        )
        assert set(outcomes) == {"CA", "BL", "PL"}

    def test_interleaved_session_deltas_sum_to_global(self, school):
        """Two interleaved workers' cache deltas == the CacheStats delta."""
        engine = GlobalQueryEngine(school)
        alpha, beta = engine.session("alpha"), engine.session("beta")
        before = engine.system.cache_stats()
        # Interleave: A, B, A, B, ...
        for _ in range(3):
            alpha.execute(Q1_TEXT)
            beta.execute(Q1_TEXT, "PL")
        global_delta = engine.system.cache_stats().delta(before)
        assert (alpha.cache.hits + beta.cache.hits) == global_delta.hits
        assert (alpha.cache.misses + beta.cache.misses) == (
            global_delta.misses
        )
        assert alpha.executions == 3 and beta.executions == 3
        # Both workers generated real traffic of both kinds.
        assert alpha.cache.lookups > 0 and beta.cache.lookups > 0

    def test_shared_hit_attribution_across_sessions(self, school):
        """A session reusing another's decomposition pays a shared hit."""
        engine = GlobalQueryEngine(school)
        payer, rider = engine.session("payer"), engine.session("rider")
        payer.execute(Q1_TEXT)
        assert payer.shared_hits == 0
        rider.execute(Q1_TEXT)
        assert rider.shared_hits == 1
        assert engine.system.shared_hits_of("rider") == 1
        assert engine.system.shared_hits_total == 1
        # Re-use by the owner itself is not "shared".
        payer.execute(Q1_TEXT)
        assert payer.shared_hits == 0

    def test_root_execute_attributes_to_main(self, school):
        engine = GlobalQueryEngine(school)
        engine.execute(Q1_TEXT)
        engine.execute(Q1_TEXT)
        session = engine.session("other")
        session.execute(Q1_TEXT)
        assert session.shared_hits == 1  # decompose entry paid by "main"
