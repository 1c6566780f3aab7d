"""Unit tests for the fault layer: plans, policies, the injector."""

import pytest

from helpers import context
from repro.errors import ExecutionTimeout, FaultPlanError, UnavailableError
from repro.faults import (
    DEGRADE,
    EMPTY_PLAN,
    FAIL_FAST,
    ExecutionPolicy,
    FaultInjector,
    FaultPlan,
    LinkFault,
    OutageWindow,
    resolve_policy,
)


class TestOutageWindow:
    def test_covers_half_open(self):
        window = OutageWindow("DB1", 1.0, 2.0)
        assert not window.covers(0.999)
        assert window.covers(1.0)
        assert window.covers(2.999)
        assert not window.covers(3.0)  # recovers exactly at the end

    def test_validation(self):
        with pytest.raises(FaultPlanError):
            OutageWindow("", 0.0, 1.0)
        with pytest.raises(FaultPlanError):
            OutageWindow("DB1", -0.1, 1.0)
        with pytest.raises(FaultPlanError):
            OutageWindow("DB1", 0.0, 0.0)


class TestLinkFault:
    def test_wildcards(self):
        fault = LinkFault(src="*", dst="DB1", loss=0.5)
        assert fault.matches("DB2", "DB1")
        assert fault.matches("DB3", "DB1")
        assert not fault.matches("DB1", "DB2")

    def test_validation(self):
        with pytest.raises(FaultPlanError):
            LinkFault(latency_multiplier=0.5)  # would speed the link up
        with pytest.raises(FaultPlanError):
            LinkFault(loss=1.0)  # certain loss would never terminate


class TestFaultPlan:
    def test_empty_plan_is_inactive(self):
        assert not EMPTY_PLAN.active
        assert not FaultPlan(seed=42).active
        # A no-op link fault keeps the plan inactive too.
        assert not FaultPlan(links=(LinkFault(),)).active

    def test_next_up_walks_chained_windows(self):
        plan = FaultPlan(outages=(
            OutageWindow("DB1", 0.0, 1.0),
            OutageWindow("DB1", 1.0, 1.0),
            OutageWindow("DB1", 5.0, 1.0),
        ))
        assert plan.next_up("DB1", 0.5) == 2.0
        assert plan.next_up("DB1", 3.0) == 3.0
        assert plan.next_up("DB1", 5.5) == 6.0
        assert plan.next_up("DB2", 0.5) == 0.5

    def test_link_faults_compose(self):
        plan = FaultPlan(links=(
            LinkFault(dst="DB1", latency_multiplier=2.0, loss=0.5),
            LinkFault(src="DB2", latency_multiplier=3.0, loss=0.5),
        ))
        multiplier, loss = plan.link("DB2", "DB1")
        assert multiplier == pytest.approx(6.0)
        assert loss == pytest.approx(0.75)  # independent drops
        assert plan.link("DB3", "DB2") == (1.0, 0.0)

    def test_fault_windows_filter_and_sort(self):
        plan = FaultPlan(outages=(
            OutageWindow("DB2", 1.0, 1.0),
            OutageWindow("DB1", 0.0, 1.0),
        ))
        assert plan.fault_windows(["DB1", "DB2", "DB9"]) == (
            ("DB1", 0.0, 1.0), ("DB2", 1.0, 2.0),
        )
        assert plan.fault_windows(["DB9"]) == ()

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=3,
            outages=(OutageWindow("DB1", 0.5, 1.5),),
            links=(LinkFault(src="DB2", dst="*", loss=0.25),),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_spec(self):
        plan = FaultPlan.from_spec(
            "DB2@0:1.5, DB3@0.2:0.5, link:*>DB1:x2:loss0.3", seed=9
        )
        assert plan.seed == 9
        assert plan.is_down("DB2", 1.0)
        assert plan.is_down("DB3", 0.3)
        assert plan.link("DB4", "DB1") == (2.0, pytest.approx(0.3))

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_spec("DB2")
        with pytest.raises(FaultPlanError):
            FaultPlan.from_spec("DB2@zero:1")

    def test_chaos_is_deterministic_and_bounded(self):
        sites = ["DB1", "DB2", "DB3"]
        assert FaultPlan.chaos(sites, 0.5, seed=1) == FaultPlan.chaos(
            sites, 0.5, seed=1
        )
        assert FaultPlan.chaos(sites, 0.5, seed=1) != FaultPlan.chaos(
            sites, 0.5, seed=2
        )
        assert not FaultPlan.chaos(sites, 0.0, seed=1).outages
        assert len(FaultPlan.chaos(sites, 1.0, seed=1).outages) == len(sites)
        with pytest.raises(FaultPlanError):
            FaultPlan.chaos(sites, 1.5)


class TestExecutionPolicy:
    def test_backoff_grows_exponentially(self):
        policy = ExecutionPolicy(jitter=0.0)
        assert policy.backoff_s(1, 0.0) == pytest.approx(
            2.0 * policy.backoff_s(0, 0.0)
        )

    def test_jitter_stretches_backoff(self):
        policy = ExecutionPolicy(jitter=0.5)
        assert policy.backoff_s(0, 1.0) == pytest.approx(
            1.5 * policy.backoff_s(0, 0.0)
        )

    def test_validation(self):
        with pytest.raises(FaultPlanError):
            ExecutionPolicy(timeout_s=0.0)
        with pytest.raises(FaultPlanError):
            ExecutionPolicy(max_retries=-1)
        with pytest.raises(FaultPlanError):
            ExecutionPolicy(jitter=1.5)
        with pytest.raises(FaultPlanError):
            ExecutionPolicy(deadline_s=0.0)

    def test_resolve(self):
        assert resolve_policy(None) is DEGRADE
        assert resolve_policy("fail-fast") is FAIL_FAST
        assert resolve_policy(DEGRADE) is DEGRADE
        with pytest.raises(FaultPlanError):
            resolve_policy("yolo")


class TestFaultInjector:
    def test_down_site_exhausts_retries(self):
        plan = FaultPlan.single_site_loss("DB1")
        injector = FaultInjector(plan)
        negotiation = injector.negotiate("G", "DB1")
        assert not negotiation.ok
        assert len(negotiation.attempts) == DEGRADE.max_retries + 1
        assert negotiation.reason == "down"
        assert negotiation.wait_s > DEGRADE.timeout_s

    def test_up_site_succeeds_first_try(self):
        injector = FaultInjector(FaultPlan.single_site_loss("DB1"))
        negotiation = injector.negotiate("G", "DB2")
        assert negotiation.ok
        assert negotiation.retries == 0
        assert negotiation.wait_s == 0.0

    def test_recovery_mid_ladder(self):
        """A short outage: the retry ladder outlives the window and the
        final attempt lands after recovery."""
        plan = FaultPlan(outages=(OutageWindow("DB1", 0.0, 0.3),))
        negotiation = FaultInjector(plan).negotiate("G", "DB1")
        assert negotiation.ok
        assert negotiation.retries >= 1
        assert negotiation.attempts[-1].outcome == "ok"

    def test_memoized_per_link(self):
        injector = FaultInjector(FaultPlan.single_site_loss("DB1"))
        assert injector.negotiate("G", "DB1") is injector.negotiate("G", "DB1")

    def test_loss_draws_deterministic_in_seed(self):
        plan = FaultPlan(links=(LinkFault(dst="DB1", loss=0.7),))
        first = FaultInjector(plan, seed=5).negotiate("G", "DB1")
        again = FaultInjector(plan, seed=5).negotiate("G", "DB1")
        other = FaultInjector(plan, seed=6).negotiate("G", "DB1")
        assert first == again
        # Different seeds give different attempt histories (0.7 loss on
        # three attempts: outcome patterns differ with high probability).
        assert first != other


def down_context(**options):
    """A context under DB1's loss, with eager (no-failover) skipping."""
    return context(
        fault_plan=FaultPlan.single_site_loss("DB1"), failover=False,
        **options,
    )


class TestExecutionContext:
    def test_bookkeeping(self):
        ctx = down_context()
        assert ctx.reachable("G", "DB2")
        assert not ctx.reachable("G", "DB1")
        ctx.note_skipped_check()
        availability = ctx.availability()
        assert not availability.complete
        assert availability.sites_contacted == ("DB2",)
        assert availability.sites_skipped == ("DB1",)
        assert availability.checks_skipped == 1
        assert availability.fault_wait_s == pytest.approx(ctx.wait_s)

    def test_wait_counted_once_per_link(self):
        ctx = down_context()
        ctx.contact("G", "DB1")
        waited = ctx.wait_s
        ctx.contact("G", "DB1")  # memoized: no extra wait
        assert ctx.wait_s == pytest.approx(waited)
        assert ctx.timeouts == DEGRADE.max_retries + 1

    def test_fail_fast_raises(self):
        ctx = down_context(policy=FAIL_FAST)
        with pytest.raises(UnavailableError):
            ctx.contact("G", "DB1")

    def test_deadline_raises(self):
        policy = ExecutionPolicy(name="tight", deadline_s=0.1)
        ctx = down_context(policy=policy)
        with pytest.raises(ExecutionTimeout):
            ctx.contact("G", "DB1")

    def test_complete_when_nothing_skipped(self):
        ctx = down_context()
        ctx.contact("G", "DB2")
        assert ctx.complete
        assert ctx.availability().summary() == "complete"

    def test_fault_free_context_injects_nothing(self, monkeypatch):
        from repro.core.results import Availability
        from repro.faults import injector

        def forbidden(*args, **kwargs):
            raise AssertionError("a fault-free context built an injector")

        monkeypatch.setattr(injector, "FaultInjector", forbidden)
        for ctx in (context(), context(fault_plan=FaultPlan())):
            assert not ctx.active and not ctx.failover
            assert ctx.health is None
            assert ctx.reachable("G", "DB1")
            assert ctx.contact("G", "DB1") is ctx.contact("DB2", "DB3")
            assert ctx.contacted == [] and ctx.wait_s == 0.0
            assert ctx.availability() == Availability()
            assert ctx.fault_windows(("DB1",)) == ()

    def test_strategies_require_a_context(self, school):
        from repro.core.strategies import DEFAULT_REGISTRY
        from repro.sqlx import parse_query
        from repro.workload.paper_example import Q1_TEXT

        query = parse_query(Q1_TEXT)
        for info in DEFAULT_REGISTRY:
            with pytest.raises(TypeError):
                info.create().execute(school, query)
