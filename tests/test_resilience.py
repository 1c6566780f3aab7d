"""Unit and integration tests for the resilience layer.

Covers the circuit breaker state machine, inline policy-spec parsing,
replica failover under component-link storms (including byte-identical
full recovery), hedged dispatch invariance, breakers on every active
fault context, and the CLI's policy spelling of hedging.
"""

import pytest

from repro.core.engine import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.results import Availability, answer_digest
from repro.errors import FaultPlanError
from repro.faults import ExecutionPolicy, FaultPlan
from repro.faults.injector import ExecutionContext
from repro.faults.policy import parse_policy_spec, resolve_policy
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    SiteHealthRegistry,
)
from repro.workload.paper_example import Q1_TEXT, build_school_federation


def storm_plan(loss=0.97):
    """Every component->component link lossy; global links clean."""
    sites = ("DB1", "DB2", "DB3")
    spec = ",".join(
        f"link:{a}>{b}:loss{loss:g}" for a in sites for b in sites if a != b
    )
    return FaultPlan.from_spec(spec)


class TestBreakerStateMachine:
    def test_threshold_opens_the_circuit(self):
        reg = SiteHealthRegistry()
        for _ in range(2):
            reg.record("DB2", ok=False)
        assert reg.state("DB2") == CLOSED
        reg.record("DB2", ok=False)
        assert reg.state("DB2") == OPEN
        assert ("DB2", CLOSED, OPEN) in reg.transitions

    def test_success_resets_the_failure_streak(self):
        reg = SiteHealthRegistry()
        reg.record("DB2", ok=False)
        reg.record("DB2", ok=False)
        reg.record("DB2", ok=True)
        reg.record("DB2", ok=False)
        reg.record("DB2", ok=False)
        assert reg.state("DB2") == CLOSED

    def test_open_circuit_suppresses_until_cooldown(self):
        reg = SiteHealthRegistry(BreakerPolicy(cooldown_jitter=0))
        for _ in range(3):
            reg.record("DB2", ok=False)
        # cooldown_attempts=2 suppressed contacts, then one probe.
        assert not reg.allow("DB2")
        assert not reg.allow("DB2")
        assert reg.allow("DB2")
        assert reg.state("DB2") == HALF_OPEN
        assert reg.suppressed_total == 2

    def test_half_open_probe_closes_or_reopens(self):
        reg = SiteHealthRegistry(BreakerPolicy(cooldown_jitter=0))
        for _ in range(3):
            reg.record("DB2", ok=False)
        while not reg.allow("DB2"):
            pass
        reg.record("DB2", ok=True)
        assert reg.state("DB2") == CLOSED

        for _ in range(3):
            reg.record("DB3", ok=False)
        while not reg.allow("DB3"):
            pass
        reg.record("DB3", ok=False)  # probe fails: straight back to open
        assert reg.state("DB3") == OPEN
        assert reg.health("DB3").opened_count == 2

    def test_cooldown_is_seed_deterministic(self):
        def cooldown(seed):
            reg = SiteHealthRegistry(seed=seed)
            for _ in range(3):
                reg.record("DB2", ok=False)
            return reg.health("DB2").cooldown_remaining

        assert cooldown(7) == cooldown(7)
        assert 2 <= cooldown(7) <= 4  # base 2 + jitter in [0, 2]

    def test_rank_orders_by_health(self):
        reg = SiteHealthRegistry()
        for _ in range(3):
            reg.record("DB1", ok=False)  # open
        reg.record("DB2", ok=False)  # closed, 1 failure
        reg.record("DB3", ok=True)  # closed, healthy
        assert reg.rank(["DB1", "DB2", "DB3"]) == ["DB3", "DB2", "DB1"]

    def test_snapshot_lists_only_non_closed(self):
        reg = SiteHealthRegistry()
        reg.record("DB3", ok=True)
        for _ in range(3):
            reg.record("DB1", ok=False)
        assert reg.snapshot() == (("DB1", OPEN),)

    def test_latency_ewma_moves_toward_samples(self):
        reg = SiteHealthRegistry()
        reg.record("DB2", ok=True, latency_s=1.0)
        # The first sample seeds the EWMA outright (no blend with 0.0).
        assert reg.health("DB2").latency_ewma_s == pytest.approx(1.0)
        reg.record("DB2", ok=True, latency_s=2.0)
        assert reg.health("DB2").latency_ewma_s == pytest.approx(1.3)

    def test_policy_validation(self):
        with pytest.raises(FaultPlanError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(FaultPlanError):
            BreakerPolicy(cooldown_attempts=-1)
        with pytest.raises(FaultPlanError):
            BreakerPolicy(ewma_alpha=0.0)


class TestPolicySpecs:
    def test_preset_passthrough(self):
        assert parse_policy_spec("patient").name == "patient"

    def test_inline_overrides(self):
        policy = parse_policy_spec("degrade:timeout=0.5,retries=3,hedge=0.1")
        assert policy.timeout_s == 0.5
        assert policy.max_retries == 3
        assert policy.hedge_delay_s == 0.1
        assert policy.name == "degrade:timeout=0.5,retries=3,hedge=0.1"

    def test_bool_override(self):
        assert parse_policy_spec("degrade:fail_fast=yes").fail_fast
        assert not parse_policy_spec("degrade:fail_fast=off").fail_fast

    def test_unknown_preset(self):
        with pytest.raises(FaultPlanError, match="unknown policy"):
            parse_policy_spec("nope:timeout=1")

    def test_unknown_key(self):
        with pytest.raises(FaultPlanError, match="unknown policy override"):
            parse_policy_spec("degrade:warp=9")

    def test_malformed_override(self):
        with pytest.raises(FaultPlanError, match="malformed"):
            parse_policy_spec("degrade:timeout")

    def test_bad_value(self):
        with pytest.raises(FaultPlanError, match="bad value"):
            parse_policy_spec("degrade:retries=many")

    def test_out_of_range_value_fails_validation(self):
        with pytest.raises(FaultPlanError):
            parse_policy_spec("degrade:timeout=-1")

    def test_resolve_policy_accepts_specs(self):
        assert resolve_policy("degrade:hedge=0.05").hedge_delay_s == 0.05


class TestReplicaFailover:
    @pytest.mark.parametrize("strategy", ["BL", "PL"])
    def test_storm_recovery_is_byte_identical(self, school, strategy):
        engine = GlobalQueryEngine(school)
        clean = engine.execute(Q1_TEXT, strategy)
        on = engine.execute(
            Q1_TEXT, strategy,
            options=engine.options.with_(fault_plan=storm_plan(), fault_seed=0),
        )
        avail = on.availability
        assert not avail.complete
        assert avail.fully_recovered
        assert avail.certification_intact
        assert avail.checks_failed_over > 0
        assert avail.checks_skipped == 0
        assert on.results.to_dicts() == clean.results.to_dicts()

    #: Certain rows of Q1 under the storm when skipped checks were
    #: demoted eagerly (recorded when that path still existed).
    EAGER_CERTAIN = 0

    @pytest.mark.parametrize("strategy", ["BL", "PL"])
    def test_failover_beats_eager_demotion(self, school, strategy):
        engine = GlobalQueryEngine(school)
        on = engine.execute(
            Q1_TEXT, strategy,
            options=engine.options.with_(fault_plan=storm_plan(), fault_seed=0),
        )
        assert len(on.results.certain) == 1 > self.EAGER_CERTAIN

    def test_failover_emits_relay_events(self, school):
        report = GlobalQueryEngine(school).execute(
            Q1_TEXT, "PL",
            options=ExecutionOptions(fault_plan=storm_plan(), fault_seed=0),
        )
        relays = [
            e for e in report.metrics.events
            if e.name == "fault.failover" and "via" in e.attr_dict()
        ]
        assert relays
        for event in relays:
            assert event.attr_dict()["via"] == school.global_site
        assert report.metrics.work.checks_failed_over == len(relays)

    def test_site_outage_failover_matches_legacy(self, school):
        # A whole-site outage kills the relay route too, so failover
        # must degrade exactly like the eager path did (its answer
        # digest, recorded when that path still existed).
        plan = FaultPlan.single_site_loss("DB2")
        engine = GlobalQueryEngine(school)
        on = engine.execute(
            Q1_TEXT, "BL",
            options=engine.options.with_(fault_plan=plan),
        )
        assert answer_digest(on.results) == "7346c091f15f"
        assert not on.availability.fully_recovered
        assert on.availability.checks_failed_over == 0

    def test_failover_runs_are_deterministic(self, school):
        engine = GlobalQueryEngine(school)
        runs = [
            engine.execute(
                Q1_TEXT, "PL",
                options=engine.options.with_(
                    fault_plan=storm_plan(),
                    fault_seed=0,
                    policy="degrade:hedge=0.05",
                ),
            )
            for _ in range(2)
        ]
        assert runs[0].results.to_dicts() == runs[1].results.to_dicts()
        assert runs[0].availability.to_dict() == runs[1].availability.to_dict()
        assert runs[0].total_time == runs[1].total_time

    def test_context_without_failover_has_no_health(self):
        """Only an inactive (fault-free) context goes without breakers."""
        assert ExecutionContext(ExecutionOptions()).health is None
        active = ExecutionContext(
            ExecutionOptions(fault_plan=storm_plan(), policy=ExecutionPolicy())
        )
        assert active.health is not None


class TestHedgedDispatch:
    PLAN = "link:DB1>DB2:loss0.8,link:DB3>DB2:loss0.8"

    def run(self, school, policy):
        return GlobalQueryEngine(school).execute(
            Q1_TEXT, "PL",
            options=ExecutionOptions(
                fault_plan=FaultPlan.from_spec(self.PLAN),
                fault_seed=2,
                policy=policy,
            ),
        )

    def test_hedging_never_changes_answers(self, school):
        plain = self.run(school, None)
        hedged = self.run(school, "degrade:hedge=0.05")
        assert hedged.results.to_dicts() == plain.results.to_dicts()

    def test_winning_hedge_cuts_response_time(self, school):
        plain = self.run(school, None)
        hedged = self.run(school, "degrade:hedge=0.05")
        assert hedged.availability.hedges_won > 0
        assert hedged.response_time < plain.response_time

    def test_hedge_policy_without_faults_changes_nothing(self, school):
        engine = GlobalQueryEngine(school)
        plain = engine.execute(Q1_TEXT, "PL")
        hedged = engine.execute(
            Q1_TEXT, "PL",
            options=ExecutionOptions(policy="degrade:hedge=0.05"),
        )
        assert hedged.availability == plain.availability
        assert hedged.total_time == plain.total_time
        assert hedged.metrics.work.messages == plain.metrics.work.messages

    def test_hedge_events_and_counters(self, school):
        hedged = self.run(school, "degrade:hedge=0.05")
        events = [
            e for e in hedged.metrics.events if e.name == "fault.hedge"
        ]
        assert len(events) == hedged.availability.hedges
        assert hedged.metrics.work.hedges == hedged.availability.hedges


class TestAvailabilityAnnotation:
    def test_to_dict_carries_failover_fields(self):
        avail = Availability(
            complete=False,
            checks_failed_over=2,
            hedges=3,
            hedges_won=1,
            fully_recovered=True,
            queried_sites_down=("DB1",),
            breaker=(("DB2", "open"),),
            contacts_suppressed=4,
        )
        exported = avail.to_dict()
        assert exported["checks_failed_over"] == 2
        assert exported["hedges"] == 3
        assert exported["hedges_won"] == 1
        assert exported["fully_recovered"] is True
        assert exported["queried_sites_down"] == ["DB1"]
        assert exported["breaker"] == {"DB2": "open"}
        assert exported["contacts_suppressed"] == 4

    def test_summary_mentions_recovery_and_failover(self):
        avail = Availability(
            complete=False, checks_failed_over=2, hedges=2, hedges_won=1,
            fully_recovered=True, breaker=(("DB2", "open"),),
        )
        text = avail.summary()
        assert "recovered" in text
        assert "failover=2" in text
        assert "hedges=1/2" in text
        assert "breaker=DB2:open" in text

    def test_certification_intact(self):
        assert Availability().certification_intact
        assert Availability(
            complete=False, fully_recovered=True
        ).certification_intact
        assert not Availability(complete=False).certification_intact


class TestCliFlags:
    def test_removed_flags_rejected(self):
        """Failover has no off switch; hedging is a policy override."""
        from repro.cli import build_parser

        for flags in (["--failover"], ["--no-failover"], ["--hedge", "0.1"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["query", "q", *flags])
            assert exc.value.code == 2
        args = build_parser().parse_args(
            ["query", "q", "--policy", "patient:hedge=0.05"]
        )
        assert args.policy == "patient:hedge=0.05"

    def test_bad_policy_spec_exits_2(self, capsys):
        from repro.cli import main

        code = main([
            "query", "Select X.name From Student X", "--policy", "nope:bad",
        ])
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_query_with_failover_and_hedge(self, capsys):
        from repro.cli import main

        code = main([
            "query",
            "Select X.name From Student X "
            "Where X.advisor.speciality = database",
            "--faults", "link:DB1>DB2:loss0.9",
            "--policy", "degrade:retries=2,hedge=0.05",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded:" in out

    def test_query_no_failover(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([
                "query", "Select X.name From Student X",
                "--faults", "link:DB1>DB2:loss0.9", "--no-failover",
            ])
        assert exc.value.code == 2
