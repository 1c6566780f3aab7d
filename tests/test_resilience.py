"""Unit and integration tests for the resilience layer.

Covers inline policy-spec parsing, replica failover under
component-link storms (including byte-identical full recovery), the
availability annotation, and the CLI's rejection of removed flags.
"""

import pytest

from repro.core.engine import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.results import Availability, answer_digest
from repro.errors import FaultPlanError
from repro.faults import ExecutionPolicy, FaultPlan
from repro.faults.injector import OPEN_CIRCUIT, ExecutionContext
from repro.faults.policy import parse_policy_spec, resolve_policy
from repro.workload.paper_example import Q1_TEXT, build_school_federation


def storm_plan(loss=0.97):
    """Every component->component link lossy; global links clean."""
    sites = ("DB1", "DB2", "DB3")
    spec = ",".join(
        f"link:{a}>{b}:loss{loss:g}" for a in sites for b in sites if a != b
    )
    return FaultPlan.from_spec(spec)


class TestPolicySpecs:
    def test_preset_passthrough(self):
        assert parse_policy_spec("patient").name == "patient"

    def test_inline_overrides(self):
        policy = parse_policy_spec("degrade:timeout=0.5,retries=3,deadline=2")
        assert policy.timeout_s == 0.5
        assert policy.max_retries == 3
        assert policy.deadline_s == 2.0
        assert policy.name == "degrade:timeout=0.5,retries=3,deadline=2"

    def test_bool_override(self):
        assert parse_policy_spec("degrade:fail_fast=yes").fail_fast
        assert not parse_policy_spec("degrade:fail_fast=off").fail_fast

    def test_unknown_preset(self):
        with pytest.raises(FaultPlanError, match="unknown policy"):
            parse_policy_spec("nope:timeout=1")

    def test_unknown_key(self):
        for spec in ("degrade:warp=9", "degrade:hedge=0.05"):
            with pytest.raises(FaultPlanError, match="unknown policy override"):
                parse_policy_spec(spec)

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
        assert resolve_policy("degrade:deadline=3").deadline_s == 3.0


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
                ),
            )
            for _ in range(2)
        ]
        assert runs[0].results.to_dicts() == runs[1].results.to_dicts()
        assert runs[0].availability.to_dict() == runs[1].availability.to_dict()
        assert runs[0].total_time == runs[1].total_time

    def test_context_refuses_only_departed_sites(self):
        """A departed site gets the zero-wait open-circuit negotiation;
        a site that merely fails pays its ladder every time."""
        options = ExecutionOptions(
            fault_plan=FaultPlan.from_spec("DB3@0:1e9"),
            policy=ExecutionPolicy(),
        )
        ctx = ExecutionContext(options, departed=("DB2",))
        for src in ("G", "DB1", "DB3"):
            refused = ctx.contact(src, "DB2")
            assert not refused.ok
            assert [a.outcome for a in refused.attempts] == [OPEN_CIRCUIT]
        assert ctx.wait_s == 0.0
        ladders = 0.0
        for src in ("G", "DB1", "DB2"):
            failed = ctx.contact(src, "DB3")
            assert not failed.ok and failed.reason == "down"
            ladders += failed.wait_s
        assert ladders > 0.0 and ctx.wait_s == ladders
        assert ctx.skipped == ["DB2", "DB3"]
        assert ExecutionContext(options).contact("G", "DB2").ok


class TestAvailabilityAnnotation:
    def test_to_dict_carries_failover_fields(self):
        avail = Availability(
            complete=False,
            checks_failed_over=2,
            fully_recovered=True,
            queried_sites_down=("DB1",),
        )
        exported = avail.to_dict()
        assert exported["checks_failed_over"] == 2
        assert exported["fully_recovered"] is True
        assert exported["queried_sites_down"] == ["DB1"]
        assert list(exported) == [
            "complete", "sites_contacted", "sites_skipped", "retries",
            "checks_skipped", "messages_lost", "fault_wait_s",
            "checks_failed_over", "fully_recovered", "queried_sites_down",
            "schema_epoch", "epochs_straddled",
        ]

    def test_summary_mentions_recovery_and_failover(self):
        avail = Availability(
            complete=False, checks_failed_over=2, fully_recovered=True,
        )
        assert avail.summary() == "INCOMPLETE recovered failover=2"

    def test_certification_intact(self):
        assert Availability().certification_intact
        assert Availability(
            complete=False, fully_recovered=True
        ).certification_intact
        assert not Availability(complete=False).certification_intact


class TestCliFlags:
    def test_removed_flags_rejected(self, capsys):
        """Failover has no off switch, and hedging is gone: neither its
        flag nor its policy key is accepted."""
        from repro.cli import build_parser, main

        for flags in (["--failover"], ["--no-failover"], ["--hedge", "0.1"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["query", "q", *flags])
            assert exc.value.code == 2
        code = main([
            "query", "Select X.name From Student X",
            "--policy", "patient:hedge=0.05",
        ])
        assert code == 2
        assert "unknown policy override 'hedge'" in capsys.readouterr().err

    def test_bad_policy_spec_exits_2(self, capsys):
        from repro.cli import main

        code = main([
            "query", "Select X.name From Student X", "--policy", "nope:bad",
        ])
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_query_with_failover(self, capsys):
        from repro.cli import main

        code = main([
            "query",
            "Select X.name From Student X "
            "Where X.advisor.speciality = database",
            "--faults", "link:DB1>DB2:loss0.9",
            "--policy", "degrade:retries=2",
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
