"""The concurrent traffic engine: templates, mixes, seeds, driver.

The load-bearing guarantees:

* seed derivation is a pure function (same scope → same seed, distinct
  scopes → distinct streams);
* template instantiation is deterministic in the RNG and never mutates
  shared state;
* two runs with the same root seed are byte-identical end to end
  (records, latencies, report JSON);
* per-worker cache deltas sum to the federation-wide delta even under
  interleaving;
* every interleaved answer equals its serial re-execution (0
  violations), with and without an active fault plan;
* admission control sheds deterministically under overload and the
  shed count matches the gate's rejection counter.
"""

from __future__ import annotations

import json
import random

import pytest

from helpers import make_workload
from repro.core.query import Op
from repro.errors import WorkloadError
from repro.evolution import EvolutionPlan, resolve_auto
from repro.evolution.seeding import mix_referenced_attributes
from repro.faults.plan import FaultPlan
from repro.traffic import (
    AdmissionControl,
    ParamSpec,
    PredicateTemplate,
    QueryMix,
    MixEntry,
    QueryTemplate,
    TrafficEngine,
    default_mix,
    derive_seed,
)
from repro.core.options import ExecutionOptions
from repro.traffic.driver import ACQUIRE, RELEASE, _Clock


@pytest.fixture(scope="module")
def workload():
    return make_workload(1996)


def small_engine(workload, **overrides):
    kwargs = dict(workers=3, queries=8, seed=42, strategy="BL")
    kwargs.update(overrides)
    return TrafficEngine(workload.system, default_mix(workload), **kwargs)


class TestSeeds:
    def test_stable_and_scoped(self):
        assert derive_seed(1996, "worker", 3) == derive_seed(1996, "worker", 3)
        assert derive_seed(1996, "worker", 3) != derive_seed(1996, "worker", 4)
        assert derive_seed(1996, "worker", 3) != derive_seed(1997, "worker", 3)
        assert derive_seed(1996, "fault", 3) != derive_seed(1996, "worker", 3)

    def test_no_concatenation_collisions(self):
        # "1:23" vs "12:3" style collisions must not happen.
        assert derive_seed(1, "w", 23) != derive_seed(1, "w2", 3)


class TestTemplates:
    def test_param_spec_kinds(self):
        rng = random.Random(1)
        assert 0 <= ParamSpec("a", low=0, high=5).draw(rng) < 5
        assert ParamSpec("b", kind="choice", choices=(7,)).draw(rng) == 7
        assert ParamSpec("c", kind="const", value=9).draw(rng) == 9

    def test_param_spec_validation(self):
        with pytest.raises(WorkloadError):
            ParamSpec("a", low=5, high=5)
        with pytest.raises(WorkloadError):
            ParamSpec("a", kind="choice")
        with pytest.raises(WorkloadError):
            ParamSpec("a", kind="bogus")

    def test_instantiate_is_deterministic(self, workload):
        template = default_mix(workload).entries[0].template
        one = template.instantiate(random.Random(3))
        two = template.instantiate(random.Random(3))
        assert one == two
        assert one.query == two.query

    def test_unknown_predicate_param_rejected(self):
        with pytest.raises(WorkloadError, match="unknown param"):
            QueryTemplate(
                name="bad", range_class="K1", targets=("key",),
                predicates=(
                    PredicateTemplate(path="key", op=Op.EQ, param="nope"),
                ),
                params=(),
            )

    def test_from_query_consts_and_vary(self, workload):
        query = workload.query
        template = QueryTemplate.from_query("paper", query)
        bound = template.instantiate(random.Random(0))
        assert bound.query == query  # all-const: reproduces verbatim
        with pytest.raises(WorkloadError, match="unknown predicate paths"):
            QueryTemplate.from_query(
                "bad", query, vary={"no.such.path": ParamSpec("x", high=2)}
            )

    def test_const_params_consume_no_rng(self, workload):
        template = QueryTemplate.from_query("paper", workload.query)
        rng = random.Random(5)
        template.instantiate(rng)
        probe = random.Random(5).random()
        assert rng.random() == probe  # stream untouched


class TestMix:
    def test_default_mix_names_and_weights(self, workload):
        mix = default_mix(workload)
        assert mix.names == ("point", "scan", "paper")
        assert "point" in mix.describe()

    def test_choose_is_weighted_and_deterministic(self, workload):
        mix = default_mix(workload)
        counts = {}
        rng = random.Random(9)
        for _ in range(700):
            name = mix.choose(rng).name
            counts[name] = counts.get(name, 0) + 1
        assert counts["point"] > counts["scan"] > counts["paper"]
        again = random.Random(9)
        assert mix.choose(again).name == mix.choose(random.Random(9)).name

    def test_empty_mix_rejected(self):
        with pytest.raises(WorkloadError):
            QueryMix(entries=())

    def test_duplicate_template_rejected(self, workload):
        entry = default_mix(workload).entries[0]
        with pytest.raises(WorkloadError, match="duplicate"):
            QueryMix(entries=(entry, entry))


class TestDriverDeterminism:
    def test_two_runs_byte_identical(self, workload):
        first = small_engine(workload).run()
        w2 = make_workload(1996)
        second = TrafficEngine(
            w2.system, default_mix(w2), workers=3, queries=8, seed=42,
            strategy="BL",
        ).run()
        assert first.records == second.records
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_seed_changes_workload(self, workload):
        one = small_engine(workload, seed=1).run()
        two = small_engine(make_workload(1996), seed=2).run()
        assert one.records != two.records

    def test_replay_matches_executed_templates(self, workload):
        engine = small_engine(workload)
        report = engine.run()
        for worker_id in range(engine.workers):
            replayed = engine.replay_worker(worker_id)
            mine = [r for r in report.records if r.worker == worker_id]
            assert [r.template for r in mine] == [
                b.template for b in replayed
            ]

    def test_total_queries_distribution(self, workload):
        engine = TrafficEngine(
            workload.system, default_mix(workload),
            workers=4, total_queries=10, seed=1,
        )
        assert engine._counts == (3, 3, 2, 2)
        report = engine.run()
        assert report.queries_total == 10
        assert report.completed + report.shed == 10


class TestDriverAccounting:
    def test_per_worker_deltas_sum_to_global(self, workload):
        system = workload.system
        engine = small_engine(workload)
        before = system.cache_stats()
        report = engine.run()
        delta = system.cache_stats().delta(before)
        assert sum(w.cache_hits for w in report.per_worker) == delta.hits
        assert sum(w.cache_misses for w in report.per_worker) == (
            delta.misses
        )
        assert report.cache_hits == delta.hits
        assert report.cache_misses == delta.misses

    def test_latency_decomposes(self, workload):
        report = small_engine(workload).run()
        for record in report.records:
            if record.shed:
                continue
            assert record.latency_s == pytest.approx(
                record.wait_s + record.service_s
            )
            assert record.service_s > 0

    def test_report_json_shape(self, workload):
        data = small_engine(workload).run().to_dict()
        assert data["workers"] == 3
        assert data["completed"] + data["shed"] == data["queries_total"]
        assert set(data["template_counts"]) <= {"point", "scan", "paper"}
        json.dumps(data)  # serializable


class TestSerialVerification:
    def test_zero_violations_fault_free(self, workload):
        report = small_engine(workload).run(verify=True)
        assert report.verified == report.completed > 0
        assert report.violations == []

    def test_zero_violations_under_faults(self, workload):
        options = ExecutionOptions(
            fault_plan=FaultPlan.from_spec("DB2@0:0.5,link:*>DB1:loss0.2"),
        )
        report = small_engine(workload, options=options).run(verify=True)
        assert report.violations == []
        # Per-query fault seeds were derived and recorded.
        seeds = {r.fault_seed for r in report.records if not r.shed}
        assert None not in seeds
        assert len(seeds) > 1

    def test_detects_divergence(self, workload):
        engine = small_engine(workload)
        report = engine.run()
        broken = report.records[0]
        report.records[0] = type(broken)(
            worker=broken.worker, seq=broken.seq, template=broken.template,
            submitted_s=broken.submitted_s, started_s=broken.started_s,
            finished_s=broken.finished_s, service_s=broken.service_s,
            digest="bogus0bogus0", fault_seed=broken.fault_seed,
        )
        engine._verify_serial(report)
        assert any("bogus0bogus0" in v for v in report.violations)


class TestAdmissionControl:
    def test_sheds_deterministically_under_overload(self, workload):
        admission = AdmissionControl(
            max_in_flight=1, queue_depth=1, shed_backoff_s=0.01
        )
        one = small_engine(workload, workers=6, admission=admission).run()
        two = small_engine(workload, workers=6, admission=admission).run()
        assert one.shed > 0
        assert one.shed == two.shed
        assert one.gate_rejected == one.shed
        shed_records = [r for r in one.records if r.shed]
        assert all(
            r.digest == "" and r.service_s == 0 for r in shed_records
        )

    def test_no_shedding_with_room(self, workload):
        report = small_engine(
            workload,
            admission=AdmissionControl(max_in_flight=8, queue_depth=64),
        ).run()
        assert report.shed == 0
        assert report.completed == 3 * 8

    def test_validation(self):
        with pytest.raises(WorkloadError):
            AdmissionControl(max_in_flight=0)
        with pytest.raises(WorkloadError):
            AdmissionControl(queue_depth=-1)

    def test_gate_admit_counter(self):
        """One slot: the second worker waits, admission counts the
        refusals, and a release resumes the waiter it hands its slot to
        before the releaser."""
        clock = _Clock(slots=1)
        assert clock.admit(0)  # a slot is free
        seen = []

        def holder(name):
            yield ACQUIRE
            seen.append((name, clock.now, clock.admit(1), clock.admit(2)))
            yield 1.0
            yield RELEASE
            seen.append((name, "resumed", clock.now))

        clock.resume(holder("a"))
        clock.resume(holder("b"))
        clock.run()
        assert seen == [
            ("a", 0.0, False, True),  # "b" is waiting: depth 1 is full
            ("b", 1.0, True, True),
            ("a", "resumed", 1.0),
            ("b", "resumed", 2.0),
        ]
        assert (clock.rejected, clock.grants_queued) == (1, 1)
        assert (clock.wait_time, clock.free_slots) == (1.0, 1)

    def test_signature_strategy_builds_catalog_once(self, workload):
        system = make_workload(304).system
        assert system.signatures is None
        engine = TrafficEngine(
            system, default_mix(make_workload(304)),
            workers=2, queries=3, seed=5, strategy="BL-S",
        )
        assert system.signatures is not None
        report = engine.run(verify=True)
        assert report.violations == []


class TestLoopOrder:
    """The traffic clock's resumption order, pinned.

    A run that sheds, queues at the gate, thinks between queries and
    steps an evolution pump; its report and per-record times were
    taken from the generic event kernel the clock replaced.  Any change
    to the order in which simultaneous events resume moves them.
    """

    def churned_run(self):
        w = make_workload(17, scale=0.03)
        mix = default_mix(w)
        plan = resolve_auto(
            EvolutionPlan.from_spec(
                "join@0.5,rename@1.5", seed=17, propagation_lag_s=0.2
            ),
            w.system, w.query,
            extra_referenced=mix_referenced_attributes(mix),
        )
        return TrafficEngine(
            w.system, mix, workers=5, queries=3, seed=17, strategy="BL",
            admission=AdmissionControl(
                max_in_flight=1, queue_depth=2, shed_backoff_s=0.05
            ),
            think_time_s=0.02,
            evolution=plan,
        ).run()

    def test_report_is_pinned(self):
        report = self.churned_run()
        assert report.to_dict() == {
            "admission": {
                "max_in_flight": 1, "queue_depth": 2, "shed_backoff_s": 0.05,
            },
            "cache_hits": 1810,
            "cache_misses": 267,
            "completed": 9,
            "evolution": {
                "final_epoch": 4,
                "plan": "evolve(join:DBJ1,rename:K4.t1>t1x1)",
                "propagation_lag_mean_s": 0.7,
                "queries_straddled": 2,
                "transitions": 4,
            },
            "gate_queued": 8,
            "gate_rejected": 6,
            "gate_wait_s": 11.643011207,
            "latency_p50_s": 2.322919691,
            "latency_p95_s": 2.773192961,
            "latency_p99_s": 2.773192961,
            "makespan_s": 6.960867865,
            "mean_service_s": 0.771744333,
            "mix": "point=57% scan=29% paper=14%",
            "per_worker": [
                {"cache_hits": 569, "cache_misses": 259, "completed": 3,
                 "shared_hits": 0, "shed": 0, "worker": 0},
                {"cache_hits": 821, "cache_misses": 4, "completed": 3,
                 "shared_hits": 0, "shed": 0, "worker": 1},
                {"cache_hits": 0, "cache_misses": 0, "completed": 0,
                 "shared_hits": 0, "shed": 3, "worker": 2},
                {"cache_hits": 0, "cache_misses": 0, "completed": 0,
                 "shared_hits": 0, "shed": 3, "worker": 3},
                {"cache_hits": 420, "cache_misses": 4, "completed": 3,
                 "shared_hits": 0, "shed": 0, "worker": 4},
            ],
            "queries_per_worker": 3,
            "queries_total": 15,
            "seed": 17,
            "shared_hits": 0,
            "shed": 6,
            "strategy": "BL",
            "template_counts": {"point": 10, "scan": 5},
            "throughput_qps": 1.292942,
            "verified": 0,
            "violations": [],
            "workers": 5,
        }
        # (worker, seq, shed, epoch, started, finished) per record.
        assert [
            (r.worker, r.seq, r.shed, r.evo_step,
             round(r.started_s, 9), round(r.finished_s, 9))
            for r in report.records
        ] == [
            (0, 0, False, 2, 1.164386865, 2.232434865),
            (0, 1, False, 4, 3.942029865, 4.637457865),
            (0, 2, False, 4, 6.266208365, 6.960867865),
            (1, 0, False, 1, 0.589777865, 1.164386865),
            (1, 1, False, 4, 2.927094365, 3.942029865),
            (1, 2, False, 4, 5.520739865, 6.266208365),
            (2, 0, True, 0, 0.026100524, 0.026100524),
            (2, 1, True, 0, 0.10432154, 0.10432154),
            (2, 2, True, 0, 0.184601451, 0.184601451),
            (3, 0, True, 0, 0.031478891, 0.031478891),
            (3, 1, True, 0, 0.103055027, 0.103055027),
            (3, 2, True, 0, 0.165759418, 0.165759418),
            (4, 0, False, 0, 0.015168865, 0.589777865),
            (4, 1, False, 3, 2.232434865, 2.927094365),
            (4, 2, False, 4, 4.637457865, 5.520739865),
        ]


class TestPercentile:
    """Nearest-rank percentile: the 0/1/2-sample edge cases.

    The old scale-by-100-then-truncate formulation floored any rank
    whose fractional part was under a hundredth: q=0.501 over two
    samples picked the *first* sample (rank ceil(1.002)=2 collapsed
    to 1).
    """

    def test_empty(self):
        from repro.traffic.driver import _percentile

        assert _percentile([], 0.5) == 0.0
        assert _percentile([], 0.99) == 0.0

    def test_single_sample_every_quantile(self):
        from repro.traffic.driver import _percentile

        for q in (0.0, 0.01, 0.5, 0.95, 0.99, 1.0):
            assert _percentile([7.5], q) == 7.5

    def test_two_samples(self):
        from repro.traffic.driver import _percentile

        values = [1.0, 2.0]
        assert _percentile(values, 0.5) == 1.0    # rank ceil(1.0) = 1
        assert _percentile(values, 0.501) == 2.0  # the old bug: returned 1.0
        assert _percentile(values, 0.51) == 2.0
        assert _percentile(values, 0.99) == 2.0
        assert _percentile(values, 1.0) == 2.0

    def test_exact_products_do_not_drift(self):
        from repro.traffic.driver import _percentile

        # 0.95 * 20 is 19.000000000000004 in floats; the rank must stay
        # 19, not ceil up to 20.
        values = [float(i) for i in range(1, 21)]
        assert _percentile(values, 0.95) == 19.0
        assert _percentile(values, 0.5) == 10.0

    def test_q_zero_clamps_to_first(self):
        from repro.traffic.driver import _percentile

        assert _percentile([3.0, 4.0, 5.0], 0.0) == 3.0
