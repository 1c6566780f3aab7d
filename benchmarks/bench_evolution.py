"""Evolution bench: membership/schema churn under concurrent traffic.

Drives the :mod:`repro.traffic` engine with an active
:class:`~repro.evolution.plan.EvolutionPlan` — sites joining and
leaving, attributes renamed and dropped, all on the traffic clock —
and sweeps the propagation lag to show how the consistency contract
degrades answers instead of corrupting them.  Per scenario:

* throughput and p50/p95/p99 latency alongside the churn (epoch
  transitions cost schema re-integration and a federation-wide
  decomposition-cache flush);
* the straddle rate: what fraction of queries executed while a
  propagation window was open (annotated, possibly demoted — never a
  wrong certain answer);
* mean propagation lag per window and the final schema epoch;
* serial verification: every interleaved answer is replayed against a
  fresh federation stepped to the same epoch (``violations`` must
  be 0).

Everything reported is a pure function of the scenario seeds; CI runs
the quick scenarios twice, diffs the JSON byte-for-byte, and checks
against the committed baseline::

    PYTHONPATH=src python benchmarks/bench_evolution.py --quick \
        --json BENCH_evolution.json \
        --check benchmarks/results/BENCH_evolution.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

if __package__ in (None, ""):  # runnable as a plain script from anywhere
    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    _SRC = pathlib.Path(__file__).parent.parent / "src"
    if _SRC.is_dir():
        sys.path.insert(0, str(_SRC))

from bench_common import (
    add_baseline_args,
    finish,
    make_workload,
    run_once,
)

from repro.bench.reporting import format_table
from repro.evolution import EvolutionPlan, mix_referenced_attributes, resolve_auto
from repro.traffic import TrafficEngine, default_mix

SCHEMA = "BENCH_evolution/v1"

#: The churn sweep.  ``spec`` is the evolution plan (auto targets are
#: resolved against the generated federation, protecting every
#: attribute the traffic mix references); ``lag`` is the per-site
#: propagation lag, the knob that widens the straddling windows.
SCENARIOS = {
    "calm-lag50ms": dict(
        workload_seed=1996, workers=8, queries=64, seed=11, strategy="BL",
        spec="join@2,rename@5,drop@8", lag=0.05,
    ),
    "churn-lag1s": dict(
        workload_seed=1996, workers=8, queries=64, seed=11, strategy="BL",
        spec="join@2,rename@5,drop@8", lag=1.0,
    ),
    "storm-lag4s": dict(
        workload_seed=1996, workers=16, queries=96, seed=23, strategy="BL",
        spec="join@1,add@3,rename@5,drop@7,leave@9", lag=4.0,
    ),
    # The acceptance scenario: a join, a leave and a rename all firing
    # mid-run under 64 workers.  The join goes first so the federation
    # is dense enough for a feasible leave (at this scale every seed
    # site is the sole definer of some referenced attribute).
    "fleet-64": dict(
        workload_seed=1996, workers=64, queries=512, seed=1996,
        strategy="BL", spec="join@5,leave@30,rename@60", lag=2.0,
        min_transitions=6,
    ),
}
QUICK_NAMES = ("calm-lag50ms", "churn-lag1s")
FULL_NAMES = tuple(SCENARIOS)

#: What --check compares (all deterministic), with the deterministic
#: subfields of the report's ``evolution`` block.
SECTIONS = (
    ("scenario", "cells", ("scenario",), (
        "completed", "shed", "makespan_s", "throughput_qps",
        "latency_p50_s", "latency_p95_s", "latency_p99_s", "verified",
        "evolution.plan", "evolution.transitions", "evolution.final_epoch",
        "evolution.queries_straddled", "evolution.propagation_lag_mean_s",
    )),
)


def build_plan(spec: dict, workload, mix) -> EvolutionPlan:
    plan = EvolutionPlan.from_spec(
        spec["spec"], seed=spec["seed"], propagation_lag_s=spec["lag"]
    )
    resolved = resolve_auto(
        plan, workload.system, workload.query,
        extra_referenced=mix_referenced_attributes(mix),
    )
    if not resolved.active:
        raise AssertionError(f"no feasible evolution events for {spec}")
    return resolved


def run_scenario(name: str, spec: dict, verify: bool = True) -> dict:
    """One churned scenario on a fresh federation; returns the JSON cell."""
    workload = make_workload(spec["workload_seed"])
    mix = default_mix(workload)
    plan = build_plan(spec, workload, mix)
    engine = TrafficEngine(
        workload.system,
        mix,
        workers=spec["workers"],
        total_queries=spec["queries"],
        seed=spec["seed"],
        strategy=spec["strategy"],
        evolution=plan,
        system_factory=lambda: make_workload(spec["workload_seed"]).system,
    )
    start = time.perf_counter()
    report = engine.run(verify=verify)
    wall_s = time.perf_counter() - start
    _assert_contract(name, spec, report)
    print(f"# {name}: wall {wall_s:.1f}s", file=sys.stderr)
    cell = {
        "scenario": name,
        "workload_seed": spec["workload_seed"],
        "propagation_lag_s": spec["lag"],
        "straddle_rate": round(
            report.queries_straddled / max(1, report.completed), 6
        ),
    }
    cell.update(report.to_dict())
    return cell


def _assert_contract(name: str, spec: dict, report) -> None:
    """Invariants every churned scenario must satisfy."""
    if report.violations:
        raise AssertionError(
            f"{name}: {len(report.violations)} serial-verification "
            f"violation(s), e.g. {report.violations[0]}"
        )
    if report.completed != report.verified:
        raise AssertionError(
            f"{name}: verified {report.verified} of {report.completed} "
            "completed queries"
        )
    expected = 2 * len(
        EvolutionPlan.from_spec(spec["spec"]).events
    )
    if report.evo_transitions > expected:
        raise AssertionError(
            f"{name}: {report.evo_transitions} transitions from "
            f"{expected // 2} planned events"
        )
    if report.evo_transitions == 0:
        raise AssertionError(f"{name}: evolution plan never fired")
    if report.evo_transitions < spec.get("min_transitions", 0):
        raise AssertionError(
            f"{name}: only {report.evo_transitions} transitions applied, "
            f"expected at least {spec['min_transitions']}"
        )
    if report.final_epoch != report.evo_transitions:
        raise AssertionError(
            f"{name}: final epoch {report.final_epoch} != "
            f"{report.evo_transitions} applied transitions"
        )


def sweep(names, verify: bool = True) -> dict:
    cells = [
        run_scenario(name, SCENARIOS[name], verify=verify)
        for name in names
    ]
    # The sweep's point: wider windows straddle more queries.
    by_name = {c["scenario"]: c for c in cells}
    if "calm-lag50ms" in by_name and "churn-lag1s" in by_name:
        calm = by_name["calm-lag50ms"]["straddle_rate"]
        churn = by_name["churn-lag1s"]["straddle_rate"]
        if churn < calm:
            raise AssertionError(
                f"straddle rate fell as windows widened "
                f"({calm} -> {churn})"
            )
    return {"schema": SCHEMA, "scenarios": list(names), "cells": cells}


def render(result: dict) -> str:
    headers = [
        "scenario", "workers", "done", "lag (s)", "epochs",
        "straddled", "rate", "q/s", "p95 (s)", "verified",
    ]
    rows = [
        [
            c["scenario"], str(c["workers"]), str(c["completed"]),
            f"{c['propagation_lag_s']:.2f}",
            str(c["evolution"]["final_epoch"]),
            str(c["evolution"]["queries_straddled"]),
            f"{c['straddle_rate']:.3f}",
            f"{c['throughput_qps']:.2f}",
            f"{c['latency_p95_s']:.3f}",
            str(c["verified"]),
        ]
        for c in result["cells"]
    ]
    return format_table(headers, rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="quick scenario pair (CI smoke)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip serial answer verification")
    add_baseline_args(parser)
    args = parser.parse_args(argv)

    names = QUICK_NAMES if args.quick else FULL_NAMES
    result = sweep(names, verify=not args.no_verify)
    return finish("evolution", result, render(result), args, SECTIONS)


def test_evolution_sweep(benchmark):
    """pytest-benchmark entry point (quick scenarios)."""
    result = run_once(benchmark, lambda: sweep(QUICK_NAMES))
    for cell in result["cells"]:
        assert cell["violations"] == []


if __name__ == "__main__":
    sys.exit(main())
