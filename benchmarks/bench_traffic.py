"""Traffic bench: concurrent workload throughput + latency percentiles.

Drives the :mod:`repro.traffic` engine over a set of scenarios — N
seeded workers interleaving a weighted point/scan/paper query mix
on one simulated clock against one shared federation, behind an
admission gate — and reports, per scenario:

* throughput (completed queries per simulated second) and the p50/p95/
  p99 submission-to-finish latency on the traffic clock;
* shed count (admission-control refusals) and gate queueing totals;
* shared-cache traffic: per-run hit/miss totals and cross-worker hits;
* serial verification: every distinct executed query is re-run serially
  on a fresh engine and its answer digest must match the interleaved
  run's (``violations`` must be 0).

Everything reported is a pure function of the scenario seeds: the JSON
output carries no wall-clock and is byte-identical across runs.  CI
runs the quick scenarios twice, diffs the two JSON files, and checks
against the committed baseline::

    PYTHONPATH=src python benchmarks/bench_traffic.py --quick \
        --json BENCH_traffic.json --check benchmarks/results/BENCH_traffic.json

Ad-hoc runs (``--workers 64 --queries 2000 --seed 1996``) execute one
scenario with those knobs (--queries is the *total* across workers).
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
from repro.traffic import AdmissionControl, TrafficEngine, default_mix

SCHEMA = "BENCH_traffic/v1"

#: Named scenarios.  ``queries`` is the total across all workers.  The
#: quick pair is a strict subset of the full set, so the CI smoke run
#: checks against the same committed baseline.
SCENARIOS = {
    "smooth-4": dict(
        workload_seed=1996, workers=4, queries=96, seed=101,
        strategy="BL", max_in_flight=8, queue_depth=32,
    ),
    "contended-8": dict(
        workload_seed=1996, workers=8, queries=128, seed=202,
        strategy="BL", max_in_flight=2, queue_depth=4,
    ),
    "signatures-8": dict(
        workload_seed=304, workers=8, queries=160, seed=303,
        strategy="BL-S", max_in_flight=4, queue_depth=16,
    ),
    "fleet-64": dict(
        workload_seed=1996, workers=64, queries=2000, seed=1996,
        strategy="BL", max_in_flight=8, queue_depth=32,
    ),
}
QUICK_NAMES = ("smooth-4", "contended-8")
FULL_NAMES = tuple(SCENARIOS)

#: What --check compares (all deterministic; there is no wall clock
#: anywhere in the JSON).
SECTIONS = (
    ("scenario", "cells", ("scenario",), (
        "completed", "shed", "makespan_s", "throughput_qps",
        "latency_p50_s", "latency_p95_s", "latency_p99_s", "cache_hits",
        "cache_misses", "shared_hits", "verified",
    )),
)


def run_scenario(name: str, spec: dict, verify: bool = True) -> dict:
    """One scenario on a fresh federation; returns the JSON cell."""
    workload = make_workload(spec["workload_seed"])
    engine = TrafficEngine(
        workload.system,
        default_mix(workload),
        workers=spec["workers"],
        total_queries=spec["queries"],
        seed=spec["seed"],
        strategy=spec["strategy"],
        admission=AdmissionControl(
            max_in_flight=spec["max_in_flight"],
            queue_depth=spec["queue_depth"],
        ),
    )
    start = time.perf_counter()
    report = engine.run(verify=verify)
    wall_s = time.perf_counter() - start
    _assert_contract(name, spec, report)
    print(f"# {name}: wall {wall_s:.1f}s", file=sys.stderr)
    cell = {"scenario": name, "workload_seed": spec["workload_seed"]}
    cell.update(report.to_dict())
    return cell


def _assert_contract(name: str, spec: dict, report) -> None:
    """Invariants every scenario must satisfy."""
    if report.violations:
        raise AssertionError(
            f"{name}: {len(report.violations)} serial-verification "
            f"violation(s), e.g. {report.violations[0]}"
        )
    if report.completed + report.shed != spec["queries"]:
        raise AssertionError(
            f"{name}: {report.completed} completed + {report.shed} shed "
            f"!= {spec['queries']} submitted"
        )
    if report.completed != report.verified:
        raise AssertionError(
            f"{name}: verified {report.verified} of {report.completed} "
            "completed queries"
        )
    if report.completed and report.throughput_qps <= 0:
        raise AssertionError(f"{name}: no throughput reported")
    if report.shed != report.gate_rejected:
        raise AssertionError(
            f"{name}: shed records ({report.shed}) disagree with the "
            f"gate's rejection count ({report.gate_rejected})"
        )
    per_worker_hits = sum(w.cache_hits for w in report.per_worker)
    per_worker_misses = sum(w.cache_misses for w in report.per_worker)
    if (per_worker_hits, per_worker_misses) != (
        report.cache_hits, report.cache_misses
    ):
        raise AssertionError(
            f"{name}: per-worker cache deltas "
            f"({per_worker_hits}/{per_worker_misses}) do not sum to the "
            f"global delta ({report.cache_hits}/{report.cache_misses})"
        )


def sweep(names, verify: bool = True) -> dict:
    cells = [
        run_scenario(name, SCENARIOS[name], verify=verify)
        for name in names
    ]
    contended = [c for c in cells if c["scenario"] == "contended-8"]
    if contended and contended[0]["shed"] == 0:
        raise AssertionError(
            "contended-8 shed nothing: admission control is not engaging"
        )
    return {"schema": SCHEMA, "scenarios": list(names), "cells": cells}


def render(result: dict) -> str:
    headers = [
        "scenario", "workers", "queries", "done", "shed", "q/s",
        "p50 (s)", "p95 (s)", "p99 (s)", "hits", "shared",
    ]
    rows = [
        [
            c["scenario"], str(c["workers"]), str(c["queries_total"]),
            str(c["completed"]), str(c["shed"]),
            f"{c['throughput_qps']:.2f}",
            f"{c['latency_p50_s']:.3f}", f"{c['latency_p95_s']:.3f}",
            f"{c['latency_p99_s']:.3f}",
            str(c["cache_hits"]), str(c["shared_hits"]),
        ]
        for c in result["cells"]
    ]
    return format_table(headers, rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="quick scenario pair (CI smoke)")
    parser.add_argument("--workers", type=int, default=None,
                        help="ad-hoc run: worker count")
    parser.add_argument("--queries", type=int, default=None,
                        help="ad-hoc run: total queries across workers")
    parser.add_argument("--seed", type=int, default=1996,
                        help="ad-hoc run: root traffic seed")
    parser.add_argument("--strategy", default="BL",
                        help="ad-hoc run: execution strategy")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip serial answer verification")
    add_baseline_args(parser)
    args = parser.parse_args(argv)

    verify = not args.no_verify
    if args.workers is not None or args.queries is not None:
        workers = args.workers or 8
        queries = args.queries or 50 * workers
        name = f"adhoc-{workers}x{queries}"
        spec = dict(
            workload_seed=1996, workers=workers, queries=queries,
            seed=args.seed, strategy=args.strategy,
            max_in_flight=8, queue_depth=32,
        )
        result = {
            "schema": SCHEMA,
            "scenarios": [name],
            "cells": [run_scenario(name, spec, verify=verify)],
        }
    else:
        names = QUICK_NAMES if args.quick else FULL_NAMES
        result = sweep(names, verify=verify)

    return finish("traffic", result, render(result), args, SECTIONS)


def test_traffic_sweep(benchmark):
    """pytest-benchmark entry point (quick scenarios)."""
    result = run_once(benchmark, lambda: sweep(QUICK_NAMES))
    for cell in result["cells"]:
        assert cell["violations"] == []


if __name__ == "__main__":
    sys.exit(main())
