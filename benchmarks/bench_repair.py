"""Repair bench: recertify-vs-reexecute A/B on degraded answers.

Degrades the school federation's Q1 under every single-site loss, for
each strategy, then recovers the answer both ways:

* **repair** — ``engine.recertify(report)``: discharge the degraded
  answer's condition atoms incrementally, contacting only the sites
  named in them (messages from ``RepairSummary.messages``);
* **re-execute** — run the full query again on the healed federation
  (messages from ``metrics.work.messages``).

The acceptance contract, asserted per cell: both routes produce the
fault-free baseline answer byte-for-byte (repair soundness), and
repair spends **strictly fewer messages** than re-execution in every
scenario — that delta is the point of conditional answers.

A second section exercises *chained* partial recovery: degrade with
two sites down, repair while one is still dark (stays conditional,
stays repairable), then repair again fully healed.  Each phase's
messages are recorded; the contract there is convergence — the final
answer equals the fault-free baseline — not the message bound (with
several extents to re-fetch, repair can legitimately approach a
re-run's cost).

Runs standalone (CI calls it twice, diffs the JSON for determinism,
and checks it against the committed baseline)::

    PYTHONPATH=src python benchmarks/bench_repair.py \
        --json out.json --check benchmarks/results/BENCH_repair.json

The JSON output is fully deterministic: no timestamps, no wall-clock
fields, no dict-order dependence.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

if __package__ in (None, ""):  # runnable as a plain script from anywhere
    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    _SRC = pathlib.Path(__file__).parent.parent / "src"
    if _SRC.is_dir():
        sys.path.insert(0, str(_SRC))

from bench_common import (
    add_baseline_args,
    answer_fingerprint,
    finish,
    run_once,
    write_result,
)

from repro.bench.reporting import format_table
from repro.core.engine import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.faults import FaultPlan, OutageWindow
from repro.workload.paper_example import Q1_TEXT, build_school_federation

SCHEMA = "BENCH_repair/v1"
STRATEGIES = ("CA", "BL", "PL")

#: Chained-recovery scenario: both sites down, then DB2 heals first.
CHAINED_DOWN = ("DB2", "DB3")


def _plan(*sites):
    return FaultPlan(outages=tuple(
        OutageWindow(site, 0.0, 1e9) for site in sites
    ))


def run_cell(strategy, site, seed):
    """One (strategy, single-site-loss) degradation repaired both ways."""
    engine = GlobalQueryEngine(build_school_federation())
    degraded = engine.execute(
        Q1_TEXT,
        strategy,
        options=ExecutionOptions(fault_plan=_plan(site), fault_seed=seed),
    )
    if degraded.availability.complete:
        raise AssertionError(f"loss:{site}/{strategy}: nothing degraded")
    repaired = engine.recertify(degraded)
    summary = repaired.repair_summary

    # The re-execution route, on a fresh healed federation (no caches
    # warmed by the degraded run).
    reexec = GlobalQueryEngine(build_school_federation()).execute(
        Q1_TEXT, strategy
    )

    baseline_digest = answer_fingerprint(reexec.results)
    repaired_digest = answer_fingerprint(repaired.results)
    if repaired_digest != baseline_digest:
        raise AssertionError(
            f"loss:{site}/{strategy}: repaired answer {repaired_digest} "
            f"!= fault-free baseline {baseline_digest}"
        )
    if summary.messages >= reexec.metrics.work.messages:
        raise AssertionError(
            f"loss:{site}/{strategy}: repair spent {summary.messages} "
            f"messages, re-execution only "
            f"{reexec.metrics.work.messages} — repair must be cheaper"
        )
    return {
        "scenario": f"loss:{site}",
        "strategy": strategy,
        "certain_degraded": len(degraded.results.certain),
        "maybe_degraded": len(degraded.results.maybe),
        "repair_messages": summary.messages,
        "reexec_messages": reexec.metrics.work.messages,
        "saved_frac": round(
            1 - summary.messages / reexec.metrics.work.messages, 4
        ),
        "promoted": summary.promoted,
        "dropped": summary.dropped,
        "discharged": summary.discharged,
        "sites_contacted": ",".join(summary.sites_contacted),
        "fully_repaired": summary.fully_repaired,
        "answer_digest": repaired_digest,
    }


def run_chained(strategy, seed):
    """Two-phase recovery: DB2+DB3 down, DB2 heals, then DB3."""
    engine = GlobalQueryEngine(build_school_federation())
    degraded = engine.execute(
        Q1_TEXT,
        strategy,
        options=ExecutionOptions(
            fault_plan=_plan(*CHAINED_DOWN), fault_seed=seed
        ),
    )
    partial = engine.recertify(
        degraded,
        options=ExecutionOptions(fault_plan=_plan(CHAINED_DOWN[1])),
    )
    full = engine.recertify(partial)
    baseline = GlobalQueryEngine(build_school_federation()).execute(
        Q1_TEXT, strategy
    )
    digest = answer_fingerprint(full.results)
    if digest != answer_fingerprint(baseline.results):
        raise AssertionError(
            f"chained/{strategy}: converged answer differs from the "
            "fault-free baseline"
        )
    if partial.repair_summary.fully_repaired:
        raise AssertionError(
            f"chained/{strategy}: phase 1 claims full repair with "
            f"{CHAINED_DOWN[1]} still down"
        )
    return {
        "strategy": strategy,
        "down": "+".join(CHAINED_DOWN),
        "phase1_messages": partial.repair_summary.messages,
        "phase1_outstanding": partial.repair_summary.outstanding,
        "phase1_sites": ",".join(partial.repair_summary.sites_contacted),
        "phase2_messages": full.repair_summary.messages,
        "phase2_sites": ",".join(full.repair_summary.sites_contacted),
        "converged": full.repair_summary.fully_repaired,
        "answer_digest": digest,
    }


def sweep(seed):
    sites = sorted(build_school_federation().databases)
    rows = [
        run_cell(strategy, site, seed)
        for site in sites
        for strategy in STRATEGIES
    ]
    chained = [run_chained(strategy, seed) for strategy in STRATEGIES]
    return {
        "schema": SCHEMA,
        "query": Q1_TEXT,
        "seed": seed,
        "sites": sites,
        "rows": rows,
        "chained": chained,
    }


def render(result):
    headers = ["scenario", "strategy", "repair msgs", "reexec msgs",
               "saved", "promoted", "dropped", "discharged", "sites"]
    table_rows = [
        [row["scenario"], row["strategy"], str(row["repair_messages"]),
         str(row["reexec_messages"]), f"{row['saved_frac']:.0%}",
         str(row["promoted"]), str(row["dropped"]),
         str(row["discharged"]), row["sites_contacted"]]
        for row in result["rows"]
    ]
    text = format_table(headers, table_rows)
    headers = ["strategy", "down", "phase1 msgs", "outstanding",
               "phase2 msgs", "converged"]
    table_rows = [
        [row["strategy"], row["down"], str(row["phase1_messages"]),
         str(row["phase1_outstanding"]), str(row["phase2_messages"]),
         "yes" if row["converged"] else "no"]
        for row in result["chained"]
    ]
    return text + "\n\nchained partial recovery:\n" + \
        format_table(headers, table_rows)


#: What --check compares (all deterministic).
SECTIONS = (
    ("repair", "rows", ("scenario", "strategy"), (
        "certain_degraded", "maybe_degraded", "repair_messages",
        "reexec_messages", "saved_frac", "promoted", "dropped",
        "discharged", "sites_contacted", "fully_repaired", "answer_digest",
    )),
    ("chained", "chained", ("strategy",), (
        "phase1_messages", "phase1_outstanding", "phase1_sites",
        "phase2_messages", "phase2_sites", "converged", "answer_digest",
    )),
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    add_baseline_args(parser)
    args = parser.parse_args(argv)

    result = sweep(args.seed)
    return finish("repair", result, render(result), args, SECTIONS)


def test_repair_sweep(benchmark):
    """pytest-benchmark entry point."""
    result = run_once(benchmark, lambda: sweep(seed=0))
    write_result("repair", render(result))
    # run_cell/run_chained already asserted soundness and the message
    # bound; spot-check the sweep covered every strategy.
    assert {r["strategy"] for r in result["rows"]} == set(STRATEGIES)
    assert all(r["converged"] for r in result["chained"])


if __name__ == "__main__":
    sys.exit(main())
