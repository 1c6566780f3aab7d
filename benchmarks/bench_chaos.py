"""Chaos bench: fault rate x strategy, measuring time AND completeness.

Sweeps the school federation's Q1 through CA/BL/PL under

* the fault-free reference,
* every single-site loss (``FaultPlan.single_site_loss``), and
* random chaos plans at increasing per-site outage rates
  (``FaultPlan.chaos``),

and reports, per cell: total/response time, certain/maybe counts, and
*completeness* — the certain count as a fraction of that strategy's
fault-free certain count.  This is the experiment behind the headline
robustness claim: losing one site collapses CA's fused outerjoin to
zero certainty while BL/PL still certify every row whose provenance
avoids the dead site.

A second sweep exercises replica failover: every component->component
link degrades (global-site links stay clean — the sites themselves are
alive), and each localized strategy runs under it.  The contract
enforced per cell: a fully-recovered answer is byte-identical to the
fault-free run; and some storm cell fails over at least one check and
fully recovers.

Runs standalone (CI calls it twice, diffs the JSON for determinism, and
checks it against the committed baseline)::

    PYTHONPATH=src python benchmarks/bench_chaos.py --quick \
        --json out.json --check benchmarks/results/BENCH_chaos.json

The JSON output is fully determined by ``(--seed, --rates, --quick)``:
no timestamps, no dict-order dependence.
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
)

from repro.bench.reporting import format_table
from repro.core.engine import GlobalQueryEngine
from repro.faults import FaultPlan
from repro.workload.paper_example import Q1_TEXT, build_school_federation

SCHEMA = "BENCH_chaos/v1"
STRATEGIES = ("CA", "BL", "PL")
FULL_RATES = (0.25, 0.5, 0.75, 1.0)
QUICK_RATES = (0.5, 1.0)

#: Failover sweep: loss probability applied to every
#: component->component link (the global site stays reachable, so each
#: skipped check has an isomeric copy a relay can still certify).
LOCALIZED = ("BL", "PL")
FULL_STORM_RATES = (0.5, 0.9, 0.97)
QUICK_STORM_RATES = (0.9, 0.97)
FAILOVER_SEED = 0


#: Chaos window horizon, matched to Q1's simulated timescale (~80 ms)
#: so random windows actually land inside the execution.
CHAOS_HORIZON = 0.1


def _scenarios(sites, rates, seed):
    """(label, plan) pairs; the fault-free reference comes first."""
    yield "none", None
    for site in sites:
        yield f"loss:{site}", FaultPlan.single_site_loss(site, seed=seed)
    for rate in rates:
        yield f"chaos:{rate:g}", FaultPlan.chaos(
            sites, rate, seed=seed, horizon=CHAOS_HORIZON
        )


def _assert_fault_visibility(report, plan):
    """Every faulted run must surface its faults in the observability
    layer — the bench doubles as a smoke test for that contract."""
    events = {event.name for event in report.metrics.events}
    if "faults.plan" not in events:
        raise AssertionError("active plan left no faults.plan event")
    if plan.outages and not report.metrics.fault_windows:
        raise AssertionError("outages missing from metrics.fault_windows")
    snapshot = report.registry.snapshot()
    for name in ("work.retries", "work.timeouts", "work.messages_lost"):
        if name not in snapshot:
            raise AssertionError(f"counter {name} missing from registry")


def run_cell(strategy, plan, seed):
    """One (strategy, scenario) execution on a fresh federation."""
    engine = GlobalQueryEngine(build_school_federation())
    report = engine.execute(
        Q1_TEXT, strategy,
        options=engine.options.with_(fault_plan=plan, fault_seed=seed),
    )
    if plan is not None and plan.active:
        _assert_fault_visibility(report, plan)
    return {
        "certain": len(report.results.certain),
        "maybe": len(report.results.maybe),
        "total_s": round(report.total_time, 6),
        "response_s": round(report.response_time, 6),
        "retries": report.metrics.work.retries,
        "timeouts": report.metrics.work.timeouts,
        "complete": report.availability.complete,
        "availability": report.availability.summary(),
    }


def sweep(rates, seed, storm_rates):
    sites = sorted(build_school_federation().databases)
    rows = []
    reference = {}
    for label, plan in _scenarios(sites, rates, seed):
        for strategy in STRATEGIES:
            cell = run_cell(strategy, plan, seed)
            if label == "none":
                reference[strategy] = cell["certain"]
            base = reference[strategy]
            cell["completeness"] = (
                round(cell["certain"] / base, 4) if base else 1.0
            )
            rows.append({"scenario": label, "strategy": strategy, **cell})
    # The acceptance contrast: under any single-site loss CA certifies
    # no more than the localized strategies do.
    by_key = {(r["scenario"], r["strategy"]): r for r in rows}
    for site in sites:
        if by_key[(f"loss:{site}", "CA")]["complete"]:
            continue
        ca, bl, pl = (
            by_key[(f"loss:{site}", strategy)]["certain"]
            for strategy in ("CA", "BL", "PL")
        )
        if not (ca <= bl and ca <= pl):
            raise AssertionError(
                f"loss:{site}: CA certified {ca} > localized ({bl}/{pl})"
            )
    return {
        "schema": SCHEMA,
        "query": Q1_TEXT,
        "seed": seed,
        "sites": sites,
        "rows": rows,
        "failover": failover_sweep(sites, storm_rates),
    }


# --- failover A/B sweep ------------------------------------------------------


def _storm_plan(sites, loss):
    """All component->component links at *loss*; global links clean."""
    spec = ",".join(
        f"link:{src}>{dst}:loss{loss:g}"
        for src in sites
        for dst in sites
        if src != dst
    )
    return FaultPlan.from_spec(spec)


def run_failover_cell(strategy, plan):
    """One (strategy, storm) execution."""
    engine = GlobalQueryEngine(build_school_federation())
    report = engine.execute(
        Q1_TEXT, strategy,
        options=engine.options.with_(
            fault_plan=plan, fault_seed=FAILOVER_SEED
        ),
    )
    avail = report.availability
    return {
        "certain": len(report.results.certain),
        "maybe": len(report.results.maybe),
        "answer_digest": answer_fingerprint(report.results),
        "checks_skipped": avail.checks_skipped,
        "checks_failed_over": avail.checks_failed_over,
        "fully_recovered": avail.fully_recovered,
        "total_s": round(report.total_time, 6),
        "response_s": round(report.response_time, 6),
        "availability": avail.summary(),
    }


def failover_sweep(sites, storm_rates):
    rows = []
    baseline_digest = {}
    for strategy in LOCALIZED:
        engine = GlobalQueryEngine(build_school_federation())
        clean = engine.execute(Q1_TEXT, strategy)
        baseline_digest[strategy] = answer_fingerprint(clean.results)
        rows.append({
            "loss": 0.0,
            "strategy": strategy,
            **run_failover_cell(strategy, None),
        })
    for loss in storm_rates:
        plan = _storm_plan(sites, loss)
        for strategy in LOCALIZED:
            rows.append({
                "loss": loss,
                "strategy": strategy,
                **run_failover_cell(strategy, plan),
            })
    _assert_failover_contract(rows, baseline_digest)
    return {
        "seed": FAILOVER_SEED,
        "rates": list(storm_rates),
        "baseline_digest": baseline_digest,
        "rows": rows,
    }


def _assert_failover_contract(rows, baseline_digest):
    """The acceptance contract of replica failover, cell by cell."""
    failed_over_and_recovered = False
    for row in rows:
        loss, strategy = row["loss"], row["strategy"]
        if loss == 0.0:
            continue
        if row["fully_recovered"]:
            # Every lost link has a live relay (only component links
            # are down), so some cell must fail over and recover.
            if row["checks_failed_over"] > 0:
                failed_over_and_recovered = True
            expected = baseline_digest[strategy]
            if row["answer_digest"] != expected:
                raise AssertionError(
                    f"loss{loss:g}/{strategy}: recovered answer "
                    f"digest {row['answer_digest']} != fault-free "
                    f"{expected}"
                )
    if not failed_over_and_recovered:
        raise AssertionError(
            "no storm cell failed over a check and fully recovered — "
            "the sweep exercises nothing"
        )


def render(result):
    headers = ["scenario", "strategy", "certain", "maybe", "completeness",
               "total (s)", "response (s)", "retries", "availability"]
    table_rows = [
        [row["scenario"], row["strategy"], str(row["certain"]),
         str(row["maybe"]), f"{row['completeness']:.2f}",
         f"{row['total_s']:.3f}", f"{row['response_s']:.3f}",
         str(row["retries"]), row["availability"]]
        for row in result["rows"]
    ]
    text = format_table(headers, table_rows)
    headers = ["link loss", "strategy", "certain", "maybe",
               "skipped", "failover", "recovered", "response (s)"]
    table_rows = [
        [f"{row['loss']:g}", row["strategy"],
         str(row["certain"]), str(row["maybe"]),
         str(row["checks_skipped"]), str(row["checks_failed_over"]),
         "yes" if row["fully_recovered"] else "no",
         f"{row['response_s']:.3f}"]
        for row in result["failover"]["rows"]
    ]
    return text + "\n\nfailover (component-link storms):\n" + \
        format_table(headers, table_rows)


#: What --check compares (all deterministic; the chaos and failover
#: sweeps carry no wall-clock fields at all).
SECTIONS = (
    ("chaos", "rows", ("scenario", "strategy"), (
        "certain", "maybe", "completeness", "total_s", "response_s",
        "retries", "availability",
    )),
    ("failover", "failover.rows", ("loss", "strategy"), (
        "certain", "maybe", "answer_digest", "checks_skipped",
        "checks_failed_over", "fully_recovered", "total_s", "response_s",
    )),
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer chaos rates (CI smoke)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rates", default="",
                        help="comma-separated chaos rates, e.g. 0.25,0.5")
    add_baseline_args(parser)
    args = parser.parse_args(argv)

    if args.rates:
        rates = tuple(float(r) for r in args.rates.split(","))
    else:
        rates = QUICK_RATES if args.quick else FULL_RATES
    storm_rates = QUICK_STORM_RATES if args.quick else FULL_STORM_RATES

    result = sweep(rates, args.seed, storm_rates)
    return finish("chaos", result, render(result), args, SECTIONS)


def test_chaos_sweep(benchmark):
    """pytest-benchmark entry point (quick rates)."""
    result = run_once(
        benchmark, lambda: sweep(QUICK_RATES, seed=7,
                                 storm_rates=QUICK_STORM_RATES)
    )
    losses = [r for r in result["rows"] if r["scenario"].startswith("loss:")]
    assert any(not r["complete"] for r in losses)
    # CA never certifies more than BL/PL under a single-site loss.
    by_key = {(r["scenario"], r["strategy"]): r for r in result["rows"]}
    for site in result["sites"]:
        assert (by_key[(f"loss:{site}", "CA")]["certain"]
                <= by_key[(f"loss:{site}", "BL")]["certain"])
    # The failover contract already ran inside sweep(); spot-check that
    # at least one storm cell fully recovered the fault-free answer.
    fo_rows = result["failover"]["rows"]
    assert any(r["fully_recovered"] for r in fo_rows)


if __name__ == "__main__":
    sys.exit(main())
