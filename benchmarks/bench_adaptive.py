"""Adaptive-planner bench: AUTO's pick accuracy, plus prune savings.

Two sweeps over the school federation's Q1:

* **pick accuracy** — for the fault-free reference and a ladder of
  peer-link storms (DB1->DB3 and DB2->DB3 degraded: the localized
  strategies pay the stalls on their assistant-check exchanges, CA never
  touches those links), run AUTO under ``planner=static`` and score the
  pick against the ground truth — the argmin of the *concretely
  executed* CA/BL/PL response times under the same plan.  Three warm-up
  executions precede the measured one; the contract is that they pick
  what it picks (AUTO reads no state an earlier execution left behind).
* **constraint-prune savings** — the two sound prunes A/B'd against
  ``planner=static``: a range-pruned site (``s-no >= 810000`` proves
  DB1's whole block empty) and a provably-UNKNOWN assistant check
  (DB2's ``speciality`` column nulled).  The contract per cell: the
  answer digest is identical, the prune counters fire, and the pruned
  run is never slower.

Runs standalone (CI calls it twice, diffs the JSON for determinism, and
checks it against the committed baseline)::

    PYTHONPATH=src python benchmarks/bench_adaptive.py --quick \
        --json out.json --check benchmarks/results/BENCH_adaptive.json

The JSON output is fully determined by ``(--seed, --storms, --quick)``:
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
from repro.core.query import Predicate, Query
from repro.faults.plan import FaultPlan, LinkFault
from repro.objectdb.values import NULL
from repro.workload.paper_example import Q1_TEXT, build_school_federation

SCHEMA = "BENCH_adaptive/v1"

#: Strategies executed concretely per scenario to establish ground truth.
GROUND = ("CA", "BL", "PL")

#: Peer-link loss ladder (with an 8x latency multiplier on survivors).
FULL_STORMS = (0.3, 0.6, 0.8)
QUICK_STORMS = (0.6,)
PEER_MULTIPLIER = 8.0

#: Executions under the same plan before the measured pick.
WARMUPS = 3


def _storm_plan(seed, loss):
    """Degrade only the peer links into DB3 — the check-exchange paths."""
    return FaultPlan(seed=seed, links=(
        LinkFault(src="DB1", dst="DB3",
                  latency_multiplier=PEER_MULTIPLIER, loss=loss),
        LinkFault(src="DB2", dst="DB3",
                  latency_multiplier=PEER_MULTIPLIER, loss=loss),
    ))


def _scenarios(storms, seed):
    yield "none", None
    for loss in storms:
        yield f"peer:{loss:g}", _storm_plan(seed, loss)


def _event_attrs(report, name):
    for event in report.metrics.events:
        if event.name == name:
            return dict(event.attrs)
    raise AssertionError(f"missing {name} event")


def ground_truth(plan):
    """Concrete response time per strategy under *plan* (fresh engines)."""
    concrete = {}
    for strategy in GROUND:
        engine = GlobalQueryEngine(build_school_federation())
        options = engine.options
        if plan is not None:
            options = options.with_(fault_plan=plan)
        report = engine.execute(Q1_TEXT, strategy, options=options)
        concrete[strategy] = round(report.response_time, 6)
    return concrete


def _choice(report):
    return _event_attrs(report, "auto.predict")["choice"]


def auto_cell(mode, plan, concrete):
    """One measured AUTO pick after WARMUPS executions on a fresh engine.

    The warm-ups run under the same plan and mode; each must pick what
    the measured run picks.
    """
    engine = GlobalQueryEngine(build_school_federation())
    options = engine.options.with_(planner=mode)
    if plan is not None:
        options = options.with_(fault_plan=plan)
    warm = [_choice(engine.execute(Q1_TEXT, "AUTO", options=options))
            for _ in range(WARMUPS)]
    report = engine.execute(Q1_TEXT, "AUTO", options=options)
    choice = _choice(report)
    if any(pick != choice for pick in warm):
        raise AssertionError(
            f"AUTO's pick moved across executions: {warm} then {choice}"
        )
    best = min(concrete.values())
    return {
        "mode": mode,
        "choice": choice,
        "accurate": concrete[choice] <= best + 1e-9,
        # 1 + strategies that ran strictly faster than the pick.
        "rank": 1 + sum(t < concrete[choice] for t in concrete.values()),
        "certain": len(report.results.certain),
        "maybe": len(report.results.maybe),
        "answer_digest": answer_fingerprint(report.results),
        "response_s": round(report.response_time, 6),
    }


def accuracy_sweep(storms, seed):
    rows = []
    for label, plan in _scenarios(storms, seed):
        concrete = ground_truth(plan)
        rows.append({
            "scenario": label,
            "ground_truth": min(concrete, key=concrete.get),
            "concrete": concrete,
            **auto_cell("static", plan, concrete),
        })
    return rows


# --- constraint-prune savings ------------------------------------------------


def _site_prune_setup():
    system = build_school_federation()
    query = Query.conjunctive(
        "Student", ["name"], [Predicate.of("s-no", ">=", 810000)]
    )
    return system, query


def _check_prune_setup():
    system = build_school_federation()
    db2 = system.db("DB2")
    for obj in db2.extent("Teacher").values():
        obj.values["speciality"] = NULL
    db2.note_mutation("Teacher")
    return system, Q1_TEXT


PRUNE_CASES = (
    ("site-prune", _site_prune_setup),
    ("check-prune", _check_prune_setup),
)


def prune_sweep():
    rows = []
    for label, setup in PRUNE_CASES:
        cells = {}
        for mode in ("static", "constraints"):
            system, query = setup()
            engine = GlobalQueryEngine(system)
            report = engine.execute(
                query, "BL", options=engine.options.with_(planner=mode)
            )
            cells[mode] = {
                "case": label,
                "mode": mode,
                "certain": len(report.results.certain),
                "maybe": len(report.results.maybe),
                "answer_digest": answer_fingerprint(report.results),
                "sites_pruned": report.metrics.work.sites_pruned,
                "checks_pruned": report.metrics.work.checks_pruned,
                "assistants_checked":
                    report.metrics.work.assistants_checked,
                "objects_scanned": report.metrics.work.objects_scanned,
                "response_s": round(report.response_time, 6),
                "total_s": round(report.total_time, 6),
            }
        static, pruned = cells["static"], cells["constraints"]
        if pruned["answer_digest"] != static["answer_digest"]:
            raise AssertionError(f"{label}: pruning changed the answer")
        if pruned["sites_pruned"] + pruned["checks_pruned"] == 0:
            raise AssertionError(f"{label}: no prune fired")
        if pruned["total_s"] > static["total_s"]:
            raise AssertionError(
                f"{label}: pruned run slower ({pruned['total_s']} > "
                f"{static['total_s']})"
            )
        rows.extend([static, pruned])
    return rows


def sweep(storms, seed):
    return {
        "schema": SCHEMA,
        "query": Q1_TEXT,
        "seed": seed,
        "storms": list(storms),
        "warmups": WARMUPS,
        "accuracy": accuracy_sweep(storms, seed),
        "prunes": prune_sweep(),
    }


def render(result):
    headers = ["scenario", "mode", "pick", "truth", "accurate",
               "rank", "response (s)", "answer"]
    table_rows = [
        [row["scenario"], row["mode"], row["choice"], row["ground_truth"],
         "yes" if row["accurate"] else "NO",
         str(row["rank"]), f"{row['response_s']:.3f}",
         f"{row['certain']}+{row['maybe']}m"]
        for row in result["accuracy"]
    ]
    text = format_table(headers, table_rows)
    headers = ["case", "mode", "sites pruned", "checks pruned",
               "assistants", "scanned", "total (s)", "answer"]
    table_rows = [
        [row["case"], row["mode"], str(row["sites_pruned"]),
         str(row["checks_pruned"]), str(row["assistants_checked"]),
         str(row["objects_scanned"]), f"{row['total_s']:.3f}",
         f"{row['certain']}+{row['maybe']}m"]
        for row in result["prunes"]
    ]
    return text + "\n\nconstraint-prune savings:\n" + \
        format_table(headers, table_rows)


#: What --check compares (all deterministic).
SECTIONS = (
    ("accuracy", "accuracy", ("scenario", "mode"), (
        "choice", "ground_truth", "accurate", "rank",
        "certain", "maybe", "answer_digest", "response_s",
    )),
    ("prune", "prunes", ("case", "mode"), (
        "certain", "maybe", "answer_digest", "sites_pruned",
        "checks_pruned", "assistants_checked", "objects_scanned",
        "response_s", "total_s",
    )),
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer storm rates (CI smoke)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--storms", default="",
                        help="comma-separated peer-loss rates, e.g. 0.3,0.6")
    add_baseline_args(parser)
    args = parser.parse_args(argv)

    if args.storms:
        storms = tuple(float(r) for r in args.storms.split(","))
    else:
        storms = QUICK_STORMS if args.quick else FULL_STORMS

    result = sweep(storms, args.seed)
    return finish("adaptive", result, render(result), args, SECTIONS)


def test_adaptive_sweep(benchmark):
    """pytest-benchmark entry point (quick storms)."""
    result = run_once(benchmark, lambda: sweep(QUICK_STORMS, seed=3))
    assert all(r["sites_pruned"] or r["checks_pruned"]
               for r in result["prunes"] if r["mode"] == "constraints")


if __name__ == "__main__":
    sys.exit(main())
