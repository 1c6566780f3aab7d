"""Hot-path bench: batched check dispatch, cache warmth, columnar kernels.

Sweeps generated federations over an (N_db x extent scale) grid and, per
strategy, runs each query

* **cold** (the batched wire protocol: one check request/reply pair per
  ``(src, dst)`` link; every local evaluation of this run is shadowed
  by the per-object reference evaluator), and
* **warm** (same engine — measures mapping-index/decomposition cache
  hits on a repeated query),

recording network messages, bytes, simulated total/response time, cache
traffic and wall-clock.  The bench enforces the kernel contracts:

* every site's columnar local evaluation equals the reference's — rows,
  bookkeeping and meters — and the repeated query's answer equals the
  cold one's;
* a repeated query hits the caches (warm hit rate > 0);
* warm local evaluation over the columnar kernels is at least 5x faster
  than the reference evaluator at the sweep's largest grid cell when the query
  *repeats* (``local_eval``: every per-operand cache is hot, which is
  the best case, not the usual one), and at least 3x faster when every
  repetition brings operands the extent has never seen
  (``local_eval_unseen``: only the per-extent structures are warm);
* CA's global site, evaluating a materialized extent with operands it
  has never seen, is at least 3x faster on the kernels than the
  per-object reference it replaced (``global_eval``);
* the localized path from the site kernels to the digest —
  ``execute_local`` at every site, ``certify``, ``answer_digest`` — on a
  scan and on the paper query, operands never seen before, is at least
  1.5x faster than the same path through ``execute_local_reference``
  and ``certify_reference`` (``local_pipeline``).

Runs standalone; CI runs the quick grid against the committed baseline,
then once more against its own first run (the determinism check: the
wall-clock fields rule out a plain ``diff``)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick \
        --json BENCH_hotpath.json --check benchmarks/results/BENCH_hotpath.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick \
        --json hotpath-b.json --check BENCH_hotpath.json

The JSON output is fully determined by the grid: no timestamps and no
dict-order dependence.  ``wall_s`` fields and the ``local_eval`` /
``local_eval_unseen`` / ``global_eval`` / ``local_pipeline`` timing
sections are informational only and are ignored by ``--check``; a
cell's ``wall_s`` is its cold execution *with* the shadowing reference,
so it reads higher than an unshadowed run.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    answer_fingerprint,
    finish,
    make_workload,
    run_once,
    write_result,
)

from repro.bench.reporting import format_table
from repro.core.decompose import attributes_needed_by_class
from repro.core.certification import VerdictIndex, certify
from repro.core.engine import GlobalQueryEngine
from repro.core.predicates import EvalMeter
from repro.core.query import Op, Predicate, Query
from repro.core.results import answer_digest
from repro.core.strategies.centralized import evaluate_global, export_site
from repro.difftest.reference import (
    certify_reference,
    evaluate_global_extent,
    execute_local_reference,
    shadowed_local_evaluation,
)
from repro.objectdb.database import ComponentDatabase
from repro.integration.outerjoin import materialize

SCHEMA = "BENCH_hotpath/v4"
STRATEGIES = ("CA", "BL", "PL", "BL-S", "PL-S")
LOCALIZED = ("BL", "PL", "BL-S", "PL-S")

#: Workload seed per federation size.  Chosen so every drawn parameter
#: set actually produces missing data (phase-O check traffic) — a
#: federation without unsolved items exercises neither check batches
#: nor the chase path.
WORKLOAD_SEEDS = {3: 103, 4: 304, 5: 105}

FULL_GRID = tuple(
    (n_db, scale) for n_db in (3, 4, 5) for scale in (0.03, 0.06)
)
QUICK_GRID = ((3, 0.03), (4, 0.03))

#: What --check compares (everything deterministic; wall_s is not).
SECTIONS = (
    ("cell", "cells", ("workload", "strategy"), (
        "answer_digest",
        "messages_batched",
        "bytes_batched",
        "total_s",
        "response_s",
        "warm_cache_hits",
        "warm_cache_misses",
    )),
)

#: Minimum warm local-eval speedup (kernels vs reference) the sweep's
#: largest grid cell must reach on a repeated query.
MIN_COLUMNAR_SPEEDUP = 5.0

#: The same floor when no repetition has seen its operands before —
#: at a site, and at CA's global site (which never sees one twice).
MIN_UNSEEN_SPEEDUP = 3.0

#: The floor of the whole localized path, kernels to digest, against
#: the per-row references (``local_pipeline``).
MIN_PIPELINE_SPEEDUP = 1.5

_ORDER_OPS = (Op.LT, Op.LE, Op.GT, Op.GE)


def run_cell(n_db: int, scale: float, strategy: str) -> dict:
    """One (workload, strategy) cell on a fresh federation."""
    workload = make_workload(WORKLOAD_SEEDS[n_db], scale, n_dbs=n_db)
    engine = GlobalQueryEngine(workload.system)

    differences = []
    start = time.perf_counter()
    with shadowed_local_evaluation(differences):
        cold = engine.execute(workload.query, strategy)
    wall_s = time.perf_counter() - start
    if differences:
        raise AssertionError(
            f"{strategy} ndb{n_db} scale{scale:g}: local evaluation differs "
            f"from the reference: {differences[0]}"
        )
    warm = engine.execute(workload.query, strategy)

    cold_digest = answer_fingerprint(cold.results)
    if answer_fingerprint(warm.results) != cold_digest:
        raise AssertionError(
            f"{strategy} ndb{n_db} scale{scale:g}: repeated query changed "
            "the answer"
        )
    warm_work = warm.metrics.work
    return {
        "workload": f"ndb{n_db}-scale{scale:g}",
        "n_db": n_db,
        "scale": scale,
        "strategy": strategy,
        "answer_digest": cold_digest,
        "certain": len(cold.results.certain),
        "maybe": len(cold.results.maybe),
        "messages_batched": cold.metrics.work.messages,
        "bytes_batched": cold.metrics.work.bytes_network,
        "total_s": round(cold.total_time, 6),
        "response_s": round(cold.response_time, 6),
        "cold_cache_hits": cold.metrics.work.cache_hits,
        "cold_cache_misses": cold.metrics.work.cache_misses,
        "warm_cache_hits": warm_work.cache_hits,
        "warm_cache_misses": warm_work.cache_misses,
        "warm_cache_hit_rate": round(warm_work.cache_hit_rate, 4),
        "wall_s": round(wall_s, 6),
    }


def _moved(predicate, shift: int):
    """*predicate* with an ordering operand moved by *shift*."""
    if predicate.op not in _ORDER_OPS:
        return predicate
    return Predicate(
        path=predicate.path,
        op=predicate.op,
        operand=predicate.operand + shift,
    )


def _moved_dnf(where, shift: int):
    """A ``Where`` clause with every ordering operand moved by *shift*."""
    return tuple(tuple(_moved(p, shift) for p in conj) for conj in where)


def _with_unseen_operands(local_query, shift: int):
    """*local_query* with every ordering operand moved by *shift*.

    The generator's range attributes are spread over ~10^6 integers, so
    a moved bound keeps its selectivity and is a value no cache has
    seen.  Its equality tests are on two-valued attributes and have no
    unseen value to take; the predicate columns they hit are the only
    per-operand state a repetition finds warm.
    """
    return dataclasses.replace(
        local_query,
        where=_moved_dnf(local_query.where, shift),
        removed=tuple(
            dataclasses.replace(r, predicate=_moved(r.predicate, shift))
            for r in local_query.removed
        ),
        removed_by_conjunct=_moved_dnf(local_query.removed_by_conjunct, shift),
    )


def _timed_row(n_db, scale, run, sides, warm_up, timed, reps) -> dict:
    """One row of a kernels-vs-reference timing section.

    ``run(side, items)`` works through *items* on one side; each of the
    two *sides* (the kernels, then the reference) runs *warm_up* once,
    then *timed* — *reps* repetitions — is timed on each in turn.
    """
    for side in sides:
        run(side, warm_up)
    walls = []
    for side in sides:
        start = time.perf_counter()
        run(side, timed)
        walls.append((time.perf_counter() - start) / reps)
    columnar_s, reference_s = walls
    return {
        "workload": f"ndb{n_db}-scale{scale:g}",
        "n_db": n_db,
        "scale": scale,
        "columnar_wall_s": round(columnar_s, 6),
        "reference_wall_s": round(reference_s, 6),
        "speedup": round(reference_s / columnar_s, 2),
    }


def measure_local_eval(
    n_db: int, scale: float, reps: int = 3, unseen: bool = False
) -> dict:
    """Warm local-evaluation wall-clock: columnar kernels vs reference.

    Times repeated :meth:`ComponentDatabase.execute_local` calls over
    the workload's decomposed local queries — the loop the columnar
    extent exists for — against ``execute_local_reference``, the
    per-object scan, after one warm-up pass of each.  With
    *unseen* every repetition runs the queries with operands moved by
    its own number, so nothing keyed on an operand is warm.  Timing
    only; answer equality is enforced per cell by :func:`run_cell` and
    object-by-object by the test suite.
    """
    workload = make_workload(WORKLOAD_SEEDS[n_db], scale, n_dbs=n_db)
    system = workload.system
    decomp = system.decompose(workload.query)
    pairs = [
        (system.db(lq.db_name), lq)
        for lq in decomp.local_queries.values()
    ]
    passes = [
        (db, _with_unseen_operands(lq, rep) if unseen else lq)
        for rep in range(1, reps + 1)
        for db, lq in pairs
    ]

    def run(evaluate, items):
        for db, lq in items:
            evaluate(db, lq)

    return _timed_row(
        n_db, scale, run,
        (ComponentDatabase.execute_local, execute_local_reference),
        pairs, passes, reps,
    )


def measure_global_eval(n_db: int, scale: float, reps: int = 5) -> dict:
    """CA_G3 wall-clock: ``evaluate_global`` vs the per-object reference.

    Materializes the workload query's extent once, as CA does for every
    query of one shape, then times both evaluators over it — after one
    warm-up each — with the ordering operands moved per repetition, so
    the kernel side has only the extent's walk columns and value indexes
    warm (it keeps nothing else).  Timing only; equality is the
    ``global-eval`` invariant's and ``tests/test_global_eval.py``'s.
    """
    workload = make_workload(WORKLOAD_SEEDS[n_db], scale, n_dbs=n_db)
    system, query = workload.system, workload.query
    classes = (query.range_class,) + query.branch_classes(
        system.global_schema.schema
    )
    needed = attributes_needed_by_class(query, system.global_schema, classes)
    exports = {cls: {} for cls in classes}
    for db_name in system.databases:
        for cls, objs, _n_attrs in export_site(system, db_name, needed):
            exports[cls][db_name] = objs
    extent = materialize(
        classes, system.global_schema, system.catalog, exports
    )

    def run(evaluate, queries):
        for moved in queries:
            evaluate(moved, extent, EvalMeter())

    return _timed_row(
        n_db, scale, run, (evaluate_global, evaluate_global_extent),
        [query],
        [
            dataclasses.replace(query, where=_moved_dnf(query.where, rep))
            for rep in range(1, reps + 1)
        ],
        reps,
    )


def measure_local_pipeline(n_db: int, scale: float, reps: int = 5) -> dict:
    """The localized path from the site kernels to the digest.

    Per query: ``execute_local`` at every queried site, ``certify`` over
    the results (no assistant verdicts: phase O is not what is timed),
    ``answer_digest`` — against the same three steps through
    ``execute_local_reference`` and ``certify_reference``.  The queries
    are the traffic mix's scan (one range predicate on the root class,
    most objects survive) and the workload's paper query, each repetition
    with ordering operands no cache has seen; decomposition is done
    beforehand and one warm-up of each side builds the per-extent
    structures.  Timing only; both sides must agree on every digest.
    """
    workload = make_workload(WORKLOAD_SEEDS[n_db], scale, n_dbs=n_db)
    system, paper = workload.system, workload.query
    scan = Query.conjunctive(
        paper.range_class, ["key", "t0"],
        [Predicate.of("t0", "<", 500_000)],
    )
    decomposed = []
    for rep in range(reps + 1):
        for query in (scan, paper):
            moved = dataclasses.replace(
                query, where=_moved_dnf(query.where, rep)
            )
            decomposed.append((moved, system.decompose(moved).local_queries))
    sides = (
        (ComponentDatabase.execute_local, certify),
        (execute_local_reference, certify_reference),
    )
    digests = {side: [] for side in sides}

    def run(side, items):
        evaluate, certifier = side
        for query, local_queries in items:
            local = {
                db_name: evaluate(system.db(db_name), local_query)
                for db_name, local_query in local_queries.items()
            }
            digests[side].append(answer_digest(certifier(
                query, system.global_schema, system.catalog, local,
                VerdictIndex(),
            )))

    # rep 0, both shapes, is the warm-up.
    row = _timed_row(
        n_db, scale, run, sides, decomposed[:2], decomposed[2:], reps
    )
    if digests[sides[0]] != digests[sides[1]]:
        raise AssertionError(
            f"ndb{n_db} scale{scale:g}: the kernels and the references "
            "disagree on a local-pipeline digest"
        )
    return row


def sweep(grid) -> dict:
    cells = []
    for n_db, scale in grid:
        for strategy in STRATEGIES:
            cells.append(run_cell(n_db, scale, strategy))
    local_eval = [measure_local_eval(n_db, scale) for n_db, scale in grid]
    local_eval_unseen = [
        measure_local_eval(n_db, scale, reps=5, unseen=True)
        for n_db, scale in grid
    ]
    global_eval = [measure_global_eval(n_db, scale) for n_db, scale in grid]
    local_pipeline = [
        measure_local_pipeline(n_db, scale) for n_db, scale in grid
    ]
    _assert_contract(
        cells, local_eval, local_eval_unseen, global_eval, local_pipeline
    )
    return {
        "schema": SCHEMA,
        "seeds": {str(k): v for k, v in sorted(WORKLOAD_SEEDS.items())},
        "grid": [{"n_db": n, "scale": s} for n, s in grid],
        "cells": cells,
        "local_eval": local_eval,
        "local_eval_unseen": local_eval_unseen,
        "global_eval": global_eval,
        "local_pipeline": local_pipeline,
    }


def _assert_contract(
    cells, local_eval, local_eval_unseen, global_eval, local_pipeline
) -> None:
    """Aggregate guarantees the per-cell checks cannot express."""
    for section, floor, what in (
        (local_eval, MIN_COLUMNAR_SPEEDUP, "repeated local eval"),
        (local_eval_unseen, MIN_UNSEEN_SPEEDUP, "unseen-operand local eval"),
        (global_eval, MIN_UNSEEN_SPEEDUP, "unseen-operand global eval"),
        (local_pipeline, MIN_PIPELINE_SPEEDUP, "kernels-to-digest path"),
    ):
        largest = max(section, key=lambda e: (e["n_db"], e["scale"]))
        if largest["speedup"] < floor:
            raise AssertionError(
                f"{largest['workload']}: columnar {what} only "
                f"{largest['speedup']}x faster than the reference "
                f"(contract: >= {floor}x at the largest cell)"
            )
    warm_lookups = [
        c for c in cells
        if c["warm_cache_hits"] + c["warm_cache_misses"] > 0
    ]
    if not warm_lookups:
        raise AssertionError("no cell recorded any cache traffic")
    for cell in warm_lookups:
        if cell["warm_cache_hit_rate"] <= 0.0:
            raise AssertionError(
                f"{cell['strategy']} {cell['workload']}: repeated query "
                "missed every cache"
            )


def render(result: dict) -> str:
    headers = ["workload", "strategy", "msgs", "net bytes", "total (s)",
               "response (s)", "warm hit rate"]
    rows = [
        [c["workload"], c["strategy"], str(c["messages_batched"]),
         str(c["bytes_batched"]),
         f"{c['total_s']:.3f}", f"{c['response_s']:.3f}",
         f"{c['warm_cache_hit_rate']:.2f}"]
        for c in result["cells"]
    ]
    text = format_table(headers, rows)
    eval_headers = ["workload", "columnar (s)", "reference (s)", "speedup"]
    for section, title in (
        ("local_eval",
         "warm local evaluation, repeated query, every per-operand cache hot"),
        ("local_eval_unseen",
         "warm local evaluation, operands never seen before"),
        ("global_eval",
         "CA global evaluation of one extent, operands never seen before"),
        ("local_pipeline",
         "execute_local at every site -> certify -> answer_digest, scan + "
         "paper query, operands never seen before"),
    ):
        eval_rows = [
            [e["workload"], f"{e['columnar_wall_s']:.4f}",
             f"{e['reference_wall_s']:.4f}", f"{e['speedup']:.1f}x"]
            for e in result[section]
        ]
        text += (
            f"\n\n{title} "
            "(columnar kernels vs reference evaluator):\n"
            + format_table(eval_headers, eval_rows)
        )
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid (CI smoke)")
    add_baseline_args(parser)
    args = parser.parse_args(argv)

    result = sweep(QUICK_GRID if args.quick else FULL_GRID)
    return finish("hotpath", result, render(result), args, SECTIONS)


def test_hotpath_sweep(benchmark):
    """pytest-benchmark entry point (quick grid)."""
    result = run_once(benchmark, lambda: sweep(QUICK_GRID))
    write_result("hotpath", render(result))
    localized = [c for c in result["cells"] if c["strategy"] in LOCALIZED]
    assert all(c["messages_batched"] > 0 for c in localized)


if __name__ == "__main__":
    sys.exit(main())
