"""Ablation: the value of object isomerism / certification.

The paper's motivation for certification is that "one object evaluated
to be a maybe result in a component database may be turned into a
certain result when combined with the results from its isomeric
objects".  This ablation quantifies that: it runs BL with certification
and counts how many local maybe results the certification engine
promoted to certain, eliminated, or left maybe — the paper's "more
informative answers" in numbers.
"""

import random

from bench_common import run_once, write_result

from repro.bench.reporting import format_table
from repro.core.certification import CertificationStats, VerdictIndex, certify
from repro.core.decompose import decompose
from repro.core.engine import GlobalQueryEngine
from repro.core.strategies import (
    collect_verdicts,
    plan_dispatch,
    run_checks_paired,
)
from repro.workload.generator import generate
from repro.workload.params import sample_params

SEEDS = (31, 32, 33, 34, 35)


def certification_outcomes():
    rows = []
    for seed in SEEDS:
        rng = random.Random(seed)
        params = sample_params(rng, n_classes_range=(2, 3))
        params.seed = seed
        workload = generate(params, scale=0.05)
        system = workload.system
        decomposed = decompose(workload.query, system.global_schema)

        local_results = {}
        reports = []
        local_maybes = 0
        for db_name, lq in decomposed.local_queries.items():
            result = system.db(db_name).execute_local(lq)
            local_results[db_name] = result
            local_maybes += len(result.maybe_rows)
            items = [
                item for row in result.maybe_rows for item in row.unsolved_items
            ]
            plan = plan_dispatch(db_name, items, system)
            reports.extend(
                report
                for _, report in run_checks_paired(plan.requests, system)
            )

        # With certification (assistant verdicts applied).
        stats_with = CertificationStats()
        certify(
            workload.query, system.global_schema, system.catalog,
            local_results, collect_verdicts(reports), stats_with,
        )
        # Without: same merge, but no assistant verdicts at all.
        stats_without = CertificationStats()
        certify(
            workload.query, system.global_schema, system.catalog,
            local_results, VerdictIndex(), stats_without,
        )
        rows.append((seed, local_maybes, stats_with, stats_without))
    return rows


def test_certification_value(benchmark):
    runs = run_once(benchmark, certification_outcomes)

    table_rows = [
        [
            str(seed),
            str(local_maybes),
            str(with_.promoted_to_certain),
            str(with_.eliminated_by_violation),
            str(with_.eliminated_by_absence),
            str(with_.remained_maybe),
            str(without.remained_maybe),
        ]
        for seed, local_maybes, with_, without in runs
    ]
    text = format_table(
        [
            "seed", "local maybes", "promoted", "elim(violation)",
            "elim(absence)", "maybe (with)", "maybe (no checks)",
        ],
        table_rows,
    )
    write_result("ablation_certification", text)

    total_resolved = 0
    for _seed, _local_maybes, with_, without in runs:
        # Checking assistants can only shrink the maybe set.
        assert with_.remained_maybe <= without.remained_maybe
        total_resolved += without.remained_maybe - with_.remained_maybe
    # Certification must resolve something across the batch.
    assert total_resolved > 0
