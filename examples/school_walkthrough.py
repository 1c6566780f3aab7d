#!/usr/bin/env python3
"""Walkthrough of the paper's localized protocol, step by step.

Follows Section 2.3's worked example on the school federation: query
decomposition into Q1'/Q1'', the local results R1/R2 with their unsolved
predicates and unsolved items, the assistant-object checks, and the
certification that eliminates John and Mary, keeps Tony maybe, and turns
Hedy into a certain result.

Run:  python examples/school_walkthrough.py
"""

from repro.core.certification import CertificationStats, certify
from repro.core.decompose import decompose
from repro.core.strategies import (
    collect_verdicts,
    plan_dispatch,
    run_checks_paired,
)
from repro.sqlx import parse_query
from repro.workload.paper_example import Q1_TEXT, build_school_federation


def main() -> None:
    system = build_school_federation()
    query = parse_query(Q1_TEXT)

    print("=" * 72)
    print("STEP 1 — decompose the global query into local queries")
    print("=" * 72)
    decomposed = decompose(query, system.global_schema)
    for db_name, local_query in decomposed.local_queries.items():
        print(f"\nLocal query for {db_name} (root class {local_query.range_class}):")
        for predicate in local_query.local_predicates:
            print(f"  local predicate: {predicate}")
        for removed in local_query.removed:
            print(
                f"  removed (missing at path step {removed.missing_depth}): "
                f"{removed.predicate}"
            )

    print()
    print("=" * 72)
    print("STEP 2 — evaluate local predicates at each site (phase P)")
    print("=" * 72)
    local_results = {}
    for db_name, local_query in decomposed.local_queries.items():
        result = system.db(db_name).execute_local(local_query)
        local_results[db_name] = result
        print(f"\n{db_name} local results "
              f"({result.objects_scanned} objects scanned):")
        for row in result.rows:
            name = next(iter(row.bindings.values()))
            print(f"  {row.loid} ({name}) -> {row.kind.value}")
            for unsolved in row.unsolved:
                print(f"      unsolved on root: {unsolved.original}")
            for item in row.unsolved_items:
                predicates = ", ".join(
                    str(u.relative_predicate) for u in item.unsolved
                )
                print(
                    f"      unsolved item {item.loid} "
                    f"(via {item.reached_via}): {predicates}"
                )

    print()
    print("=" * 72)
    print("STEP 3 — look up assistants and check them (phase O)")
    print("=" * 72)
    reports = []
    for db_name, result in local_results.items():
        items = [i for row in result.maybe_rows for i in row.unsolved_items]
        plan = plan_dispatch(db_name, items, system)
        for request in plan.requests:
            loids = ", ".join(str(l) for l in request.loids)
            predicates = ", ".join(str(p) for p in request.predicates)
            print(f"\n{db_name} sends to {request.db_name}: "
                  f"check [{loids}] against [{predicates}]")
        site_reports = [
            report for _, report in run_checks_paired(plan.requests, system)
        ]
        for report in site_reports:
            for predicate, loids in report.satisfied.items():
                for loid in loids:
                    print(f"  {report.db_name}: {loid} SATISFIES {predicate}")
            for predicate, loids in report.violated.items():
                for loid in loids:
                    print(f"  {report.db_name}: {loid} VIOLATES  {predicate}")
        reports.extend(site_reports)

    print()
    print("=" * 72)
    print("STEP 4 — certification at the global site (phase I)")
    print("=" * 72)
    stats = CertificationStats()
    answer = certify(
        query,
        system.global_schema,
        system.catalog,
        local_results,
        collect_verdicts(reports),
        stats,
    )
    print(f"\n  entity groups examined:      {stats.groups}")
    print(f"  eliminated by absence:       {stats.eliminated_by_absence}"
          "   (John: his DB2 copy failed the city predicate)")
    print(f"  eliminated by violation:     {stats.eliminated_by_violation}"
          "   (Mary: Abel's DB3 copy is in EE, not CS)")
    print(f"  promoted to certain:         {stats.promoted_to_certain}"
          "   (Hedy: Kelly's DB3 copy is in CS)")
    print(f"  remained maybe:              {stats.remained_maybe}"
          "   (Tony: nobody knows his address or Haley's speciality)")

    print("\nFinal answer:")
    print(f"  certain: {answer.sort().certain_rows()}")
    print(f"  maybe:   {answer.maybe_rows()}")


if __name__ == "__main__":
    main()
