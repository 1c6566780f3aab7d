"""Reference implementations the production kernels are tested against.

:func:`certify_reference` is the per-entity Certification Rule exactly as
``repro.core.certification.certify`` implemented it before the
pattern-batched kernel replaced it: one status dict per entity, one dict
probe per (predicate, row), ``all3``/``any3`` over :class:`TV` members,
``attach`` per maybe row.  It is slow and obviously right, shares no
helper with the kernel, and is never imported by ``repro.core`` — the
:class:`~repro.difftest.oracle.StrategyOracle` ``certify`` invariant and
``tests/test_certification_kernel.py`` run both on the same evidence and
require equal answers, conditions and :class:`CertificationStats`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.certification import (
    SATISFIED,
    VIOLATED,
    CertificationStats,
    VerdictIndex,
)
from repro.core.query import Path, Predicate, Query
from repro.core.results import GlobalResult, ResultKind, ResultSet
from repro.core.tvl import TV, all3, any3
from repro.errors import MappingError
from repro.integration.global_schema import GlobalSchema
from repro.integration.mapping import MappingCatalog
from repro.objectdb.ids import GOid
from repro.objectdb.local_query import LocalResultRow, LocalResultSet
from repro.objectdb.values import MultiValue, NULL, Value, is_null


def certify_reference(
    query: Query,
    global_schema: GlobalSchema,
    catalog: MappingCatalog,
    local_results: Mapping[str, LocalResultSet],
    verdicts: VerdictIndex,
    stats: Optional[CertificationStats] = None,
    conditions: bool = True,
) -> ResultSet:
    """The Certification Rule, one entity at a time.

    Same arguments and same result as
    :func:`repro.core.certification.certify`; the body below is that
    function's, unchanged, from before the pattern-batched kernel.
    """
    stats = stats if stats is not None else CertificationStats()
    root_table = catalog.table(query.range_class)
    queried_dbs = tuple(local_results)

    groups: Dict[GOid, Dict[str, LocalResultRow]] = {}
    for db_name, result in local_results.items():
        for row in result.rows:
            goid = root_table.goid_of(row.loid)
            if goid is None:
                raise MappingError(
                    f"local result row {row.loid} has no GOid for root "
                    f"class {query.range_class!r}"
                )
            groups.setdefault(goid, {})[db_name] = row

    answer = ResultSet(targets=query.targets)
    for goid in sorted(groups, key=lambda g: g.value):
        rows = groups[goid]
        stats.groups += 1
        if _eliminated_by_absence(goid, rows, root_table, queried_dbs, stats):
            stats.eliminated_by_absence += 1
            continue
        status = _merge_statuses(query, rows.values(), stats)
        _apply_assistant_verdicts(
            rows.values(), global_schema, catalog, verdicts, status, stats
        )
        tv = _where_tv(query, status)
        if tv is TV.FALSE:
            stats.eliminated_by_violation += 1
            continue
        bindings = _merge_bindings(query.targets, rows.values())
        if tv is TV.TRUE:
            stats.promoted_to_certain += 1
            answer.add(
                GlobalResult(
                    goid=goid, kind=ResultKind.CERTAIN, bindings=bindings
                )
            )
        else:
            stats.remained_maybe += 1
            unsolved = _still_unsolved(query, status)
            result = GlobalResult(
                goid=goid,
                kind=ResultKind.MAYBE,
                bindings=bindings,
                unsolved=unsolved,
            )
            if conditions:
                _attach_null_atoms(result, goid, rows, unsolved)
            answer.add(result)
    return answer


def _attach_null_atoms(
    result: GlobalResult,
    goid: GOid,
    rows: Mapping[str, LocalResultRow],
    unsolved: Tuple[Predicate, ...],
) -> None:
    """Record which sites observed each still-unsolved predicate UNKNOWN.

    These atoms are never dischargeable (the null is in the data, not in
    the topology): they mark the row as sampling missingness unless a
    site/copy/flux atom is attached on top by a degradation path.
    """
    from repro.conditions.algebra import NullAttr, attach

    atoms = []
    for predicate in unsolved:
        sources = [
            db_name
            for db_name in sorted(rows)
            if rows[db_name].predicate_status.get(predicate, TV.UNKNOWN)
            is TV.UNKNOWN
        ]
        if not sources:
            atoms.append(NullAttr(site="", goid=goid, attr=str(predicate)))
        atoms.extend(
            NullAttr(site=db_name, goid=goid, attr=str(predicate))
            for db_name in sources
        )
    if atoms:
        attach(result, *atoms)


def _eliminated_by_absence(
    goid: GOid,
    rows: Mapping[str, LocalResultRow],
    root_table,
    queried_dbs: Tuple[str, ...],
    stats: CertificationStats,
) -> bool:
    """Root-presence rule: an isomeric root object filtered out elsewhere.

    If the entity has a representative in the local root class of a
    queried site but that site returned no row for it, the representative
    violated a local predicate there — the entity certainly fails the
    query and is eliminated (the paper's s1 example).
    """
    placements = root_table.loids_of(goid)
    for db_name in queried_dbs:
        stats.comparisons += 1
        if db_name in placements and db_name not in rows:
            return True
    return False


def _merge_statuses(
    query: Query,
    rows: Iterable[LocalResultRow],
    stats: CertificationStats,
) -> Dict[Predicate, TV]:
    """Combine per-site predicate statuses for one entity.

    FALSE anywhere wins (some site evaluated real data and it failed),
    then TRUE anywhere, then UNKNOWN.
    """
    status: Dict[Predicate, TV] = {}
    for predicate in query.all_predicates():
        merged = TV.UNKNOWN
        for row in rows:
            tv = row.predicate_status.get(predicate, TV.UNKNOWN)
            stats.comparisons += 1
            if tv is TV.FALSE:
                merged = TV.FALSE
                break
            if tv is TV.TRUE:
                merged = TV.TRUE
        status[predicate] = merged
    return status


def _apply_assistant_verdicts(
    rows: Iterable[LocalResultRow],
    global_schema: GlobalSchema,
    catalog: MappingCatalog,
    verdicts: VerdictIndex,
    status: Dict[Predicate, TV],
    stats: CertificationStats,
) -> None:
    """Resolve UNKNOWN predicates through unsolved-item assistant checks.

    For every unsolved item of every merged row, look up the verdicts of
    its assistant objects on the item's relative predicates and fold them
    into the original predicate's status.  Violation has precedence:
    "object o is eliminated when any of its assistant objects violates an
    unsolved predicate".
    """
    for row in rows:
        for item in row.unsolved_items:
            global_class = global_schema.global_class_of(
                item.loid.db, item.class_name
            )
            if global_class is None:
                continue
            assistants = catalog.assistants_of(global_class, item.loid)
            for unsolved in item.unsolved:
                original = unsolved.original
                if status.get(original) is TV.FALSE:
                    continue
                for assistant in assistants:
                    stats.comparisons += 1
                    verdict = verdicts.get(
                        assistant, unsolved.relative_predicate
                    )
                    if verdict == VIOLATED:
                        status[original] = TV.FALSE
                        break
                    if verdict == SATISFIED and status[original] is not TV.TRUE:
                        status[original] = TV.TRUE


def _where_tv(query: Query, status: Mapping[Predicate, TV]) -> TV:
    """Evaluate the query's Where clause over merged predicate statuses."""
    if not query.where:
        return TV.TRUE
    return any3(
        all3(status.get(p, TV.UNKNOWN) for p in conjunct)
        for conjunct in query.where
    )


def _still_unsolved(
    query: Query, status: Mapping[Predicate, TV]
) -> Tuple[Predicate, ...]:
    """Predicates keeping the entity a maybe result.

    UNKNOWN predicates appearing in conjuncts that are not already FALSE.
    """
    unsolved: List[Predicate] = []
    for conjunct in query.where:
        tv = all3(status.get(p, TV.UNKNOWN) for p in conjunct)
        if tv is TV.FALSE:
            continue
        for predicate in conjunct:
            if status.get(predicate, TV.UNKNOWN) is TV.UNKNOWN:
                if predicate not in unsolved:
                    unsolved.append(predicate)
    return tuple(unsolved)


def _merge_bindings(
    targets: Tuple[Path, ...], rows: Iterable[LocalResultRow]
) -> Dict[Path, Value]:
    """Merge target bindings across isomeric rows (first non-null wins;
    multi-values union)."""
    bindings: Dict[Path, Value] = {}
    for target in targets:
        collected: List[Value] = []
        multi = False
        for row in rows:
            value = row.bindings.get(target, NULL)
            if is_null(value):
                continue
            if isinstance(value, MultiValue):
                multi = True
                collected.extend(value)
            else:
                collected.append(value)
        if not collected:
            bindings[target] = NULL
        elif multi:
            bindings[target] = MultiValue(collected)
        else:
            bindings[target] = collected[0]
    return bindings


def certification_difference(
    answer: ResultSet,
    stats: CertificationStats,
    expected: ResultSet,
    expected_stats: CertificationStats,
) -> Optional[str]:
    """Why a kernel answer differs from the reference's, or ``None``.

    Stricter than ``==`` on the result sets: binding order counts (it
    reaches every export), and so do ``conditions``, which
    :class:`GlobalResult` declares ``compare=False``.
    """
    if stats != expected_stats:
        return f"stats {stats} != reference {expected_stats}"
    if answer.targets != expected.targets:
        return "target lists differ"
    for part in ("certain", "maybe"):
        got, want = getattr(answer, part), getattr(expected, part)
        if [r.goid for r in got] != [r.goid for r in want]:
            return (
                f"{part} entities {[str(r.goid) for r in got]} != "
                f"reference {[str(r.goid) for r in want]}"
            )
        for mine, theirs in zip(got, want):
            if mine != theirs or (
                list(mine.bindings.items()) != list(theirs.bindings.items())
            ):
                return f"{part} {mine.goid}: {mine} != reference {theirs}"
            if mine.conditions != theirs.conditions:
                return (
                    f"{part} {mine.goid}: conditions "
                    f"{[str(c) for c in mine.conditions]} != reference "
                    f"{[str(c) for c in theirs.conditions]}"
                )
    return None


@contextlib.contextmanager
def shadowed_certify(differences: List[str]) -> Iterator[None]:
    """Run the reference beside every ``certify`` call made in the block.

    ``certify`` is rebound, under every name ``repro`` modules imported
    it by, to a wrapper that certifies the same evidence twice — kernel,
    then reference — and appends a line to *differences* when the two
    disagree.  The caller gets the kernel's answer either way.  The
    bindings are restored on exit; this is test scaffolding and swaps
    module globals, so it is not for concurrent use.
    """
    from repro.core import certification

    production = certification.certify

    def certify_both(
        query, global_schema, catalog, local_results, verdicts,
        stats=None, conditions=True,
    ):
        stats = stats if stats is not None else CertificationStats()
        expected_stats = dataclasses.replace(stats)
        answer = production(
            query, global_schema, catalog, local_results, verdicts,
            stats, conditions=conditions,
        )
        expected = certify_reference(
            query, global_schema, catalog, local_results, verdicts,
            expected_stats, conditions=conditions,
        )
        difference = certification_difference(
            answer, stats, expected, expected_stats
        )
        if difference is not None:
            differences.append(difference)
        return answer

    holders = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro.")
        and getattr(module, "certify", None) is production
    ]
    for module in holders:
        module.certify = certify_both
    try:
        yield
    finally:
        for module in holders:
            module.certify = production
