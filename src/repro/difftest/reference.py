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

:func:`execute_local_reference`, :func:`collect_unsolved_reference` and
:func:`check_assistants_reference` are, likewise, the bodies
:class:`~repro.objectdb.database.ComponentDatabase` ran object by object
before the columnar kernels became its only path: one
:func:`~repro.core.predicates.evaluate_dnf` per candidate, one holder
walk per unsolved predicate, one :class:`EvalMeter` charged as it goes.
They read storage (``extent``, ``get``, ``deref`` and the index probe of
``_select_candidates``) and :mod:`repro.core.predicates`, and nothing of
:mod:`repro.objectdb.columnar`; :func:`shadowed_local_evaluation` runs
them beside every kernel call made in a block — the ``local-eval``
invariant.
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
from repro.core.predicates import (
    EvalMeter,
    evaluate_dnf,
    evaluate_predicate,
    walk_path,
)
from repro.core.query import Path, Predicate, Query
from repro.core.results import GlobalResult, ResultKind, ResultSet
from repro.core.tvl import TV, all3, any3
from repro.errors import MappingError, ObjectStoreError
from repro.integration.global_schema import GlobalSchema
from repro.integration.mapping import MappingCatalog
from repro.integration.outerjoin import IntegrationStats
from repro.objectdb.database import ComponentDatabase, UnsolvedScan
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.local_query import (
    BlockedAt,
    CheckReport,
    CheckRequest,
    LocalQuery,
    LocalResultRow,
    LocalResultSet,
    RowKind,
    UnsolvedItem,
    UnsolvedPredicateOnObject,
)
from repro.objectdb.objects import LocalObject
from repro.objectdb.values import MultiValue, NULL, Value, is_null


def certify_reference(
    query: Query,
    global_schema: GlobalSchema,
    catalog: MappingCatalog,
    local_results: Mapping[str, LocalResultSet],
    verdicts: VerdictIndex,
    stats: Optional[CertificationStats] = None,
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


#: The results that hold a dict, or a list of such results: compared
#: field by field.  Everything else they hold is a value, compared by ``==``.
_RECORDS = (
    ResultSet, GlobalResult, LocalResultSet, LocalResultRow, UnsolvedScan,
    CheckReport,
)


def record_difference(got, want) -> Optional[str]:
    """Where a kernel's result first differs from a reference's, or ``None``.

    Stricter than ``==``.  Results are compared field by field, the
    fields they declare ``compare=False`` (a :class:`GlobalResult`'s
    ``conditions``) included, and the key order of every dict counts:
    binding order reaches every export, status order the certification
    patterns, verdict order the check reports.  The message starts with
    the path to the difference (``.rows[3].kind: ...``).
    """
    if isinstance(got, _RECORDS) and type(got) is type(want):
        for f in dataclasses.fields(got):
            difference = record_difference(
                getattr(got, f.name), getattr(want, f.name)
            )
            if difference is not None:
                return f".{f.name}{difference}"
        return None
    if (
        isinstance(got, (list, tuple))
        and got and isinstance(got[0], _RECORDS)
        and type(got) is type(want) and len(got) == len(want)
    ):
        for i, (mine, theirs) in enumerate(zip(got, want)):
            difference = record_difference(mine, theirs)
            if difference is not None:
                return f"[{i}]{difference}"
        return None
    if isinstance(got, dict) and isinstance(want, dict):
        got, want = list(got.items()), list(want.items())
    return None if got == want else f": {got!r} != reference {want!r}"


def certification_difference(
    answer: ResultSet,
    stats: CertificationStats,
    expected: ResultSet,
    expected_stats: CertificationStats,
) -> Optional[str]:
    """Why a kernel answer differs from the reference's, or ``None``."""
    for what, got, want in (
        ("stats", stats, expected_stats), ("answer", answer, expected)
    ):
        difference = record_difference(got, want)
        if difference is not None:
            return what + difference
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
        query, global_schema, catalog, local_results, verdicts, stats=None,
    ):
        stats = stats if stats is not None else CertificationStats()
        expected_stats = dataclasses.replace(stats)
        answer = production(
            query, global_schema, catalog, local_results, verdicts, stats
        )
        expected = certify_reference(
            query, global_schema, catalog, local_results, verdicts,
            expected_stats,
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


# --- local query execution (steps BL_C1 / PL_C2) -----------------------------


def execute_local_reference(
    db: ComponentDatabase, query: LocalQuery
) -> LocalResultSet:
    """:meth:`ComponentDatabase.execute_local`, one object at a time."""
    if query.db_name != db.name:
        raise ObjectStoreError(
            f"query for db {query.db_name!r} executed at {db.name!r}"
        )
    result = LocalResultSet(db_name=db.name, range_class=query.range_class)
    meter = EvalMeter()
    candidates, probe = db._select_candidates(query)
    result.index_probe = probe
    if probe is not None:
        meter.comparisons += probe.comparisons
    for obj in candidates:
        result.objects_scanned += 1
        row = _evaluate_root_object(db, obj, query, meter)
        if row is not None:
            result.rows.append(row)
    result.comparisons = meter.comparisons
    result.derefs = meter.derefs
    return result


def _evaluate_root_object(
    db: ComponentDatabase, obj: LocalObject, query: LocalQuery,
    meter: EvalMeter,
) -> Optional[LocalResultRow]:
    outcome = evaluate_dnf(obj, query.where, db.deref, meter)
    if outcome.tv is TV.FALSE:
        return None

    root_unsolved: List[UnsolvedPredicateOnObject] = []
    items: Dict[LOid, UnsolvedItem] = {}
    status: Dict[Predicate, TV] = {}

    # Per-predicate statuses from every conjunct; unsolved predicates
    # discovered dynamically (null values) are located on their holder.
    for conj_outcome in outcome.conjunctions:
        for pred_outcome in conj_outcome.outcomes:
            if pred_outcome.predicate in status:
                continue
            status[pred_outcome.predicate] = pred_outcome.tv
            missing = pred_outcome.missing
            if pred_outcome.tv is TV.UNKNOWN and missing is not None:
                _record_unsolved(
                    db,
                    obj,
                    pred_outcome.predicate,
                    missing.depth,
                    root_unsolved,
                    items,
                    meter,
                )

    # Predicates removed because of missing attributes of local classes:
    # statically unsolved for every object at this site.
    for removed in query.removed:
        if removed.predicate not in status:
            status[removed.predicate] = TV.UNKNOWN
        _record_unsolved(
            db,
            obj,
            removed.predicate,
            removed.missing_depth,
            root_unsolved,
            items,
            meter,
        )

    kind = (
        RowKind.CERTAIN
        if _locally_certain(query, status)
        else RowKind.MAYBE
    )
    bindings = _bind_targets(db, obj, query.targets, meter)
    return LocalResultRow(
        loid=obj.loid,
        class_name=obj.class_name,
        kind=kind,
        bindings=bindings,
        unsolved=tuple(root_unsolved) if kind is RowKind.MAYBE else (),
        unsolved_items=tuple(items.values()) if kind is RowKind.MAYBE else (),
        predicate_status=status,
    )


def _locally_certain(query: LocalQuery, status: Dict[Predicate, TV]) -> bool:
    """True when some conjunct is fully TRUE and lost no predicate.

    The reference's own copy of the kernel's rule, so a slip in either
    shows as a difference.
    """
    if not query.where:
        return not query.removed
    removed_by_conjunct = query.removed_by_conjunct or tuple(
        () for _ in query.where
    )
    for conjunct, removed in zip(query.where, removed_by_conjunct):
        if removed:
            continue
        if all(status.get(p) is TV.TRUE for p in conjunct):
            return True
    return False


def _record_unsolved(
    db: ComponentDatabase,
    root: LocalObject,
    predicate: Predicate,
    missing_depth: int,
    root_unsolved: List[UnsolvedPredicateOnObject],
    items: Dict[LOid, UnsolvedItem],
    meter: EvalMeter,
) -> None:
    """Attach *predicate* as unsolved on the object holding the data.

    Walks the path prefix up to *missing_depth* to locate the holder;
    the walk may be blocked even earlier by a null reference, in which
    case the blocking object is the holder.
    """
    holder, depth = _holder_at_depth(
        db, root, predicate.path, missing_depth, meter
    )
    relative = UnsolvedPredicateOnObject(
        original=predicate,
        relative_path=Path(predicate.path.steps[depth:]),
    )
    if holder.loid == root.loid:
        if relative not in root_unsolved:
            root_unsolved.append(relative)
        return
    item = items.get(holder.loid)
    if item is None:
        items[holder.loid] = UnsolvedItem(
            loid=holder.loid,
            class_name=holder.class_name,
            reached_via=Path(predicate.path.steps[:depth]),
            unsolved=(relative,),
        )
    elif relative not in item.unsolved:
        items[holder.loid] = UnsolvedItem(
            loid=item.loid,
            class_name=item.class_name,
            reached_via=item.reached_via,
            unsolved=item.unsolved + (relative,),
        )


def _holder_at_depth(
    db: ComponentDatabase, root: LocalObject, path: Path, depth: int,
    meter: EvalMeter,
) -> Tuple[LocalObject, int]:
    """Object on which path step *depth* would be read (or the blocker)."""
    current = root
    for index in range(depth):
        value = current.get(path.steps[index])
        if is_null(value):
            return current, index
        if not isinstance(value, LOid):
            return current, index
        meter.derefs += 1
        nxt = db.deref(value)
        if nxt is None:
            return current, index
        current = nxt
    return current, depth


def _bind_targets(
    db: ComponentDatabase, obj: LocalObject, targets: Tuple[Path, ...],
    meter: EvalMeter,
) -> Dict[Path, Value]:
    bindings: Dict[Path, Value] = {}
    for target in targets:
        walk = walk_path(obj, target, db.deref, meter)
        bindings[target] = NULL if walk.is_missing else walk.value
    return bindings


# --- phase-O-first scan (step PL_C1) ------------------------------------------


def collect_unsolved_reference(
    db: ComponentDatabase, query: LocalQuery
) -> Tuple[UnsolvedScan, EvalMeter]:
    """:meth:`ComponentDatabase.collect_unsolved`, one object at a time."""
    if query.db_name != db.name:
        raise ObjectStoreError(
            f"query for db {query.db_name!r} executed at {db.name!r}"
        )
    meter = EvalMeter()
    scan = UnsolvedScan(db_name=db.name, range_class=query.range_class)
    local_predicates = query.local_predicates
    for obj in db.extent(query.range_class).values():
        scan.objects_scanned += 1
        root_unsolved: List[UnsolvedPredicateOnObject] = []
        items: Dict[LOid, UnsolvedItem] = {}
        for predicate in local_predicates:
            meter.comparisons += 1  # missing-data probe
            walk = walk_path(obj, predicate.path, db.deref, meter)
            if walk.is_missing and walk.missing is not None:
                _record_unsolved(
                    db,
                    obj,
                    predicate,
                    walk.missing.depth,
                    root_unsolved,
                    items,
                    meter,
                )
        for removed in query.removed:
            meter.comparisons += 1  # missing-data probe
            _record_unsolved(
                db,
                obj,
                removed.predicate,
                removed.missing_depth,
                root_unsolved,
                items,
                meter,
            )
        if root_unsolved or items:
            scan.per_root[obj.loid] = (
                tuple(root_unsolved),
                tuple(items.values()),
            )
    return scan, meter


# --- assistant checking (steps BL_C3 / PL_C3) ---------------------------------


def check_assistants_reference(
    db: ComponentDatabase, request: CheckRequest
) -> CheckReport:
    """:meth:`ComponentDatabase.check_assistants`, one object at a time."""
    if request.db_name != db.name:
        raise ObjectStoreError(
            f"check request for db {request.db_name!r} executed at "
            f"{db.name!r}"
        )
    report = CheckReport(db_name=db.name, class_name=request.class_name)
    meter = EvalMeter()
    satisfied: Dict[Predicate, List[LOid]] = {p: [] for p in request.predicates}
    violated: Dict[Predicate, List[LOid]] = {p: [] for p in request.predicates}
    unknown: Dict[Predicate, List[LOid]] = {p: [] for p in request.predicates}
    blocked: List[BlockedAt] = []
    for loid in request.loids:
        obj = db.get(loid)
        report.objects_checked += 1
        for predicate in request.predicates:
            if obj is None:
                unknown[predicate].append(loid)
                continue
            outcome = evaluate_predicate(obj, predicate, db.deref, meter)
            if outcome.tv is TV.TRUE:
                satisfied[predicate].append(loid)
            elif outcome.tv is TV.FALSE:
                violated[predicate].append(loid)
            else:
                unknown[predicate].append(loid)
                missing = outcome.missing
                if missing is not None and missing.holder_id != loid:
                    # Stuck at a *different* object: report it so the
                    # global site can chase its isomeric copies.
                    blocked.append(
                        BlockedAt(
                            checked=loid,
                            predicate=predicate,
                            holder=missing.holder_id,  # type: ignore[arg-type]
                            holder_class=missing.holder_class,
                            remaining=Predicate(
                                path=Path(
                                    predicate.path.steps[missing.depth:]
                                ),
                                op=predicate.op,
                                operand=predicate.operand,
                            ),
                        )
                    )
    report.satisfied = {p: tuple(v) for p, v in satisfied.items()}
    report.violated = {p: tuple(v) for p, v in violated.items()}
    report.unknown = {p: tuple(v) for p, v in unknown.items()}
    report.blocked = tuple(blocked)
    report.comparisons = meter.comparisons
    report.derefs = meter.derefs
    return report


def local_evaluation_difference(got, want) -> Optional[str]:
    """Why a kernel result differs from the reference's, or ``None``.

    Takes what any of the three methods returns — a
    :class:`LocalResultSet`, an ``(UnsolvedScan, EvalMeter)`` pair or a
    :class:`CheckReport` — and compares all of it: rows field by field
    with binding and status order, unsolved bookkeeping, the index probe
    and every meter.
    """
    difference = record_difference(got, want)
    return None if difference is None else "result" + difference


def _attempt(method, *args):
    """``(result, None)``, or ``(None, the exception raised)``."""
    try:
        return method(*args), None
    except Exception as exc:  # compared by type and message by the caller
        return None, exc


def _attempts_difference(
    kernel, reference, results_difference=local_evaluation_difference
) -> Optional[str]:
    """Why two :func:`_attempt` outcomes differ, or ``None``: another
    exception type or message, or results *results_difference* (by
    default :func:`record_difference`) tells apart."""
    (got, raised), (want, expected) = kernel, reference
    if (type(raised), str(raised)) != (type(expected), str(expected)):
        return f"raised {raised!r} != reference {expected!r}"
    return None if raised is not None else results_difference(got, want)


@contextlib.contextmanager
def shadowed_local_evaluation(differences: List[str]) -> Iterator[None]:
    """Run the reference beside every local evaluation made in the block.

    ``execute_local``, ``collect_unsolved`` and ``check_assistants`` are
    rebound on :class:`ComponentDatabase` to wrappers that answer the
    same request twice — kernel, then reference — and append a line to
    *differences* when the results differ, or when one side raises and
    the other does not raise the same type and message.  The caller gets
    the kernel's result (or exception) either way.  The methods are
    restored on exit; this is test scaffolding and swaps class
    attributes, so it is not for concurrent use.
    """
    references = {
        "execute_local": execute_local_reference,
        "collect_unsolved": collect_unsolved_reference,
        "check_assistants": check_assistants_reference,
    }
    kernels = {name: getattr(ComponentDatabase, name) for name in references}

    def both(name: str):
        kernel, reference = kernels[name], references[name]

        def evaluate(db, request):
            got, raised = _attempt(kernel, db, request)
            difference = _attempts_difference(
                (got, raised), _attempt(reference, db, request)
            )
            if difference is not None:
                differences.append(f"{name} at {db.name}: {difference}")
            if raised is not None:
                raise raised
            return got

        return evaluate

    for name in references:
        setattr(ComponentDatabase, name, both(name))
    try:
        yield
    finally:
        for name, kernel in kernels.items():
            setattr(ComponentDatabase, name, kernel)


# --- global evaluation (steps CA_G2 / CA_G3) ----------------------------------


def evaluate_global_extent(
    query: Query,
    extent,
    meter: Optional[EvalMeter] = None,
) -> ResultSet:
    """Step CA_G3: evaluate the query over a materialized global extent.

    The body ``repro.core.strategies.centralized`` ran, one
    :func:`~repro.core.predicates.evaluate_dnf` per global object, before
    :func:`~repro.core.strategies.centralized.evaluate_global` put CA on
    the columnar kernels; unchanged.  Maybe rows carry ``NullAttr`` atoms
    (site ``""``: the null was observed on the fused global object, not
    at one site).
    """
    from repro.conditions.algebra import NullAttr, attach

    meter = meter if meter is not None else EvalMeter()
    results = ResultSet(targets=query.targets)
    for goid in sorted(
        extent.extent(query.range_class), key=lambda g: g.value
    ):
        obj = extent.extent(query.range_class)[goid]
        outcome = evaluate_dnf(obj, query.where, extent.deref, meter)
        if outcome.tv is TV.FALSE:
            continue
        bindings = {}
        for target in query.targets:
            walk = walk_path(obj, target, extent.deref, meter)
            bindings[target] = NULL if walk.is_missing else walk.value
        if outcome.tv is TV.TRUE:
            results.add(
                GlobalResult(
                    goid=goid, kind=ResultKind.CERTAIN, bindings=bindings
                )
            )
        else:
            unsolved = tuple(o.predicate for o in outcome.unsolved)
            result = GlobalResult(
                goid=goid,
                kind=ResultKind.MAYBE,
                bindings=bindings,
                unsolved=unsolved,
            )
            attach(result, *(
                NullAttr(site="", goid=goid, attr=str(p)) for p in unsolved
            ))
            results.add(result)
    return results


def extent_difference(got, want) -> Optional[str]:
    """Why two :class:`~repro.integration.outerjoin.GlobalExtent` differ
    (classes, GOid order, every integrated object), or ``None``."""
    if got.classes() != want.classes():
        return f": classes {got.classes()} != {want.classes()}"
    for name in got.classes():
        mine, theirs = got.extent(name), want.extent(name)
        if list(mine.items()) != list(theirs.items()):
            return f".{name}: {len(mine)} objects differ from a fresh merge"
    return None


@contextlib.contextmanager
def shadowed_global_evaluation(differences: List[str]) -> Iterator[None]:
    """Run the references beside CA's global site in the block.

    In ``repro.core.strategies.centralized``, ``evaluate_global`` is
    rebound to a wrapper that evaluates the same extent twice — kernel,
    then :func:`evaluate_global_extent` — and ``materialize`` to one
    that also merges the same exports afresh, with no store to reuse
    from.  A line is appended to *differences* when answers, conditions
    or meters differ, when one side raises and the other does not raise
    the same type and message, or when a (possibly reused) extent, its
    ``IntegrationStats`` or the catalog probes it was charged are not
    those of the fresh merge.  The caller gets production's result (or
    exception) either way.  Restored on exit; test scaffolding, not for
    concurrent use.
    """
    from repro.core.strategies import centralized

    evaluate, merge = centralized.evaluate_global, centralized.materialize

    def evaluate_both(query, extent, meter):
        expected_meter = dataclasses.replace(meter)
        got, raised = _attempt(evaluate, query, extent, meter)
        want, expected = _attempt(
            evaluate_global_extent, query, extent, expected_meter
        )
        # Rows field by field, conditions included, then both meters.
        difference = _attempts_difference(
            ((got, meter), raised), ((want, expected_meter), expected)
        )
        if difference is not None:
            differences.append(f"evaluate_global: {difference}")
        if raised is not None:
            raise raised
        return got

    def merge_both(classes, global_schema, catalog, exports, stats, reuse=None):
        def merged(**how):
            charged, probes = IntegrationStats(), catalog.cache_stats()
            extent = merge(
                classes, global_schema, catalog, exports, charged, **how
            )
            return extent, (charged, catalog.cache_stats().delta(probes))

        got, charged = merged(reuse=reuse)
        want, expected = merged()
        stats.merge(charged[0])
        difference = extent_difference(got, want)
        if difference is None and charged != expected:
            difference = f": charged {charged} != fresh merge {expected}"
        if difference is not None:
            differences.append(f"materialize{difference}")
        return got

    centralized.evaluate_global = evaluate_both
    centralized.materialize = merge_both
    try:
        yield
    finally:
        centralized.evaluate_global = evaluate
        centralized.materialize = merge
