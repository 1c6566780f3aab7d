"""The certification engine: turning local maybe results into final answers.

Implements the paper's Certification Rule (Section 2.3):

    "An unsolved object o can be turned into a solved object if its
    assistant objects jointly satisfy all the unsolved predicates on o.
    Object o is eliminated when any of its assistant object violates an
    unsolved predicate."

together with the surrounding machinery observable in the paper's worked
example:

* local results from different sites describing the same entity (same
  GOid) are merged — a predicate TRUE anywhere is TRUE for the entity;
* a maybe root object is **eliminated** when one of its isomeric objects
  exists in another site's local root class but is absent from that
  site's local results (it violated a local predicate there — the paper's
  s1/John case);
* unsolved items resolve through assistant-object check verdicts, with
  violation taking precedence over satisfaction;
* the final answer re-evaluates the query's ``Where`` clause (conjunctive
  or DNF) over the merged per-predicate statuses.

The rule is evaluated once per distinct *status pattern*, not once per
entity.  An entity's pattern is the per-site tuple of its rows' packed
Kleene codes (``TRUE=2 / UNKNOWN=1 / FALSE=0``, the codes of
:mod:`repro.objectdb.columnar`) in ``query.all_predicates()`` order.
Everything the rule derives from the statuses alone — the merged vector
and its exact comparison charge, the ``Where`` code (conjunction is
``min``, disjunction ``max``), the still-unsolved predicates and the
``(site, predicate)`` pairs of the :class:`NullAttr` atoms — is a
function of the pattern, so it is computed on the pattern's first
entity and read back for the rest.  What stays per entity is what
depends on the entity: GOid grouping, the root-presence rule, assistant
verdicts for rows that carry unsolved items, and the binding merge of an
entity several sites hold.  The certain answer stays columns
(``ResultSet(columns=...)``), gathered by row index from the sites'
value columns; only a maybe row becomes a result.  The tables live for
one :func:`certify` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.conditions.algebra import NullAttr
from repro.core.query import Predicate, Query
from repro.core.results import GlobalResult, ResultKind, ResultSet
from repro.errors import MappingError
from repro.integration.global_schema import GlobalSchema
from repro.integration.mapping import MappingCatalog
from repro.objectdb.columnar import (
    CODE_OF_TV,
    FALSE_CODE,
    TRUE_CODE,
    UNKNOWN_CODE,
)
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.local_query import Book, CheckReport, LocalResultSet
from repro.objectdb.values import MultiValue, NULL, Value

#: One site's packed codes in ``query.all_predicates()`` order.
Codes = Tuple[int, ...]

#: Assistant-check verdict labels.
SATISFIED = "satisfied"
VIOLATED = "violated"
UNKNOWN_VERDICT = "unknown"


class VerdictIndex:
    """Lookup of assistant-check verdicts by (assistant LOid, predicate).

    Populated from :class:`~repro.objectdb.local_query.CheckReport`
    responses and, for the signature variants, from definitive local
    signature verdicts.  Violation takes precedence when the same pair is
    reported twice (the certification rule eliminates on any violation).
    """

    def __init__(self) -> None:
        self._verdicts: Dict[Tuple[LOid, Predicate], str] = {}

    def add(self, loid: LOid, predicate: Predicate, verdict: str) -> None:
        key = (loid, predicate)
        existing = self._verdicts.get(key)
        if existing == VIOLATED:
            return
        if verdict == VIOLATED or existing is None or existing == UNKNOWN_VERDICT:
            self._verdicts[key] = verdict

    def add_report(self, report: CheckReport) -> None:
        for predicate, loids in report.satisfied.items():
            for loid in loids:
                self.add(loid, predicate, SATISFIED)
        for predicate, loids in report.violated.items():
            for loid in loids:
                self.add(loid, predicate, VIOLATED)
        for predicate, loids in report.unknown.items():
            for loid in loids:
                self.add(loid, predicate, UNKNOWN_VERDICT)

    def get(self, loid: LOid, predicate: Predicate) -> Optional[str]:
        return self._verdicts.get((loid, predicate))

    def clone(self) -> "VerdictIndex":
        """An independent snapshot new evidence can merge into.

        Repair keeps the original execution's index untouched and folds
        recovered verdicts into the clone; because merges are
        order-independent (VIOLATED is sticky), the clone ends up
        identical to what one fault-free collection would have built.
        """
        other = VerdictIndex()
        other._verdicts = dict(self._verdicts)
        return other

    def __len__(self) -> int:
        return len(self._verdicts)


@dataclass
class CertificationStats:
    """Work performed and outcomes produced by certification."""

    groups: int = 0
    comparisons: int = 0
    eliminated_by_absence: int = 0
    eliminated_by_violation: int = 0
    promoted_to_certain: int = 0
    remained_maybe: int = 0


def certify(
    query: Query,
    global_schema: GlobalSchema,
    catalog: MappingCatalog,
    local_results: Mapping[str, LocalResultSet],
    verdicts: VerdictIndex,
    stats: Optional[CertificationStats] = None,
) -> ResultSet:
    """Merge per-site local results into the final global answer.

    Maybe rows carry :class:`~repro.conditions.algebra.NullAttr` atoms,
    one per (observing site, unsolved predicate) — the residual
    genuine-null provenance that makes a fault-free maybe rank as
    *sampling* missingness.

    Args:
        query: the original global query.
        local_results: db name -> that site's local result set.  Every
            site that received a local query must appear (even with zero
            rows) — absence detection depends on it.
        verdicts: assistant-check verdicts collected by the strategy.
    """
    stats = stats if stats is not None else CertificationStats()
    root_table = catalog.table(query.range_class)
    sites = tuple(local_results)
    queried = len(sites)
    targets = query.targets

    # An entity is ``[goid, slot, row, slot, row, ...]``: its row at
    # each queried site that holds it, grouped on the site's GOid
    # column, which is read at the catalog as it is now, also when a
    # resumed run brings the results of an earlier one.  Books and
    # values are read off the sites' columns by that row.
    patterns = _PatternTables(query, sites)
    groups: Dict[str, list] = {}
    books_at: List[Sequence[Book]] = []
    values_at: List[List[Sequence[Value]]] = []
    for slot, result in enumerate(local_results.values()):
        ids, at, books, values = result.as_columns()
        goids = root_table.goids_at(ids, at)
        if None in goids:
            raise MappingError(
                f"local result row {ids.loids[at[goids.index(None)]]} has "
                f"no GOid for root class {query.range_class!r}"
            )
        books_at.append(books)
        unbound = [NULL] * len(books)
        values_at.append([values.get(target, unbound) for target in targets])
        for r, goid in enumerate(goids):
            entity = groups.get(goid.value)
            if entity is None:
                groups[goid.value] = [goid, slot, r]
            elif entity[-2] == slot:  # a second row there: the last counts
                entity[-1] = r
            else:
                entity += (slot, r)

    placements_of = root_table.placements
    # Per certain entity, its GOid and where its values are: the answer's
    # columns are gathered from there at the end.
    certain: List[Tuple[GOid, int, int]] = []
    maybe: List[GlobalResult] = []
    stats.groups += len(groups)
    for key in sorted(groups):
        entity = groups[key]
        goid = entity[0]
        if len(entity) == 3:  # held at one site, as most entities are
            slot, r = entity[1], entity[2]
            books: Sequence[Book] = (books_at[slot][r],)
            pattern = patterns.at(slot, books[0])
        else:
            rows = list(zip(entity[1::2], entity[2::2]))
            held: List[Optional[Book]] = [None] * queried
            for slot, r in rows:
                held[slot] = books_at[slot][r]
            books = [book for book in held if book is not None]
            pattern = patterns.of(held)
        if _eliminated_by_absence(
            pattern.absent, placements_of(goid), queried, stats
        ):
            stats.eliminated_by_absence += 1
            continue
        stats.comparisons += pattern.comparisons
        outcome = pattern.outcome
        for book in books:
            if book.unsolved_items:
                outcome = patterns.conclude(pattern, _apply_assistant_verdicts(
                    books, global_schema, catalog, verdicts,
                    patterns.index, pattern.merged, stats,
                ))
                break
        where = outcome.where
        if where == FALSE_CODE:
            stats.eliminated_by_violation += 1
            continue
        if len(entity) > 3:  # its merged values: one more one-row "site"
            values_at.append([[value] for value in _merge_values([
                [column[r] for column in values_at[slot]] for slot, r in rows
            ])])
            slot, r = len(values_at) - 1, 0
        if where == TRUE_CODE:
            stats.promoted_to_certain += 1
            certain.append((goid, slot, r))
            continue
        stats.remained_maybe += 1
        # The atoms are already deduplicated and in ``attach`` order.
        maybe.append(GlobalResult(
            goid,
            ResultKind.MAYBE,
            dict(zip(targets, map(itemgetter(r), values_at[slot]))),
            outcome.unsolved,
            conditions=tuple([
                NullAttr(site, goid, attr) for site, attr in outcome.null_atoms
            ]),
        ))
    return ResultSet(targets, maybe=maybe, columns=(
        [goid for goid, _, _ in certain],
        [[values_at[slot][i][r] for _, slot, r in certain]
         for i in range(len(targets))],
    ))


class _Outcome(NamedTuple):
    """What the rule concludes from one final status vector."""

    #: Packed code of the ``Where`` clause.
    where: int
    #: Predicates keeping the entity a maybe result.
    unsolved: Tuple[Predicate, ...]
    #: Sorted ``(site, attr)`` of the row's :class:`NullAttr` atoms.
    null_atoms: Tuple[Tuple[str, str], ...]


class _Pattern(NamedTuple):
    """Everything derived from one per-site status pattern."""

    #: Per queried site, the row's codes (``None``: no row there).
    site_codes: Tuple[Optional[Codes], ...]
    #: The merged status vector, and what merging it charges.
    merged: Codes
    comparisons: int
    #: The sites without a row, each with what the root-presence rule
    #: has compared once it reaches that site.
    absent: Tuple[Tuple[int, str], ...]
    #: The rule's conclusion from ``merged`` itself.
    outcome: _Outcome
    #: Status vector after assistant verdicts -> the rule's conclusion.
    outcomes: Dict[Codes, _Outcome]


class _PatternTables:
    """The per-call memo: status pattern -> :class:`_Pattern`.

    Two keys reach a pattern.  The fast one is the identity of each
    book's ``predicate_status`` dict: columnar local evaluation hands
    every row of one pattern the same dict, so the usual entity costs
    one probe, keyed ``(slot, id)`` when one site holds it (:meth:`at`),
    and decodes nothing.  The other is the decoded codes
    themselves (one dict probe per predicate, once per dict), which is
    how rows that own their dict — the reference evaluator's, or a
    test's — find the pattern an earlier entity built.  Identity is a
    sound key because every book, and so every dict, outlives the call
    that holds these tables.
    """

    def __init__(self, query: Query, sites: Tuple[str, ...]) -> None:
        self.sites = sites
        self.predicates = query.all_predicates()
        self.index = index = {p: i for i, p in enumerate(self.predicates)}
        #: The ``Where`` clause over predicate positions.
        self.where = [[index[p] for p in conjunct] for conjunct in query.where]
        self._codes_of_status: Dict[int, Codes] = {}
        self._by_identity: Dict[Tuple[int, ...], _Pattern] = {}
        self._by_site: Dict[Tuple[int, int], _Pattern] = {}
        self._by_codes: Dict[Tuple[Optional[Codes], ...], _Pattern] = {}

    def at(self, slot: int, book: Book) -> _Pattern:
        """:meth:`of` an entity that only the site at *slot* holds."""
        key = (slot, id(book.predicate_status))
        pattern = self._by_site.get(key)
        if pattern is None:
            held: List[Optional[Book]] = [None] * len(self.sites)
            held[slot] = book
            pattern = self._by_site[key] = self.of(held)
        return pattern

    def of(self, held: Sequence[Optional[Book]]) -> _Pattern:
        key = tuple([
            0 if book is None else id(book.predicate_status) for book in held
        ])
        pattern = self._by_identity.get(key)
        if pattern is None:
            site_codes = tuple([
                None if book is None else self._decode(book.predicate_status)
                for book in held
            ])
            pattern = self._by_codes.get(site_codes)
            if pattern is None:
                merged, comparisons = _merge_codes(
                    site_codes, len(self.predicates)
                )
                outcomes: Dict[Codes, _Outcome] = {}
                pattern = self._by_codes[site_codes] = _Pattern(
                    site_codes, merged, comparisons,
                    tuple([
                        (slot + 1, site)
                        for slot, site in enumerate(self.sites)
                        if site_codes[slot] is None
                    ]),
                    self._conclude(site_codes, merged, outcomes),
                    outcomes,
                )
            self._by_identity[key] = pattern
        return pattern

    def _decode(self, status: Mapping[Predicate, object]) -> Codes:
        codes = self._codes_of_status.get(id(status))
        if codes is None:
            # A predicate the site did not report is UNKNOWN.
            codes = self._codes_of_status[id(status)] = tuple([
                CODE_OF_TV.get(status.get(p), UNKNOWN_CODE)
                for p in self.predicates
            ])
        return codes

    def conclude(self, pattern: _Pattern, codes: Codes) -> _Outcome:
        """The rule's conclusion once assistant verdicts gave *codes*."""
        return self._conclude(pattern.site_codes, codes, pattern.outcomes)

    def _conclude(self, site_codes, codes: Codes, outcomes) -> _Outcome:
        outcome = outcomes.get(codes)
        if outcome is None:
            where = _where_code(self.where, codes)
            unsolved: Tuple[int, ...] = ()
            if where == UNKNOWN_CODE:
                unsolved = still_unsolved(self.where, codes)
            outcome = outcomes[codes] = _Outcome(
                where,
                tuple([self.predicates[i] for i in unsolved]),
                _null_atoms(unsolved, self.sites, site_codes, self.predicates),
            )
        return outcome


def _eliminated_by_absence(
    absent: Sequence[Tuple[int, str]],
    placements: Mapping[str, LOid],
    queried: int,
    stats: CertificationStats,
) -> bool:
    """Root-presence rule: an isomeric root object filtered out elsewhere.

    If the entity has a representative in the local root class of a
    queried site but that site returned no row for it, the representative
    violated a local predicate there — the entity certainly fails the
    query and is eliminated (the paper's s1 example).  The *queried* sites
    are tried in order and each one tried, with a row or without,
    counts one comparison.
    """
    for compared, db_name in absent:
        if db_name in placements:
            stats.comparisons += compared
            return True
    stats.comparisons += queried
    return False


def _merge_codes(
    site_codes: Sequence[Optional[Codes]], width: int
) -> Tuple[Codes, int]:
    """Combine per-site statuses; returns (merged codes, comparisons).

    FALSE anywhere wins (some site evaluated real data and it failed),
    then TRUE anywhere, then UNKNOWN.  Sites are read in order and a
    FALSE stops the scan of its predicate, which the charge reflects.
    """
    present = [codes for codes in site_codes if codes is not None]
    merged: List[int] = []
    comparisons = 0
    for position in range(width):
        value = UNKNOWN_CODE
        for codes in present:
            comparisons += 1
            code = codes[position]
            if code == FALSE_CODE:
                value = FALSE_CODE
                break
            if code == TRUE_CODE:
                value = TRUE_CODE
        merged.append(value)
    return tuple(merged), comparisons


def _apply_assistant_verdicts(
    books: Sequence[Book],
    global_schema: GlobalSchema,
    catalog: MappingCatalog,
    verdicts: VerdictIndex,
    index: Mapping[Predicate, int],
    merged: Codes,
    stats: CertificationStats,
) -> Codes:
    """Resolve UNKNOWN predicates through unsolved-item assistant checks.

    For every unsolved item in the entity's *books*, look up the verdicts
    of its assistant objects on the item's relative predicates and fold
    them into the original predicate's status.  Violation has precedence:
    "object o is eliminated when any of its assistant objects violates an
    unsolved predicate".  Returns the status vector after the verdicts.
    """
    codes = list(merged)
    for book in books:
        for item in book.unsolved_items:
            global_class = global_schema.global_class_of(
                item.loid.db, item.class_name
            )
            if global_class is None:
                continue
            assistants = catalog.assistants_of(global_class, item.loid)
            for unsolved in item.unsolved:
                position = index.get(unsolved.original)
                if position is None:
                    raise MappingError(
                        f"unsolved item {item.loid} names predicate "
                        f"{unsolved.original}, which the query does not have"
                    )
                if codes[position] == FALSE_CODE:
                    continue
                relative = unsolved.relative_predicate
                for assistant in assistants:
                    stats.comparisons += 1
                    verdict = verdicts.get(assistant, relative)
                    if verdict == VIOLATED:
                        codes[position] = FALSE_CODE
                        break
                    if verdict == SATISFIED:
                        codes[position] = TRUE_CODE
    return tuple(codes)


def _where_code(where: Sequence[Sequence[int]], codes: Codes) -> int:
    """The ``Where`` clause over packed codes: ``max`` of ``min``s."""
    if not where:
        return TRUE_CODE
    return max([
        min([codes[i] for i in conjunct], default=TRUE_CODE)
        for conjunct in where
    ])


def still_unsolved(
    where: Sequence[Sequence[int]], codes: Sequence[int]
) -> Tuple[int, ...]:
    """Positions of the predicates keeping the entity a maybe result.

    UNKNOWN predicates appearing in conjuncts that are not already FALSE,
    in first-occurrence order.  *where* is the ``Where`` clause over
    predicate positions and *codes* the packed status at each position;
    certification and CA's phase P (CA_G3) both decide by this rule.
    """
    unsolved: Dict[int, None] = {}
    for conjunct in where:
        if FALSE_CODE in [codes[i] for i in conjunct]:
            continue
        for i in conjunct:
            if codes[i] == UNKNOWN_CODE:
                unsolved.setdefault(i)
    return tuple(unsolved)


def _null_atoms(
    unsolved: Sequence[int],
    sites: Tuple[str, ...],
    site_codes: Sequence[Optional[Codes]],
    predicates: Sequence[Predicate],
) -> Tuple[Tuple[str, str], ...]:
    """Which sites observed each still-unsolved predicate UNKNOWN.

    One ``(site, attr)`` per :class:`NullAttr` atom of the row, with
    site ``""`` when no site holding a row saw the predicate UNKNOWN —
    deduplicated and sorted as :func:`repro.conditions.algebra.attach`
    would leave them.  These atoms are never dischargeable (the null is
    in the data, not in the topology): they mark the row as sampling
    missingness unless a site/copy/flux atom is attached on top by a
    degradation path.
    """
    atoms = set()
    for i in unsolved:
        attr = str(predicates[i])
        sources = [
            site
            for site, codes in zip(sites, site_codes)
            if codes is not None and codes[i] == UNKNOWN_CODE
        ]
        atoms.update([(site, attr) for site in sources or ("",)])
    return tuple(sorted(atoms))


def _merge_values(sources: Sequence[Sequence[Value]]) -> List[Value]:
    """Merge target values across isomeric rows, per target (first
    non-null wins; multi-values union).  Missing data is NULL in a value
    column."""
    merged_values: List[Value] = []
    for values in zip(*sources):
        merged: Value = NULL
        for value in values:
            if value is NULL:
                continue
            if isinstance(value, MultiValue):
                merged = _union_bindings(values)
                break
            if merged is NULL:
                merged = value
        merged_values.append(merged)
    return merged_values


def _union_bindings(values: Sequence[Value]) -> Value:
    """One target some site bound to a multi-value: the union of all."""
    collected: List[Value] = []
    for value in values:
        if isinstance(value, MultiValue):
            collected.extend(value)
        elif value is not NULL:
            collected.append(value)
    return MultiValue(collected)
