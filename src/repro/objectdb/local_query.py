"""Local queries and local results at component databases.

The localized strategies decompose the global query into one *local query*
per component database holding a constituent of the root class (paper,
Section 2.3).  A local query carries:

* the *local predicates* — the global predicates that do **not** involve
  missing attributes of the site's constituent classes, and can therefore
  be evaluated locally (possibly still UNKNOWN for individual objects with
  null values);
* the *removed predicates* — predicates involving missing attributes,
  each annotated with the path depth at which the site's schema loses the
  attribute.  These are statically unsolved at this site; the component
  database only locates the object that *would* hold the data (the root
  object or an *unsolved item*) so that assistant objects can be checked.

The local result rows report, per surviving object, its certain/maybe
status, the unsolved predicates on the root object, and the unsolved
items (nested complex objects with their relative unsolved predicates).
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass, field
from itertools import repeat
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.objectdb.indexes import IndexProbe

from repro.core.query import Conjunction, Path, Predicate
from repro.core.tvl import TV
from repro.objectdb.ids import LOid
from repro.objectdb.values import NULL, Value, is_null


@dataclass(frozen=True)
class RemovedPredicate:
    """A global predicate that cannot be evaluated at a given site.

    Attributes:
        predicate: the original global predicate.
        missing_depth: first index into ``predicate.path.steps`` whose
            attribute the site's schema does not define (on the class
            reached at that point of the path).
    """

    predicate: Predicate
    missing_depth: int


@dataclass(frozen=True)
class LocalQuery:
    """A query shipped to one component database.

    Attributes:
        db_name: target component database.
        range_class: the local root class (constituent of the global root).
        targets: paths to project for the answer (on the global attribute
            names; locally missing targets bind to NULL).
        where: local predicates in DNF, one conjunct per global conjunct
            (single conjunction for the paper's standard queries; a
            conjunct may be empty when all its predicates were removed).
        removed: predicates involving missing attributes of local classes
            (flat, de-duplicated view across conjuncts).
        removed_by_conjunct: the removed predicates of each conjunct,
            aligned with ``where`` — needed so a row can be recognized as
            locally certain when some conjunct is fully TRUE *and* lost no
            predicate to removal.
    """

    db_name: str
    range_class: str
    targets: Tuple[Path, ...]
    where: Tuple[Conjunction, ...] = ()
    removed: Tuple[RemovedPredicate, ...] = ()
    removed_by_conjunct: Tuple[Tuple[Predicate, ...], ...] = ()

    @property
    def local_predicates(self) -> Tuple[Predicate, ...]:
        """Flat view of the local predicates (conjunctive queries)."""
        if not self.where:
            return ()
        if len(self.where) == 1:
            return self.where[0]
        seen = []
        for conj in self.where:
            for pred in conj:
                if pred not in seen:
                    seen.append(pred)
        return tuple(seen)


@dataclass(frozen=True)
class UnsolvedPredicateOnObject:
    """An unsolved predicate expressed relative to the object holding it.

    ``relative_path`` is the suffix of the global predicate's path starting
    at the holder object; evaluating it on an assistant object (at the
    assistant's own site, following that site's references) checks the
    assistant (paper: "to check the assistant object").
    """

    original: Predicate
    relative_path: Path

    #: Set on the instance by the first read of the property below.
    _relative_predicate = None

    @property
    def relative_predicate(self) -> Predicate:
        # Built once: certification probes the verdict index with it per
        # assistant, and a kept instance keeps its cached hash.
        relative = self._relative_predicate
        if relative is None:
            relative = Predicate(
                path=self.relative_path,
                op=self.original.op,
                operand=self.original.operand,
            )
            object.__setattr__(self, "_relative_predicate", relative)
        return relative


class RowKind(enum.Enum):
    """Whether a local result row is certain or maybe at its site."""

    CERTAIN = "certain"
    MAYBE = "maybe"


@dataclass
class UnsolvedItem:
    """A nested complex object of a maybe result holding missing data.

    Paper, Section 2.3: "for each maybe result o_m, the value for such a
    nested complex attribute is an object o_nc ... o_nc is named an
    unsolved item of maybe result o_m".

    Attributes:
        loid: local identifier of the nested object (the unsolved item).
        class_name: its local class.
        reached_via: path prefix from the root object to this item.
        unsolved: the predicates (relative to this item) it cannot answer.
    """

    loid: LOid
    class_name: str
    reached_via: Path
    unsolved: Tuple[UnsolvedPredicateOnObject, ...]


class Book(NamedTuple):
    """What local evaluation concluded about a row, apart from which
    object it is and what it binds.  Read-only: every row of one status
    pattern shares ``predicate_status`` (the global site recognises the
    pattern by that dict's identity), and rows without unsolved data
    share the whole book.
    """

    kind: RowKind
    #: Three-valued status of every global predicate at this site, keyed
    #: by the original predicate; certification recombines these across
    #: sites and assistant checks.
    predicate_status: Dict[Predicate, TV]
    #: Unsolved predicates whose missing data sits on the root object.
    unsolved: Tuple[UnsolvedPredicateOnObject, ...] = ()
    unsolved_items: Tuple[UnsolvedItem, ...] = ()


@dataclass
class LocalResultRow:
    """One root object surviving local evaluation at a component
    database: one position of a :class:`LocalResultSet`, as a record."""

    loid: LOid
    class_name: str
    kind: RowKind
    bindings: Dict[Path, Value] = field(default_factory=dict)
    unsolved: Tuple[UnsolvedPredicateOnObject, ...] = ()
    unsolved_items: Tuple[UnsolvedItem, ...] = ()
    predicate_status: Dict[Predicate, TV] = field(default_factory=dict)

    @property
    def is_maybe(self) -> bool:
        return self.kind is RowKind.MAYBE


class RowIds:
    """The LOids a result's rows are positions of — one extent version's,
    shared by every result over it — and, in ``goids``, the slot where
    ``MappingTable.goids_at`` keeps the GOid column read off them."""

    __slots__ = ("loids", "goids")

    def __init__(self, loids: Sequence[LOid]) -> None:
        self.loids = loids
        self.goids: Optional[tuple] = None


#: The stored form of a local result: the row LOids as positions of a
#: :class:`RowIds`, one book per row, one value list per target (NULL
#: where the data is missing).
Columns = Tuple[RowIds, Sequence[int], List[Book], Dict[Path, List[Value]]]


@dataclass
class LocalResultSet:
    """Everything a component database returns for a local query.

    A local result is columns (:meth:`as_columns`); ``rows`` is a view,
    materialised on first access and kept.  A set built from ``rows=``
    (the reference evaluator, tests) derives its columns from them when
    first asked, so rows appended before that count.
    """

    db_name: str
    range_class: str
    rows: List[LocalResultRow] = None  # type: ignore[assignment]
    # Work accounting for the simulator.
    objects_scanned: int = 0
    comparisons: int = 0
    derefs: int = 0
    # Set when a secondary index restricted the scan (see
    # repro.objectdb.indexes); index candidates are random fetches.
    index_probe: Optional["IndexProbe"] = None
    columns: InitVar[Optional[Columns]] = None

    def __post_init__(self, columns: Optional[Columns]) -> None:
        self._columns = columns

    def _view(self) -> List[LocalResultRow]:
        if self._rows is None and self._columns is None:
            self._rows = []
        elif self._rows is None:
            ids, at, books, values = self._columns
            self._rows = [
                LocalResultRow(
                    ids.loids[r], self.range_class, book.kind,
                    dict(zip(values, vals)), book.unsolved,
                    book.unsolved_items, book.predicate_status,
                )
                for r, book, vals in zip(at, books, self.bound(tuple(values)))
            ]
        return self._rows

    def as_columns(self) -> Columns:
        """The stored form (derived from the rows a set was built with)."""
        if self._columns is None:
            rows = self.rows
            targets = dict.fromkeys(t for row in rows for t in row.bindings)
            self._columns = (
                RowIds([row.loid for row in rows]),
                range(len(rows)),
                [
                    Book(row.kind, row.predicate_status, row.unsolved,
                         row.unsolved_items)
                    for row in rows
                ],
                {
                    t: [
                        NULL if is_null(v) else v
                        for v in (row.bindings.get(t, NULL) for row in rows)
                    ]
                    for t in targets
                },
            )
        return self._columns

    def bound(self, targets: Sequence[Path]) -> Iterator[Tuple[Value, ...]]:
        """Per row, its value for each of *targets* (NULL when not bound)."""
        _, _, books, values = self.as_columns()
        unbound = [NULL] * len(books)
        return zip(*[
            values.get(target, unbound) for target in targets
        ]) if targets else repeat((), len(books))

    @property
    def books(self) -> List[Book]:
        return self.as_columns()[2]

    @property
    def certain_rows(self) -> List[LocalResultRow]:
        return [row for row in self.rows if row.kind is RowKind.CERTAIN]

    @property
    def maybe_rows(self) -> List[LocalResultRow]:
        return [row for row in self.rows if row.kind is RowKind.MAYBE]

    def row_for(self, loid: LOid) -> Optional[LocalResultRow]:
        for row in self.rows:
            if row.loid == loid:
                return row
        return None


# ``rows`` stays a declared field (constructor keyword, equality, repr,
# field-by-field comparison) whose storage is the view above.
LocalResultSet.rows = property(  # type: ignore[assignment]
    LocalResultSet._view, lambda self, rows: setattr(self, "_rows", rows)
)


@dataclass(frozen=True)
class CheckRequest:
    """A request to check assistant objects at their home database.

    Paper, step BL_C2/BL_C3: the LOids of the assistant objects and the
    corresponding unsolved predicates are sent to the owning component
    database, which evaluates the predicates on those objects.
    """

    db_name: str
    class_name: str
    loids: Tuple[LOid, ...]
    predicates: Tuple[Predicate, ...]


@dataclass(frozen=True)
class BlockedAt:
    """A check that got stuck at another object holding the missing data.

    When the checking site walks a nested relative predicate and hits
    missing data on an object *other than* the checked assistant itself,
    the report names that blocking object and the remaining relative
    predicate.  The global site can then *chase* the block: issue a
    follow-up check round against the blocker's own isomeric copies.
    (When the assistant itself lacks the data, its copies are the other
    assistants of the same item — already checked — so no chase entry is
    produced.)

    This iterated protocol is our documented completion of the paper's
    single-hop check: without it, the localized strategies would leave
    entities maybe that CA resolves through multi-site integration of
    reference chains.
    """

    checked: LOid          # the assistant the request named
    predicate: Predicate   # the relative predicate that was being checked
    holder: LOid           # the object at which the walk got stuck
    holder_class: str      # its local class name
    remaining: Predicate   # predicate relative to the holder


@dataclass
class CheckReport:
    """Per-assistant, per-predicate verdicts from a check request.

    The paper's protocol returns the satisfied LOids; the certification
    rule additionally needs to distinguish *violated* (assistant object
    fails the predicate -> eliminate) from *unknown* (assistant object is
    itself missing the data -> remains maybe), so the report keeps all
    three verdict sets per predicate, plus the :class:`BlockedAt` records
    that drive chase rounds.
    """

    db_name: str
    class_name: str
    satisfied: Dict[Predicate, Tuple[LOid, ...]] = field(default_factory=dict)
    violated: Dict[Predicate, Tuple[LOid, ...]] = field(default_factory=dict)
    unknown: Dict[Predicate, Tuple[LOid, ...]] = field(default_factory=dict)
    blocked: Tuple[BlockedAt, ...] = ()
    objects_checked: int = 0
    comparisons: int = 0
    derefs: int = 0

    def verdict(self, predicate: Predicate, loid: LOid) -> Optional[str]:
        """Return 'satisfied' / 'violated' / 'unknown' for one assistant."""
        if loid in self.satisfied.get(predicate, ()):
            return "satisfied"
        if loid in self.violated.get(predicate, ()):
            return "violated"
        if loid in self.unknown.get(predicate, ()):
            return "unknown"
        return None
