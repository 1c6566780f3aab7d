"""The per-site object database engine.

:class:`ComponentDatabase` stores class extents for one site and executes
the two kinds of requests a site receives in the paper's protocols:

* a **local query** (steps BL_C1/PL_C2): scan the local root class,
  evaluate the local predicates under 3VL, and report surviving rows with
  their unsolved predicates and unsolved items;
* an **assistant check** (steps BL_C3/PL_C3): retrieve a list of objects
  by LOid and evaluate appended unsolved predicates on them.

It also serves the centralized strategy's full-extent export (step CA_C1),
projected on the attributes the query needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.predicates import EvalMeter, evaluate_predicate, walk_path
from repro.core.query import Path, Predicate
from repro.core.tvl import TV
from repro.errors import ObjectStoreError, UnknownClassError
from repro.objectdb.columnar import (
    ColumnarExtent,
    FALSE_CODE,
    TV_OF_CODE,
    UNKNOWN_CODE,
)
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.indexes import SERVES, IndexProbe, index_probe
from repro.objectdb.local_query import (
    BlockedAt,
    Book,
    CheckReport,
    CheckRequest,
    LocalQuery,
    LocalResultSet,
    RemovedPredicate,
    RowKind,
    UnsolvedItem,
    UnsolvedPredicateOnObject,
)
from repro.objectdb.objects import LocalObject
from repro.objectdb.schema import ComponentSchema


@dataclass
class UnsolvedScan:
    """Result of a phase-O-first scan (PL_C1): unsolved data per root object."""

    db_name: str
    range_class: str
    objects_scanned: int = 0
    per_root: Dict[
        LOid,
        Tuple[Tuple[UnsolvedPredicateOnObject, ...], Tuple[UnsolvedItem, ...]],
    ] = field(default_factory=dict)

    def all_items(self) -> List[UnsolvedItem]:
        items: List[UnsolvedItem] = []
        for _unsolved, row_items in self.per_root.values():
            items.extend(row_items)
        return items


class ComponentDatabase:
    """An in-memory object database for one federation site."""

    def __init__(self, schema: ComponentSchema) -> None:
        self.schema = schema
        self._extents: Dict[str, Dict[LOid, LocalObject]] = {
            name: {} for name in schema.class_names
        }
        #: Declared indexes: (class, attribute) -> ``"hash"``/``"sorted"``.
        self.indexes: Dict[Tuple[str, str], str] = {}
        #: O(1) LOid lookup across all extents (mirrors :meth:`get`'s
        #: schema-order scan semantics for cross-class duplicates).
        self._by_loid: Dict[LOid, LocalObject] = {}
        #: Bumped on every insert and every :meth:`note_mutation`; keys
        #: the columnar extent views so a stale column can never be read.
        self.data_version = 0
        self._columnar: Dict[str, ColumnarExtent] = {}

    @property
    def name(self) -> str:
        return self.schema.db_name

    # --- storage ------------------------------------------------------------

    def insert(self, obj: LocalObject, validate: bool = True) -> None:
        """Insert one object; raises on duplicates or schema violations."""
        if obj.class_name not in self._extents:
            raise UnknownClassError(obj.class_name, where=f"db {self.name!r}")
        if obj.loid.db != self.name:
            raise ObjectStoreError(
                f"object {obj.loid} belongs to db {obj.loid.db!r}, "
                f"not {self.name!r}"
            )
        extent = self._extents[obj.class_name]
        if obj.loid in extent:
            raise ObjectStoreError(f"duplicate LOid {obj.loid}")
        if validate:
            obj.validate_against(self.schema.cls(obj.class_name))
        extent[obj.loid] = obj
        if obj.loid not in self._by_loid:
            self._by_loid[obj.loid] = obj
        else:
            # Cross-class duplicate LOids: keep the schema-order winner
            # the linear scan used to return.
            for other in self._extents.values():
                found = other.get(obj.loid)
                if found is not None:
                    self._by_loid[obj.loid] = found
                    break
        self.data_version += 1

    def bulk_insert(self, objects: Iterable[LocalObject], validate: bool = False) -> int:
        """Insert many objects (validation off by default for generators)."""
        count = 0
        for obj in objects:
            self.insert(obj, validate=validate)
            count += 1
        return count

    def get(self, loid: LOid) -> Optional[LocalObject]:
        """Fetch an object by LOid (any class), or None."""
        return self._by_loid.get(loid)

    def note_mutation(self, class_name: Optional[str] = None) -> None:
        """Record an in-place mutation of stored objects' attributes.

        A columnar view snapshots whole extents (and every index probe
        reads one), so mutating ``obj.values`` without this hook would
        leave it stale.  Bumps :attr:`data_version`, invalidating every
        columnar view.  *class_name* names the mutated class; every view
        is dropped either way.

        :meth:`DistributedSystem.note_mutation
        <repro.core.system.DistributedSystem.note_mutation>` wraps this
        with signature-catalog and decomposition-cache invalidation.
        """
        self.data_version += 1
        self._columnar.clear()

    def columnar_extent(self, class_name: str) -> ColumnarExtent:
        """The versioned columnar view of one class extent (cached)."""
        cached = self._columnar.get(class_name)
        if cached is None or cached.version != self.data_version:
            extent = self.extent(class_name)
            cached = ColumnarExtent(
                class_name, extent, extent.values(), self.deref,
                self.data_version,
            )
            self._columnar[class_name] = cached
        return cached

    def extent(self, class_name: str) -> Dict[LOid, LocalObject]:
        """The stored objects of one class (live mapping; do not mutate)."""
        try:
            return self._extents[class_name]
        except KeyError:
            raise UnknownClassError(class_name, where=f"db {self.name!r}") from None

    def count(self, class_name: str) -> int:
        return len(self.extent(class_name))

    def deref(self, ref: Union[LOid, GOid]) -> Optional[LocalObject]:
        """Dereference a local reference; foreign/global refs resolve to None."""
        if isinstance(ref, LOid) and ref.db == self.name:
            return self.get(ref)
        return None

    def create_index(
        self, class_name: str, attribute: str, kind: str = "hash"
    ) -> None:
        """Declare a secondary index over one attribute of one class.

        Indexed local evaluation (:meth:`execute_local`) restricts its
        scan to the probe's candidates — answer-identical to a full scan
        because null holders are always kept as maybe candidates (see
        :mod:`repro.objectdb.indexes`).
        """
        if class_name not in self._extents:
            raise UnknownClassError(class_name, where=f"db {self.name!r}")
        if not self.schema.cls(class_name).has_attribute(attribute):
            raise ObjectStoreError(
                f"cannot index undeclared attribute {attribute!r} of "
                f"{class_name!r}"
            )
        if kind not in SERVES:
            raise ObjectStoreError(f"unknown index kind {kind!r}")
        self.indexes[(class_name, attribute)] = kind

    def drop_index(self, class_name: str, attribute: str) -> Optional[str]:
        """Forget the index on one attribute: its kind, or None if none."""
        return self.indexes.pop((class_name, attribute), None)

    # --- centralized export (step CA_C1) -------------------------------------

    def scan_for_export(
        self, class_name: str, attributes: Tuple[str, ...]
    ) -> List[LocalObject]:
        """Return the whole extent projected on *attributes* (plus LOid).

        An attribute an object holds no value for is simply absent from
        its projection (it will integrate as missing data).
        """
        return [
            obj.project(attributes) for obj in self.extent(class_name).values()
        ]

    # --- local query execution (steps BL_C1 / PL_C2) -------------------------

    def execute_local(self, query: LocalQuery) -> LocalResultSet:
        """Evaluate *query* against the local root class extent.

        Objects whose local predicates are FALSE are eliminated.  For the
        survivors the row records certain/maybe status, bindings for the
        target paths, the unsolved predicates sitting on the root object,
        and the unsolved items (branch objects with missing data) together
        with their relative unsolved predicates.

        Evaluation is one pass over the cached
        :class:`~repro.objectdb.columnar.ColumnarExtent` kernels; the
        meter totals are what a site scanning every candidate object by
        object would be charged (see docs/PERFORMANCE.md).
        """
        if query.db_name != self.name:
            raise ObjectStoreError(
                f"query for db {query.db_name!r} executed at {self.name!r}"
            )
        col = self.columnar_extent(query.range_class)
        summary = col.dnf_summary(query.where)
        candidates, probe = self._select_candidates(query)
        if probe is None:
            rows: Sequence[int] = range(len(col.objects))
            at = iter  # a column read at *rows* is the column
        else:
            row_of = col.row_of
            rows = [row_of[obj.loid] for obj in candidates]

            def at(column):
                return map(column.__getitem__, rows)
        target_walks = [col.walk(target) for target in query.targets]
        if summary.error_rows or any(walk.errors for walk in target_walks):
            col.raise_first_error(query, rows, summary, target_walks)
        # The modelled site scans every candidate; this process only
        # gathers the survivors' columns.
        comp_acc = sum(at(summary.comparisons))
        deref_acc = sum(at(summary.derefs))
        if probe is not None:
            comp_acc += probe.comparisons
        survivors = list(compress(rows, at(summary.codes)))
        predicates = summary.columns
        packs = zip(*[
            map(pcol.codes.__getitem__, survivors)
            for pcol in predicates.values()
        ]) if predicates else repeat(())
        removed = query.removed
        # One book per packed status pattern: rows without unsolved data
        # share it whole, the others its status dict — the global site
        # recognises a pattern by that dict's identity and certifies it
        # once.  A row with unsolved data charges the holder-walk derefs
        # of its row in the layout PL's scan reads, and a maybe one owns
        # its book, built from that row.
        layout = None
        patterns: Dict[tuple, Book] = {}
        books: List[Book] = []
        for r, packed in zip(survivors, packs):
            book = patterns.get(packed)
            if book is None:
                status = dict(
                    zip(predicates, map(TV_OF_CODE.__getitem__, packed))
                )
                for rem in removed:
                    status.setdefault(rem.predicate, TV.UNKNOWN)
                book = patterns[packed] = Book(
                    RowKind.CERTAIN if self._locally_certain(query, status)
                    else RowKind.MAYBE,
                    status,
                )
            if removed or UNKNOWN_CODE in packed:
                if layout is None:
                    layout, unsolved_of = self._layout(col, query, predicates)
                held = layout.rows.get(r)
                if held is not None:
                    deref_acc += held[2]
                    if book.kind is RowKind.MAYBE:
                        book = Book(
                            RowKind.MAYBE, book.predicate_status,
                            *unsolved_of(held),
                        )
            books.append(book)
        values = {}
        for target, walk in zip(query.targets, target_walks):
            deref_acc += sum(map(walk.derefs.__getitem__, survivors))
            values[target] = list(map(walk.values.__getitem__, survivors))
        return LocalResultSet(
            db_name=self.name,
            range_class=query.range_class,
            objects_scanned=len(rows),
            comparisons=comp_acc,
            derefs=deref_acc,
            index_probe=probe,
            columns=(col.row_ids, survivors, books, values),
        )

    def _select_candidates(
        self, query: LocalQuery
    ) -> Tuple[Iterable[LocalObject], Optional[IndexProbe]]:
        """Pick the scan source: an index probe's candidates or the extent.

        An index is usable for a *conjunctive* local query (a candidate
        restriction by one disjunct's predicate would drop objects
        satisfying another) with a single-step predicate on an indexed
        root attribute, under an operator the index serves.
        """
        if self.indexes and len(query.where) == 1:
            for predicate in query.where[0]:
                if len(predicate.path.steps) != 1:
                    continue
                kind = self.indexes.get(
                    (query.range_class, predicate.path.first)
                )
                if kind is None or predicate.op not in SERVES[kind]:
                    continue
                col = self.columnar_extent(query.range_class)
                rows, probe = index_probe(kind, col, predicate)
                return [col.objects[r] for r in rows], probe
        return self.extent(query.range_class).values(), None

    @staticmethod
    def _locally_certain(query: LocalQuery, status: Dict[Predicate, TV]) -> bool:
        """True when some conjunct is fully TRUE and lost no predicate.

        For the paper's conjunctive queries this reduces to: all predicates
        TRUE and none removed.  An object that is locally certain needs no
        certification — its unsolved bookkeeping is discarded.
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

    @staticmethod
    def _layout(col: ColumnarExtent, query: LocalQuery, predicates):
        """The extent's :class:`~repro.objectdb.columnar.UnsolvedLayout`
        of *predicates* (evaluated in place) and the query's removed
        ones, and a reader of what one of its rows reports: the root's
        unsolved predicates and the row's unsolved items.  Each shape's
        operands resolve once per call, when a row of it is first read."""
        removed = query.removed
        layout = col.unsolved_layout(
            [(predicate.path, None) for predicate in predicates]
            + [(r.predicate.path, r.missing_depth) for r in removed]
        )
        probed = [*predicates, *(r.predicate for r in removed)]
        parts = [col.relative(probed[p], d) for p, d in layout.pairs]
        shapes: List[Optional[tuple]] = [None] * len(layout.shapes)

        def relatives(at):  # deduplicated by identity, as in a scan
            return tuple({id(parts[i][0]): parts[i][0] for i in at}.values())

        def unsolved_of(held):
            shape, holders, _ = held
            resolved = shapes[shape]
            if resolved is None:
                root, items = layout.shapes[shape]
                resolved = shapes[shape] = relatives(root), [
                    (parts[at[0]][1], relatives(at)) for at in items
                ]
            root, items = resolved
            return root, tuple([
                UnsolvedItem(loid, class_name, reached_via, unsolved)
                for (loid, class_name), (reached_via, unsolved)
                in zip(holders, items)
            ])

        return layout, unsolved_of

    # --- phase-O-first scan (step PL_C1) --------------------------------------

    def collect_unsolved(
        self, query: LocalQuery
    ) -> Tuple["UnsolvedScan", EvalMeter]:
        """Locate unsolved predicates/items for *every* root object.

        This is PL's phase O performed *before* predicate evaluation
        (step PL_C1): no predicate operand is compared; the scan only
        probes for missing data along each predicate's path, so unsolved
        items of objects that would later fail the local predicates are
        found (and their assistants dispatched) too — PL's characteristic
        overhead.

        One comparison per (object, predicate) probe is charged to the
        meter for the missing-data test; path walks charge derefs.  Where
        the unsolved data sits is the extent's cached, operand-free
        :class:`~repro.objectdb.columnar.UnsolvedLayout`.
        """
        if query.db_name != self.name:
            raise ObjectStoreError(
                f"query for db {query.db_name!r} executed at {self.name!r}"
            )
        local_predicates = query.local_predicates
        col = self.columnar_extent(query.range_class)
        walks = [col.walk(predicate.path) for predicate in local_predicates]
        if any(walk.errors for walk in walks):
            # Every object is probed, so a scan stops at the lowest error
            # row, on its first predicate whose walk raises.
            obj = col.objects[min(r for walk in walks for r in walk.errors)]
            for predicate in local_predicates:
                walk_path(obj, predicate.path, self.deref)
        layout, unsolved_of = self._layout(col, query, local_predicates)
        n = len(col.objects)
        meter = EvalMeter(
            n * (len(local_predicates) + len(query.removed)), layout.derefs
        )
        scan = UnsolvedScan(self.name, query.range_class, n)
        for r, held in layout.rows.items():
            scan.per_root[col.ids[r]] = unsolved_of(held)
        return scan, meter

    # --- assistant checking (steps BL_C3 / PL_C3) -----------------------------

    def check_assistants(self, request: CheckRequest) -> CheckReport:
        """Evaluate the appended unsolved predicates on listed objects.

        Verdicts for objects of the request class come straight from the
        class's cached predicate columns.  A LOid outside that extent —
        stored under another class, absent, or every LOid when the site
        lacks the class altogether — is fetched and evaluated on its own,
        inline, so the report keeps the request's LOid-major order.
        """
        if request.db_name != self.name:
            raise ObjectStoreError(
                f"check request for db {request.db_name!r} executed at "
                f"{self.name!r}"
            )
        predicates = request.predicates
        row_of: Dict[LOid, int] = {}
        pcols: List = []
        if request.class_name in self._extents:
            col = self.columnar_extent(request.class_name)
            row_of = col.row_of
            pcols = [col.predicate_column(p) for p in predicates]
        error_rows = set().union(*(pcol.error_rows for pcol in pcols))
        report = CheckReport(db_name=self.name, class_name=request.class_name)
        meter = EvalMeter()
        satisfied: Dict[Predicate, List[LOid]] = {p: [] for p in predicates}
        violated: Dict[Predicate, List[LOid]] = {p: [] for p in predicates}
        unknown: Dict[Predicate, List[LOid]] = {p: [] for p in predicates}
        blocked: List[BlockedAt] = []
        comp_acc = 0
        deref_acc = 0
        for loid in request.loids:
            report.objects_checked += 1
            r = row_of.get(loid)
            if r is None:
                obj = self.get(loid)
                for predicate in predicates:
                    if obj is None:
                        unknown[predicate].append(loid)
                        continue
                    outcome = evaluate_predicate(
                        obj, predicate, self.deref, meter
                    )
                    if outcome.tv is TV.TRUE:
                        satisfied[predicate].append(loid)
                    elif outcome.tv is TV.FALSE:
                        violated[predicate].append(loid)
                    else:
                        unknown[predicate].append(loid)
                        missing = outcome.missing
                        if missing is not None and missing.holder_id != loid:
                            blocked.append(_blocked_at(
                                loid, predicate, missing.depth,
                                missing.holder_id,  # type: ignore[arg-type]
                                missing.holder_class,
                            ))
                continue
            if r in error_rows:
                # The first checked object with an error marker: its
                # first predicate that raises, raises canonically.
                for predicate in predicates:
                    evaluate_predicate(col.objects[r], predicate, self.deref)
            for predicate, pcol in zip(predicates, pcols):
                code = pcol.codes[r]
                comp_acc += pcol.comparisons[r]
                deref_acc += pcol.derefs[r]
                if code == FALSE_CODE:
                    violated[predicate].append(loid)
                elif code == UNKNOWN_CODE:
                    unknown[predicate].append(loid)
                    miss = pcol.miss[r]
                    if miss is not None and miss[1] != loid:
                        # Stuck at a *different* object: report it so the
                        # global site can chase its isomeric copies.
                        blocked.append(_blocked_at(
                            loid, predicate, miss[0], miss[1], miss[2]
                        ))
                else:
                    satisfied[predicate].append(loid)
        report.satisfied = {p: tuple(v) for p, v in satisfied.items()}
        report.violated = {p: tuple(v) for p, v in violated.items()}
        report.unknown = {p: tuple(v) for p, v in unknown.items()}
        report.blocked = tuple(blocked)
        report.comparisons = meter.comparisons + comp_acc
        report.derefs = meter.derefs + deref_acc
        return report


def _blocked_at(
    checked: LOid, predicate: Predicate, depth: int,
    holder: LOid, holder_class: str,
) -> BlockedAt:
    """The block record of a check stuck at *holder*, *depth* steps in."""
    return BlockedAt(
        checked=checked,
        predicate=predicate,
        holder=holder,
        holder_class=holder_class,
        remaining=Predicate(
            path=Path(predicate.path.steps[depth:]),
            op=predicate.op,
            operand=predicate.operand,
        ),
    )
