"""Columnar extent views: per-attribute parallel arrays + batch 3VL kernels.

Local evaluation (:mod:`repro.objectdb.database`) never walks a path or
compares a value object by object, and neither does CA's global site
over a materialized class.  A :class:`ColumnarExtent` is a cached,
versioned view of one class extent that holds those per-object
walks as *columns*:

* :meth:`ColumnarExtent.column` — one parallel array per attribute with an
  explicit null bitmap (bit ``r`` set when row ``r`` is NULL), the paper's
  3VL missing-data marker in columnar form;
* :meth:`ColumnarExtent.walk` — a :class:`WalkColumn` materializing one
  path expression over every row at once (final values, per-row missing
  locations, per-row deref counts), with a :class:`ValueIndex` over the
  values reached;
* :meth:`ColumnarExtent.predicate_column` — a :class:`PredicateColumn` of
  packed truth codes (``TRUE=2 / UNKNOWN=1 / FALSE=0``) so conjunction is
  elementwise ``min`` and disjunction elementwise ``max`` — exactly
  Kleene's strong 3VL; an operand never seen before costs a bisection
  of the value index plus the rows it makes TRUE, not a pass over the
  extent;
* :meth:`ColumnarExtent.dnf_summary` — the whole ``Where`` clause reduced
  to one code array plus per-row comparison/deref charge arrays.

``predicate_column`` and ``dnf_summary`` keep what they build, per
operand, until the data moves; ``build_compare`` and ``build_dnf`` are
the same kernels keeping nothing, which is what the global site calls
(a column kept per operand cost it 23 % of peak RSS for no re-hit).

What the kernels owe a scan
---------------------------

The modelled site scans its extent object by object with
:mod:`repro.core.predicates`; the kernels must give the same rows, the
same unsolved bookkeeping, the same
:class:`~repro.core.predicates.EvalMeter` totals and the same
exceptions (``repro.difftest`` keeps that scan as the reference and
shadows every kernel call with it):

* charge arrays hold the scan's metering per (row, occurrence), so
  aggregating them gives its exact totals;
* a row whose evaluation raises (non-reference mid-path, unorderable
  operands, ``CONTAINS`` on a scalar, ...) is recorded as an *error row*
  and building a column never raises.  A caller that is about to read an
  error row evaluates the first such object, in its own scan order, with
  the per-object evaluator, which raises the canonical exception.  Rows
  no scan would reach may hold error markers harmlessly.

A site's views are keyed by :attr:`ComponentDatabase.data_version`,
which every insert and every :meth:`ComponentDatabase.note_mutation`
bumps (the global site's die with the merged extent they view), so a
stale column can never serve a query (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import add
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.predicates import (
    EvalMeter,
    compare_values,
    evaluate_dnf,
    walk_path,
)
from repro.core.query import Conjunction, Op, Path, Predicate
from repro.core.tvl import TV
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.local_query import RowIds, UnsolvedPredicateOnObject
from repro.objectdb.objects import LocalObject
from repro.objectdb.values import NULL, Value, is_null

#: Packed truth codes: conjunction is ``min``, disjunction is ``max``.
FALSE_CODE = 0
UNKNOWN_CODE = 1
TRUE_CODE = 2

#: ``TV_OF_CODE[code]`` recovers the enum member from a packed code.
TV_OF_CODE = (TV.FALSE, TV.UNKNOWN, TV.TRUE)

#: ``CODE_OF_TV[tv]`` packs an enum member into its code.
CODE_OF_TV = {TV.FALSE: FALSE_CODE, TV.UNKNOWN: UNKNOWN_CODE, TV.TRUE: TRUE_CODE}

#: A missing location in columnar form: (depth, holder LOid, holder class).
Miss = Tuple[int, LOid, str]

#: Where an unsolved predicate attaches: (blocking depth, holder LOid,
#: holder class, holder is the row's root, derefs paid walking there).
Holder = Tuple[int, LOid, str, bool, int]


class AttributeColumn:
    """One attribute over every row: parallel value array + null bitmap.

    ``null_bitmap`` has bit ``r`` set when row ``r``'s value is NULL (or
    an empty multi-value) — the explicit 3VL missingness marker.  Values
    at null rows are normalized to :data:`NULL`.
    """

    __slots__ = ("attribute", "values", "null_bitmap")

    def __init__(self, attribute: str, values: List[Value], null_bitmap: int):
        self.attribute = attribute
        self.values = values
        self.null_bitmap = null_bitmap

    def is_null(self, row: int) -> bool:
        return bool((self.null_bitmap >> row) & 1)

    def null_count(self) -> int:
        return bin(self.null_bitmap).count("1")

    def __len__(self) -> int:
        return len(self.values)


class WalkColumn:
    """One path expression walked over every row.

    ``miss[r]`` is ``None`` when the walk reached a (non-null) final
    value, else ``(depth, holder_loid, holder_class)`` — the columnar
    form of :class:`~repro.core.predicates.MissingAt` — and then
    ``values[r]`` is :data:`NULL`, what the row binds.  ``derefs[r]``
    counts the dereferences a scan is charged (including the one paid
    *before* a dangling deref).  ``errors`` holds the rows where
    :func:`~repro.core.predicates.walk_path` raises.
    """

    __slots__ = ("values", "miss", "derefs", "errors", "_index")

    def __init__(
        self,
        values: List[Value],
        miss: List[Optional[Miss]],
        derefs: List[int],
        errors: Set[int],
    ):
        self.values = values
        self.miss = miss
        self.derefs = derefs
        self.errors = errors
        self._index: Optional[ValueIndex] = None

    @property
    def index(self) -> "ValueIndex":
        """The operand-independent half of every compare on this column."""
        if self._index is None:
            self._index = ValueIndex(self)
        return self._index


class ValueIndex:
    """What a compare over one walk column needs that no operand changes.

    Built once per walk column (so once per extent version) and only an
    implementation detail of this process: the modelled site still scans,
    and the charge arrays say so.  Rows fall into three sorts:

    * *missing* and walk-error rows — UNKNOWN, uncharged;
    * *scalar* rows (exact ``int``/``float``/``str``/``bool``, NaN
      excepted) — one comparison each, FALSE in ``base`` until an operand
      says otherwise.  When they are all numbers or all strings
      (``kind`` is ``"num"``/``"str"``) ``rows`` lists them in ascending
      order of ``values``, so every operator's TRUE rows are a slice
      found by bisection (``1``, ``1.0`` and ``True`` sit side by side);
      a mixed column (``kind`` is ``None``) lists them in row order;
    * *irregular* rows (multi-values, references, NaN, anything else) —
      only :func:`~repro.core.predicates.compare_values` knows their
      verdict and charge.
    """

    __slots__ = ("base", "charges", "kind", "rows", "values", "irregular_rows")

    def __init__(self, walk: WalkColumn) -> None:
        values = walk.values
        n = len(values)
        base = [UNKNOWN_CODE] * n
        charges = [0] * n
        rows: List[int] = []
        irregular_rows: List[int] = []
        kinds = set()
        errors = walk.errors
        for row, missing in enumerate(walk.miss):
            if missing is not None or row in errors:
                continue
            value = values[row]
            kind = _KIND_OF_TYPE.get(type(value))
            if kind is None or value != value:
                irregular_rows.append(row)
                continue
            kinds.add(kind)
            rows.append(row)
            base[row] = FALSE_CODE
            charges[row] = 1
        self.base = base
        self.charges = charges
        self.irregular_rows = irregular_rows
        self.kind: Optional[str] = kinds.pop() if len(kinds) == 1 else None
        self.values: List[Value] = []
        if self.kind is not None:
            rows.sort(key=values.__getitem__)
            self.values = [values[row] for row in rows]
        self.rows = rows


class PredicateColumn:
    """One predicate evaluated over every row: codes + charge arrays.

    ``codes[r]`` is the packed 3VL verdict (missing rows are UNKNOWN).
    ``comparisons[r]`` is the comparison charge a scan pays
    (0 for missing rows — it never reaches ``compare_values``
    there); ``derefs[r]`` the walk's deref charge.  ``miss`` aliases the
    walk column's missing locations; ``error_rows`` is the union of walk
    and compare error rows.
    """

    __slots__ = ("codes", "comparisons", "derefs", "miss", "error_rows")

    def __init__(
        self,
        codes: List[int],
        comparisons: List[int],
        derefs: List[int],
        miss: List[Optional[Miss]],
        error_rows: Set[int],
    ):
        self.codes = codes
        self.comparisons = comparisons
        self.derefs = derefs
        self.miss = miss
        self.error_rows = error_rows


class DnfSummary:
    """A whole ``Where`` clause over every row, reduced to flat arrays.

    ``codes[r]`` is the DNF verdict (``max`` over conjuncts of ``min``
    over that conjunct's predicate codes); ``comparisons[r]`` /
    ``derefs[r]`` are the total evaluation charges for row ``r`` across
    *every* (conjunct, predicate) occurrence — a scan evaluates
    them all (no short-circuit), so charges are occurrence-exact.
    ``columns`` maps each distinct predicate to its column, in order of
    first occurrence — the order a row's status is populated in.
    """

    __slots__ = ("codes", "comparisons", "derefs", "error_rows", "columns")

    def __init__(
        self,
        codes: List[int],
        comparisons: List[int],
        derefs: List[int],
        error_rows: Set[int],
        columns: Dict[Predicate, PredicateColumn],
    ):
        self.codes = codes
        self.comparisons = comparisons
        self.derefs = derefs
        self.error_rows = error_rows
        self.columns = columns


class UnsolvedLayout(NamedTuple):
    """Where each row's unsolved data sits, operands aside — what PL's
    scan reports of every row and BL's evaluation of its maybe rows.

    ``derefs`` is the scan's deref total.  ``rows`` maps each row with
    unsolved data, in row order, to ``(shape, holders, derefs)``:
    ``holders`` is each unsolved item's (LOid, class), ``derefs`` what
    walking to the row's holders charges.  ``shapes[shape]`` is ``(root,
    items)``: the ``pairs`` — distinct (probe, reached depth) — the root
    object holds and, per item, that item holds, in scan order.
    """

    derefs: int
    rows: Dict[int, Tuple[int, tuple, int]]
    shapes: List[Tuple[tuple, tuple]]
    pairs: List[Tuple[int, int]]


class ColumnarExtent:
    """A versioned columnar view of one class extent.

    Takes what it reads: the row *ids* and *objects* in scan order, the
    *deref* that follows a reference one of them holds, and the
    *version* of the data.  A site hands over a class extent in
    insertion order and discards the view when its ``data_version``
    moves; the global site hands over a materialized class in GOid
    order.  All columns are built lazily and cached.
    """

    def __init__(self, class_name: str, ids, objects, deref, version) -> None:
        self.class_name = class_name
        self.version = version
        self.ids = list(ids)
        #: The same ids as every local result over this view carries them.
        self.row_ids = RowIds(self.ids)
        self.objects = list(objects)
        self.row_of: Dict[object, int] = {
            ident: row for row, ident in enumerate(self.ids)
        }
        self._deref = deref
        self._attrs: Dict[str, AttributeColumn] = {}
        self._walks: Dict[Tuple[str, ...], WalkColumn] = {}
        self._preds: Dict[Predicate, PredicateColumn] = {}
        self._dnfs: Dict[Tuple[Conjunction, ...], DnfSummary] = {}
        self._relative: Dict[Predicate, Dict[int, tuple]] = {}
        self._holder_walks: Dict[
            Tuple[Tuple[str, ...], Optional[int]], List[Optional[Holder]]
        ] = {}
        self._layouts: Dict[tuple, UnsolvedLayout] = {}

    def __len__(self) -> int:
        return len(self.objects)

    # --- attribute columns ---------------------------------------------------

    def column(self, attribute: str) -> AttributeColumn:
        """The parallel array + null bitmap for one attribute."""
        col = self._attrs.get(attribute)
        if col is None:
            values: List[Value] = []
            bitmap = 0
            append = values.append
            for row, obj in enumerate(self.objects):
                value = obj.values.get(attribute, NULL)
                if is_null(value):
                    bitmap |= 1 << row
                    append(NULL)
                else:
                    append(value)
            col = AttributeColumn(attribute, values, bitmap)
            self._attrs[attribute] = col
        return col

    # --- walk columns ----------------------------------------------------------

    def walk(self, path: Path) -> WalkColumn:
        """Walk *path* over every row (cached)."""
        key = path.steps
        col = self._walks.get(key)
        if col is None:
            col = self._build_walk(path)
            self._walks[key] = col
        return col

    def _build_walk(self, path: Path) -> WalkColumn:
        steps = path.steps
        n = len(self.objects)
        last = len(steps) - 1
        errors: Set[int] = set()
        if last == 0:
            # Single-step path: a projection of the attribute column.
            # A null *final* value is missing (the null check precedes
            # the is-final check in walk_path).
            attr = self.column(steps[0])
            miss: List[Optional[Miss]] = [None] * n
            bitmap = attr.null_bitmap
            if bitmap:
                ids, objects = self.ids, self.objects
                for row in range(n):
                    if (bitmap >> row) & 1:
                        miss[row] = (0, ids[row], objects[row].class_name)
            return WalkColumn(attr.values, miss, [0] * n, errors)
        values: List[Value] = [NULL] * n
        miss = [None] * n
        derefs = [0] * n
        deref = self._deref
        for row, (ident, current) in enumerate(zip(self.ids, self.objects)):
            # *ident* names *current*: a row id, then the reference
            # followed to reach it (an LOid at a site, a GOid globally).
            paid = 0
            for depth, step in enumerate(steps):
                value = current.values.get(step, NULL)
                if is_null(value):
                    miss[row] = (depth, ident, current.class_name)
                    break
                if depth == last:
                    values[row] = value
                    break
                if not isinstance(value, (LOid, GOid)):
                    errors.add(row)  # walk_path raises here
                    break
                paid += 1  # a scan is charged before a failed deref
                nxt = deref(value)
                if nxt is None:
                    miss[row] = (depth, ident, current.class_name)
                    break
                ident, current = value, nxt
            derefs[row] = paid
        return WalkColumn(values, miss, derefs, errors)

    # --- predicate / DNF kernels ---------------------------------------------

    def predicate_column(self, predicate: Predicate) -> PredicateColumn:
        """:meth:`build_compare`, kept per operand until the data moves."""
        col = self._preds.get(predicate)
        if col is None:
            col = self._preds[predicate] = self.build_compare(predicate)
        return col

    def build_compare(self, predicate: Predicate) -> PredicateColumn:
        """Evaluate *predicate* over every row: O(log n + matching rows).

        The operand-dependent half, and nothing of it is retained:
        copies the walk's base arrays and marks only the rows the value
        index finds; rows it cannot classify are compared one by one.
        """
        op = predicate.op
        operand = predicate.operand
        walk = self.walk(predicate.path)
        index = walk.index
        codes = index.base[:]
        comps = index.charges[:]
        slow = index.irregular_rows
        true_rows = _TRUE_ROWS.get(op)
        # NaN orders and equals nothing; it goes the slow way like any
        # operand of another kind than the column's.
        kind = _KIND_OF_TYPE.get(type(operand)) if operand == operand else None
        if true_rows is not None and kind is not None and kind == index.kind:
            lo = bisect_left(index.values, operand)
            hi = bisect_right(index.values, operand)
            for row in true_rows(index.rows, lo, hi):
                codes[row] = TRUE_CODE
        else:
            slow = slow + index.rows
        error_rows = set(walk.errors)
        wvalues = walk.values
        for row in slow:
            meter = EvalMeter()
            try:
                codes[row] = CODE_OF_TV[
                    compare_values(op, wvalues[row], operand, meter)
                ]
                comps[row] = meter.comparisons
            except Exception:  # raised by whoever reads this row first
                codes[row] = UNKNOWN_CODE
                comps[row] = 0
                error_rows.add(row)
        return PredicateColumn(codes, comps, walk.derefs, walk.miss, error_rows)

    def dnf_summary(self, where: Tuple[Conjunction, ...]) -> DnfSummary:
        """:meth:`build_dnf` over the kept predicate columns, kept too."""
        cached = self._dnfs.get(where)
        if cached is None:
            cached = self._dnfs[where] = self.build_dnf(
                where, self.predicate_column
            )
        return cached

    def build_dnf(self, where: Tuple[Conjunction, ...], column_of) -> DnfSummary:
        """Reduce a whole ``Where`` clause to flat per-row arrays.

        *column_of* makes the column of each distinct predicate: a site
        passes :meth:`predicate_column`, the global site
        :meth:`build_compare`, and the summary is all that holds them.
        """
        columns: Dict[Predicate, PredicateColumn] = {}
        for conjunct in where:
            for predicate in conjunct:
                if predicate not in columns:
                    columns[predicate] = column_of(predicate)
        n = len(self.objects)
        if not where:
            return DnfSummary([TRUE_CODE] * n, [0] * n, [0] * n, set(), {})
        comparisons = [0] * n
        derefs = [0] * n
        error_rows: Set[int] = set()
        dnf_codes: Optional[List[int]] = None
        for conjunct in where:
            conj_codes: Optional[List[int]] = None
            for predicate in conjunct:
                col = columns[predicate]
                error_rows.update(col.error_rows)
                comparisons = list(map(add, comparisons, col.comparisons))
                derefs = list(map(add, derefs, col.derefs))
                conj_codes = (
                    list(col.codes)
                    if conj_codes is None
                    else list(map(min, conj_codes, col.codes))
                )
            if conj_codes is None:  # empty conjunct is vacuously TRUE
                conj_codes = [TRUE_CODE] * n
            dnf_codes = (
                conj_codes
                if dnf_codes is None
                else list(map(max, dnf_codes, conj_codes))
            )
        assert dnf_codes is not None
        return DnfSummary(dnf_codes, comparisons, derefs, error_rows, columns)

    def raise_first_error(self, query, rows, summary, target_walks) -> None:
        """Raise what a scan of *rows*, in that order, would hit first.

        The kernels mark an error row instead of raising; here the first
        marked row is evaluated by the canonical per-object evaluator,
        which raises the canonical exception.  A row errs when its
        ``Where`` evaluation does, or when it survives and a target walk
        does — in that order, as a scan evaluates before it binds.
        Marked rows outside *rows*, and eliminated rows with a bad target
        walk, are never evaluated and so are harmless.
        """
        codes = summary.codes
        for r in rows:
            obj = self.objects[r]
            if r in summary.error_rows:
                evaluate_dnf(obj, query.where, self._deref)
            if codes[r] != FALSE_CODE:
                for target, walk in zip(query.targets, target_walks):
                    if r in walk.errors:
                        walk_path(obj, target, self._deref)

    # --- where unsolved data sits --------------------------------------------

    def unsolved_layout(self, probes) -> UnsolvedLayout:
        """The :class:`UnsolvedLayout` of *probes* — ``(path, None)`` per
        local predicate, then ``(path, missing depth)`` per removed one —
        kept per ``(path.steps, depth)`` like the holder walks it reads."""
        key = tuple([(path.steps, depth) for path, depth in probes])
        layout = self._layouts.get(key)
        if layout is not None:
            return layout
        walks = [self._holders(path, depth) for path, depth in probes]
        derefs = sum(sum(self.walk(p).derefs) for p, d in probes if d is None)
        rows: Dict[int, Tuple[int, tuple, int]] = {}
        shapes: Dict[tuple, int] = {}  # shape -> its index
        pairs: Dict[Tuple[int, int], int] = {}  # (probe, reached) -> index
        for r, holders in enumerate(zip(*walks)):
            root, items = [], {}  # pairs; holder LOid -> (class, pairs)
            charged = 0
            for probe, holder in enumerate(holders):
                if holder is not None:
                    reached, loid, cls, is_root, paid = holder
                    charged += paid
                    at = pairs.setdefault((probe, reached), len(pairs))
                    if is_root:
                        root.append(at)
                    else:
                        items.setdefault(loid, (cls, []))[1].append(at)
            if root or items:
                derefs += charged
                shape = tuple(root), tuple(tuple(a) for _, a in items.values())
                held = tuple([(loid, cls) for loid, (cls, _) in items.items()])
                rows[r] = (shapes.setdefault(shape, len(shapes)), held, charged)
        layout = UnsolvedLayout(derefs, rows, [*shapes], [*pairs])
        self._layouts[key] = layout
        return layout

    def relative(
        self, predicate: Predicate, reached: int
    ) -> Tuple[UnsolvedPredicateOnObject, Optional[Path]]:
        """The relative predicate and reached-via prefix of *predicate*
        blocked *reached* steps in, made once per extent version.

        Over one version two relative predicates are equal only when
        they are the same object, which is how unsolved data is
        deduplicated.
        """
        parts = self._relative.setdefault(predicate, {})
        got = parts.get(reached)
        if got is None:
            steps = predicate.path.steps
            # At depth 0 the holder is the root itself: no reached-via
            # prefix is ever read there.
            got = parts[reached] = (
                UnsolvedPredicateOnObject(
                    original=predicate, relative_path=Path(steps[reached:])
                ),
                Path(steps[:reached]) if reached else None,
            )
        return got

    def _holders(
        self, path: Path, depth: Optional[int]
    ) -> List[Optional[Holder]]:
        """Where each row's unsolved predicate on *path* attaches (cached)."""
        key = (path.steps, depth)
        holders = self._holder_walks.get(key)
        if holders is None:
            holders = self._holder_walks[key] = self._build_holders(path, depth)
        return holders

    def _build_holders(
        self, path: Path, depth: Optional[int]
    ) -> List[Optional[Holder]]:
        if depth is None:
            # Retracing d successful steps charges d derefs.
            return [
                None if m is None else (m[0], m[1], m[2], m[1] == ident, m[0])
                for m, ident in zip(self.walk(path).miss, self.ids)
            ]
        steps = path.steps
        deref = self._deref
        holders: List[Optional[Holder]] = []
        for obj in self.objects:
            current = obj
            reached = depth
            paid = 0
            for index in range(depth):
                value = current.values.get(steps[index], NULL)
                if is_null(value) or not isinstance(value, LOid):
                    reached = index
                    break
                paid += 1  # a scan is charged before a failed deref
                nxt = deref(value)
                if nxt is None:
                    reached = index
                    break
                current = nxt
            holders.append((
                reached,
                current.loid,
                current.class_name,
                current.loid == obj.loid,
                paid,
            ))
        return holders


#: Exact types the value index classifies, by ordering kind; everything
#: else (MultiValue, references, exotic values) goes through compare_values.
_KIND_OF_TYPE = {int: "num", float: "num", bool: "num", str: "str"}

#: The rows an operator makes TRUE, as slices of the index's value-sorted
#: rows: ``values[lo:hi]`` is the run equal to the operand.
_TRUE_ROWS = {
    Op.EQ: lambda rows, lo, hi: rows[lo:hi],
    Op.NE: lambda rows, lo, hi: rows[:lo] + rows[hi:],
    Op.LT: lambda rows, lo, hi: rows[:lo],
    Op.LE: lambda rows, lo, hi: rows[:hi],
    Op.GT: lambda rows, lo, hi: rows[hi:],
    Op.GE: lambda rows, lo, hi: rows[lo:],
}
