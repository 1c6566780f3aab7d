"""Per-site constraint catalog: class presence, coverage, value ranges.

Following Malik et al.'s constraint-based query distribution, each site
advertises cheap integrity summaries of its extents — how many objects a
class holds, how completely each attribute is populated, and the value
range of homogeneous scalar columns.  Decomposition-time planning uses
them for two *sound* prunes:

* **site prune** — skip a site's whole local-query block when the
  catalog proves every root object would be eliminated locally (empty
  extent, or some fully-populated local predicate whose value range is
  disjoint from the accept region, in every disjunct);
* **check prune** — skip an assistant check when the catalog proves the
  verdict is UNKNOWN (the checked attribute is null for every object of
  the assistant's class at that site), which certification ignores.

Soundness contract: pruning never demotes a certain row and never drops
a maybe row.  Both prunes only remove work whose outcome is *provable*
from the catalog under the exact 3VL semantics of
:func:`repro.core.predicates.compare_values`:

* a row is eliminated only when a conjunct predicate is FALSE for every
  object — nulls yield UNKNOWN (keeps the row maybe), so a column with
  any null is never range-pruned; multi-values satisfy existentially,
  so a column with any multi-value is never range-pruned; order
  comparisons raise on mixed types, so ranges only apply to columns
  whose scalar kind matches the operand's (equality, which never
  raises, may additionally prune on a kind mismatch);
* a check verdict is UNKNOWN only when the stored value is null, and an
  UNKNOWN verdict is certification-equivalent to no verdict at all
  (only SATISFIED/VIOLATED change an entity's status), so an all-null
  column makes the check unable to change the answer.

The catalog keeps nothing: an attribute's statistics are read off the
site's :class:`~repro.objectdb.columnar.ColumnarExtent` (the value index
of the attribute's walk column), which is rebuilt whenever the site's
``data_version`` moves, so a stale range can never mask a fresh value.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from repro.core.query import Op, Path, Predicate
from repro.objectdb.values import MultiValue

#: Scalar kind labels of a homogeneous column.
KIND_NUMBER = "number"
KIND_STRING = "string"


@dataclass(frozen=True)
class AttributeStats:
    """Constraint summary of one attribute column at one site."""

    #: Objects carrying the attribute slot (the class extent size).
    values: int
    #: How many of those values are null.
    nulls: int
    #: How many are multi-values (existential comparison semantics).
    multi: int
    #: ``"number"`` / ``"string"`` when every non-null value is a scalar
    #: of that one orderable kind (bool counts as number, NaN excluded);
    #: ``None`` for mixed, reference-valued, or multi-valued columns.
    kind: Optional[str] = None
    #: Range of the non-null values when :attr:`kind` is set.
    lo: object = None
    hi: object = None

    @property
    def coverage(self) -> float:
        """Fraction of objects with a non-null value."""
        if self.values == 0:
            return 0.0
        return (self.values - self.nulls) / self.values

    @property
    def all_null(self) -> bool:
        return self.values > 0 and self.nulls == self.values

    @property
    def range_usable(self) -> bool:
        """Whether [lo, hi] soundly bounds every comparison outcome."""
        return (
            self.kind is not None
            and self.nulls == 0
            and self.multi == 0
            and self.values > 0
        )


def _operand_kind(operand: object) -> Optional[str]:
    if isinstance(operand, bool) or isinstance(operand, (int, float)):
        return KIND_NUMBER
    if isinstance(operand, str):
        return KIND_STRING
    return None


#: The value index's ordering kinds, as the catalog labels them.
_KIND_LABELS = {"num": KIND_NUMBER, "str": KIND_STRING}


class ConstraintCatalog:
    """Constraint summaries per site, computed on demand.

    The catalog holds no database references and no statistics of its
    own; callers pass the live
    :class:`~repro.objectdb.database.ComponentDatabase`, whose columnar
    extent is the one derived copy of each column.
    """

    # --- statistics ---------------------------------------------------------

    def attribute_stats(
        self, db, class_name: str, attribute: str
    ) -> Optional[AttributeStats]:
        """Summarize one attribute of *class_name*'s extent at *db*.

        ``None`` when the class does not declare *attribute*.
        """
        col = db.columnar_extent(class_name)
        if not db.schema.cls(class_name).has_attribute(attribute):
            return None
        walk = col.walk(Path((attribute,)))
        index = walk.index
        values = walk.values
        irregular = index.irregular_rows
        kind = None if irregular else _KIND_LABELS.get(index.kind)
        lo = hi = None
        if kind is not None:
            ordered = index.values
            # A scan keeps the first value of the lowest and of the
            # highest run (1, 1.0 and True tie).
            lo = ordered[0]
            hi = ordered[bisect_left(ordered, ordered[-1])]
        return AttributeStats(
            values=len(values),
            nulls=len(values) - len(index.rows) - len(irregular),
            multi=sum(isinstance(values[r], MultiValue) for r in irregular),
            kind=kind,
            lo=lo,
            hi=hi,
        )

    # --- the two sound prunes ----------------------------------------------

    def predicate_all_false(
        self, db, class_name: str, predicate: Predicate
    ) -> bool:
        """Prove ``predicate`` FALSE for *every* object of the extent.

        Only single-step paths qualify (the attribute lives on the class
        itself).  Requires full coverage (a null makes the predicate
        UNKNOWN, not FALSE), no multi-values, and — for order operators,
        which raise on mixed types — an operand of the column's own
        scalar kind.
        """
        if len(predicate.path) != 1:
            return False
        # An empty extent is never range-usable: the empty-extent prune
        # handles it.
        attr = self.attribute_stats(db, class_name, predicate.path.last)
        if attr is None or not attr.range_usable:
            return False
        op = predicate.op
        operand = predicate.operand
        okind = _operand_kind(operand)
        if op is Op.EQ:
            if okind != attr.kind:
                # Equality never raises; across kinds it is plain False.
                return okind is not None
            return bool(operand < attr.lo or operand > attr.hi)
        if op is Op.NE:
            # All-false iff every value equals the operand.
            return (
                okind == attr.kind
                and attr.lo == attr.hi
                and attr.lo == operand
            )
        if okind != attr.kind or okind is None:
            return False  # order comparison could raise; never prune
        if op is Op.LT:
            return bool(attr.lo >= operand)
        if op is Op.LE:
            return bool(attr.lo > operand)
        if op is Op.GT:
            return bool(attr.hi <= operand)
        if op is Op.GE:
            return bool(attr.hi < operand)
        return False  # CONTAINS/NOT_CONTAINS: no range semantics

    def check_provably_unknown(
        self, db, class_name: str, predicate: Predicate
    ) -> bool:
        """Prove an assistant check of ``predicate`` returns UNKNOWN.

        Sound for single-step relative paths only: the checked attribute
        sits on the assistant object itself, so an all-null column makes
        every verdict UNKNOWN — which certification treats exactly like
        an unasked check.  Nested paths may block-and-chase; never prune
        those.
        """
        if len(predicate.path) != 1:
            return False
        attr = self.attribute_stats(db, class_name, predicate.path.last)
        return attr is not None and attr.all_null

    def site_prune_reason(self, db, local_query) -> Optional[str]:
        """Why *db*'s local block provably contributes nothing, or None.

        A site block may be skipped when the root extent is empty, or
        when **every** disjunct of the local query contains a local
        root-class predicate that is FALSE for every object (a FALSE
        conjunct member makes the conjunct FALSE regardless of the
        predicates removed as unsolvable, so every row is eliminated
        locally).  The pruned site still serves incoming assistant
        checks — only its own local query is skipped.
        """
        if db.count(local_query.range_class) == 0:
            return "empty-extent"
        if not local_query.where:
            return None
        pruned_by: list = []
        for conjunct in local_query.where:
            witness = None
            for predicate in conjunct:
                if self.predicate_all_false(
                    db, local_query.range_class, predicate
                ):
                    witness = predicate
                    break
            if witness is None:
                return None
            pruned_by.append(witness)
        return "all-false:" + ";".join(str(p) for p in pruned_by)
