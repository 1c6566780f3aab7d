"""Secondary indexes for component databases: declared access paths.

An index is a declaration — ``ComponentDatabase.create_index(class,
attribute, kind)`` — and nothing else: it keeps no copy of the column.
A probe reads the indexed predicate's column from the site's
:class:`~repro.objectdb.columnar.ColumnarExtent`, which local evaluation
builds anyway and which dies when the data moves, so an index can never
be stale.  Two kinds, by the operators they serve:

* ``"hash"`` — equality lookups (``=``, ``CONTAINS``), one comparison;
* ``"sorted"`` — ordering lookups (``=``, ``<``, ``<=``, ``>``, ``>=``),
  charged as a bisection of its entries.

The candidates are every row the predicate does not make FALSE, in
extent order: its matches, the rows whose attribute is null or missing
(under three-valued semantics they stay maybe, an index probe can never
eliminate them) and the rows whose comparison raises (a scan raises
there, so the probe must reach them too).  That makes index-accelerated
local evaluation answer-identical to a full scan (tested).

Indexes are opt-in; the paper's experiments run scan-based, and the
index ablation bench quantifies the difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import List, Tuple

from repro.core.query import Op, Predicate
from repro.objectdb.values import MultiValue

#: The operators each index kind serves.
SERVES = {
    "hash": (Op.EQ, Op.CONTAINS),
    "sorted": (Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE),
}


@dataclass
class IndexProbe:
    """Outcome of choosing/using an index for a local query."""

    index_kind: str
    attribute: str
    candidates: int
    comparisons: int  # probe cost charged to the CPU


def index_probe(
    kind: str, col, predicate: Predicate
) -> Tuple[List[int], IndexProbe]:
    """The candidate rows of *col* for *predicate* under a *kind* index.

    A hash probe costs one comparison; a sorted probe bisects its
    entries — one per scalar, one per multi-value member, one per null.
    """
    codes = col.predicate_column(predicate).codes
    # FALSE is code 0: the TRUE, UNKNOWN and error rows (coded UNKNOWN)
    # are kept.
    rows = list(compress(range(len(codes)), codes))
    comparisons = 1
    if kind == "sorted":
        walk = col.walk(predicate.path)
        values = walk.values
        entries = len(values) + sum(
            len(values[r]) - 1
            for r in walk.index.irregular_rows
            if isinstance(values[r], MultiValue)
        )
        comparisons = max(1, int(math.log2(max(entries, 2))))
    return rows, IndexProbe(
        index_kind=kind,
        attribute=predicate.path.first,
        candidates=len(rows),
        comparisons=comparisons,
    )
