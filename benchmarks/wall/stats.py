"""Pure arithmetic of the wall-clock benchmark (no ``repro`` imports).

Everything here is a function of plain numbers, so the self-tests under
``benchmarks/wall/tests`` exercise it without building a federation.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence.

    ``rank = ceil(q * n)`` clamped to ``[1, n]``; the ``round`` keeps an
    exact product such as ``0.95 * 20`` from drifting one rank up.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(round(q * n, 9)))
    return sorted_values[min(n, rank) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples rank strictly above the *q* percentile."""
    return n - min(n, max(1, math.ceil(round(q * n, 9))))


def require_supported(n: int, q: float) -> None:
    """Refuse a percentile that fewer than ten samples lie beyond."""
    beyond = samples_beyond(n, q)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples leaves {beyond} beyond it; "
            f"need at least {MIN_SAMPLES_BEYOND}"
        )


def per_index_best(passes: Sequence[Sequence[float]]) -> List[float]:
    """Sample *i* = the least of each pass's value *i*.

    The passes replay one deterministic query sequence, so index *i* is
    the same bound query in every pass.  Noise on a shared sandbox only
    ever adds time (measured here: bursts of +10 to +50 % lasting
    seconds, invisible to the guest's CPU clock), so the least wall is
    the estimate of query *i*'s cost that a burst cannot move; a median
    over five passes moves whenever bursts cover three of them.
    """
    if not passes:
        raise ValueError("no passes to aggregate")
    length = len(passes[0])
    if any(len(p) != length for p in passes):
        raise ValueError(
            f"passes disagree on length: {[len(p) for p in passes]}"
        )
    return [min(column) for column in zip(*passes)]


def undisturbed_wall(
    pass_walls: Sequence[float], per_query_walls: Sequence[Sequence[float]]
) -> float:
    """The wall of a pass in which no query met a burst.

    A whole pass of a second or more rarely escapes every burst, so the
    least pass wall still carries some.  Each query slot does escape in
    some pass: sum the slots' least walls, and add the least remainder
    (pass wall minus the time inside its queries — binding, admission
    gate, kernel, digest), which is small enough for a burst to matter
    little.
    """
    inside = sum(per_index_best(per_query_walls))
    outside = min(
        wall - sum(queries)
        for wall, queries in zip(pass_walls, per_query_walls)
    )
    return inside + outside


def failed_share(unanswered: int, violations: int, attempted: int) -> float:
    """(unanswered + serial-verification violations) / attempted.

    *unanswered* counts the queries that raised, were shed, or were cut
    off when a raise ended their pass.
    """
    if attempted < 1:
        raise ValueError("failed_share needs at least one attempted query")
    return (unanswered + violations) / attempted


# --- span arithmetic ---------------------------------------------------------

#: One span: (layer index, parent span id or -1, start, end).  A span's
#: id is its position in the list; children are recorded after their
#: parent opens, so ``parent < id`` always holds.
Span = Tuple[int, int, float, float]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    One thread records the spans, so a span's children are disjoint and
    lie inside it: the covered time is the sum of their durations.
    """
    own = [end - start for _layer, _parent, start, end in spans]
    for _layer, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(
    spans: Sequence[Span], layer_count: int
) -> Tuple[List[float], List[int]]:
    """Per-layer (summed self time, call count)."""
    seconds = [0.0] * layer_count
    calls = [0] * layer_count
    for (layer, _parent, _start, _end), own in zip(spans, self_times(spans)):
        seconds[layer] += own
        calls[layer] += 1
    return seconds, calls


def worsening(base: float, other: float, better: str) -> float:
    """By what share of *base* did *other* get worse (negative = better)."""
    if base == 0:
        return 0.0 if other == 0 else math.inf
    change = (other - base) / abs(base)
    return change if better == "lower" else -change
