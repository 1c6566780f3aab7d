"""Global query answers: certain and maybe results.

A query over missing data has a two-part answer (paper, Section 1):
**certain results**, whose predicates are all TRUE, and **maybe results**,
which satisfy every evaluable predicate but have at least one UNKNOWN
predicate caused by missing data.  Presenting both gives the user "more
informative answers".
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
from dataclasses import InitVar, dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.query import Path, Predicate
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.values import NULL, MultiValue, Value, is_null


class ResultKind(enum.Enum):
    CERTAIN = "certain"
    MAYBE = "maybe"


_CERTAIN = ResultKind.CERTAIN
#: The ``kind`` the export gives each list (certain, then maybe).
_KINDS = (ResultKind.CERTAIN.value, ResultKind.MAYBE.value)
#: A GOid orders as its value does.
_GOID_ORDER = attrgetter("goid.value")
_VALUE = attrgetter("value")


def export_value(value: Value) -> object:
    """Convert a binding value into a plain JSON-serializable object.

    NULL becomes ``None``, a :class:`MultiValue` becomes the sorted list
    of its exported members, identifiers (LOid/GOid) become their string
    form, and JSON primitives pass through unchanged.  The output never
    needs ``json.dumps(..., default=...)`` and is stable across runs, so
    it doubles as the canonical form for determinism digests.
    """
    if is_null(value):
        return None
    if isinstance(value, MultiValue):
        members = [export_value(m) for m in value]
        return sorted(members, key=lambda m: (str(type(m).__name__), str(m)))
    if isinstance(value, (LOid, GOid)):
        return str(value)
    if isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@dataclass
class GlobalResult:
    """One answer object of a global query.

    Attributes:
        goid: the real-world entity answered.
        kind: certain or maybe.
        bindings: target path -> value (NULL when the data is missing
            everywhere in the federation).
        unsolved: for maybe results, the global predicates whose truth is
            still UNKNOWN after all certification.
    """

    goid: GOid
    kind: ResultKind
    bindings: Dict[Path, Value] = field(default_factory=dict)
    unsolved: Tuple[Predicate, ...] = ()
    #: Degradation annotations ("uncertified: site DB2 unavailable") —
    #: why this row is weaker than a fault-free execution would make it.
    notes: Tuple[str, ...] = ()
    #: Discharge conditions (repro.conditions atoms, implicit
    #: conjunction): what must clear before this row can be promoted.
    #: Provenance only — excluded from equality and from every export,
    #: so answers compare and serialize exactly as before.
    conditions: Tuple[object, ...] = field(default=(), compare=False)

    @property
    def is_certain(self) -> bool:
        return self.kind is ResultKind.CERTAIN

    def value(self, target: Path) -> Value:
        return self.bindings.get(target, NULL)

    def row(self, targets: Iterable[Path]) -> Tuple[Value, ...]:
        """Project this result on *targets*, in order."""
        return tuple(self.bindings.get(t, NULL) for t in targets)


@dataclass
class ResultSet:
    """The full answer of a global query.

    Certain rows may be stored as ``columns=`` (GOids, and one value list
    per target: what CA_G3 builds).  ``certain`` builds their results on
    first read and is authoritative from then on; counting, :meth:`sort`,
    :meth:`summary` and the export read the columns.
    """

    targets: Tuple[Path, ...] = ()
    certain: List[GlobalResult] = None  # type: ignore[assignment]
    maybe: List[GlobalResult] = field(default_factory=list)
    columns: InitVar[Optional[Tuple[list, List[list]]]] = None

    def __post_init__(self, columns) -> None:
        self._columns = columns
        if columns is None and self._certain is None:
            self._certain = []

    def _certain_view(self) -> List[GlobalResult]:
        if self._certain is None:
            goids, values = self._columns
            self._certain = [
                GlobalResult(goid, _CERTAIN, dict(zip(self.targets, row)))
                for goid, *row in zip(goids, *values)
            ]
        return self._certain

    def add(self, result: GlobalResult) -> None:
        if result.is_certain:
            self.certain.append(result)
        else:
            self.maybe.append(result)

    @property
    def certain_count(self) -> int:
        """``len(certain)``, read off the columns while there are any."""
        rows = self._columns[0] if self._certain is None else self._certain
        return len(rows)

    def __len__(self) -> int:
        return self.certain_count + len(self.maybe)

    def all_results(self) -> List[GlobalResult]:
        return list(self.certain) + list(self.maybe)

    def certain_rows(self) -> List[Tuple[Value, ...]]:
        """Sorted projected rows of the certain results."""
        return sorted(
            (r.row(self.targets) for r in self.certain), key=_row_key
        )

    def maybe_rows(self) -> List[Tuple[Value, ...]]:
        """Sorted projected rows of the maybe results."""
        return sorted((r.row(self.targets) for r in self.maybe), key=_row_key)

    def find(self, goid: GOid) -> Optional[GlobalResult]:
        for result in self.all_results():
            if result.goid == goid:
                return result
        return None

    def sort(self) -> "ResultSet":
        """Normalize ordering (by GOid) for comparisons in tests."""
        if self._certain is None:
            goids, values = self._columns
            keys = list(map(_VALUE, goids))
            if keys != sorted(keys):
                order = sorted(range(len(keys)), key=keys.__getitem__)
                self._columns = ([goids[r] for r in order],
                                 [[col[r] for r in order] for col in values])
        else:
            self._certain.sort(key=_GOID_ORDER)
        self.maybe.sort(key=_GOID_ORDER)
        return self

    def summary(self) -> str:
        return (
            f"{self.certain_count} certain, {len(self.maybe)} maybe "
            f"result(s)"
        )

    # --- export -------------------------------------------------------------

    def _export_columns(self) -> Iterator[tuple]:
        """Per non-empty list, certain then maybe: ``(kind, GOids, one
        value column per target, rows)`` — rows ``None`` while certain
        is columns, else the columns are derived from the rows."""
        for kind, rows in zip(_KINDS, (self._certain, self.maybe)):
            if rows is None and self._columns[0]:
                yield (kind, *self._columns, None)
            elif rows:
                yield kind, [r.goid for r in rows], [
                    [r.bindings.get(t, NULL) for r in rows]
                    for t in self.targets
                ], rows

    def to_dicts(self) -> List[Dict[str, object]]:
        """Export every result as a plain dict (JSON-friendly values).

        Each dict carries the entity's GOid (``"goid"``), the kind of the
        list it is in (``"kind"``), one key per target path (NULL
        exported as ``None``, multi-values as sorted lists) and, where a
        row has them, its unsolved predicates as strings (``"unsolved"``)
        and its notes (``"notes"``).  The row's own keys win: a target
        named ``goid``, ``kind``, ``unsolved`` or ``notes`` is exported
        as ``"$" + name`` (no path the SQL/X parser reads holds a ``$``).
        """
        keys = _export_keys(self.targets)
        out: List[Dict[str, object]] = []
        for kind, goids, values, rows in self._export_columns():
            for r, goid in enumerate(goids):
                row: Dict[str, object] = {"goid": goid.value, "kind": kind}
                for key, i in keys:
                    row[key] = export_value(values[i][r])
                for key, of in _OPTIONAL.items() if rows is not None else ():
                    if of(rows[r]):
                        row[key] = [str(item) for item in of(rows[r])]
                out.append(row)
        return out

    def to_json(self, indent: int = 2) -> str:
        """The :meth:`to_dicts` export as a JSON string.

        Every value is converted by :func:`export_value` first, so the
        dump needs no ``default=`` escape hatch and the text round-trips:
        ``json.loads(rs.to_json()) == rs.to_dicts()``.
        """
        return json.dumps(self.to_dicts(), indent=indent)


# ``certain`` stays a declared field (constructor keyword, equality, repr,
# field-by-field comparison) whose storage is the view above.
ResultSet.certain = property(  # type: ignore[assignment]
    ResultSet._certain_view, lambda self, rows: setattr(self, "_certain", rows)
)


@dataclass(frozen=True)
class Availability:
    """How much of the federation one execution actually reached.

    Fault-free executions carry the default (complete) annotation; a
    degraded execution records which sites were skipped, how often links
    were retried, and how much simulated time was burned waiting.
    """

    complete: bool = True
    sites_contacted: Tuple[str, ...] = ()
    sites_skipped: Tuple[str, ...] = ()
    #: (site, retry count) for links that succeeded only after retries.
    retries: Tuple[Tuple[str, int], ...] = ()
    checks_skipped: int = 0
    messages_lost: int = 0
    fault_wait_s: float = 0.0
    #: Check requests rerouted over the global-site relay (failover).
    checks_failed_over: int = 0
    #: True when failover neutralized every injected fault: the answer
    #: is byte-identical to the fault-free baseline even though some
    #: links were down (``complete`` stays False — links *were* lost).
    fully_recovered: bool = False
    #: Queried sites whose whole block dropped (unrecoverable loss).
    queried_sites_down: Tuple[str, ...] = ()
    #: Federation evolution epoch the execution was pinned to (0 for a
    #: frozen federation).
    schema_epoch: int = 0
    #: Labels of evolution windows open while this query executed —
    #: non-empty means the answer straddled schema/membership
    #: propagation and is covered by the flux consistency contract.
    epochs_straddled: Tuple[str, ...] = ()
    #: Missingness-mechanism ranking of the maybe rows (Bertossi,
    #: arXiv:2604.06520): rows blocked only by genuine nulls (sampling —
    #: no recovery certifies them) vs rows a heal can discharge
    #: (systematic: site down, unchecked copy, open flux window).
    #: Surfaced via ``explain``; deliberately absent from to_dict() and
    #: summary() so committed baselines stay byte-stable.
    maybe_sampling: int = 0
    maybe_systematic: int = 0

    @property
    def certification_intact(self) -> bool:
        """The answer provably matches a fault-free execution."""
        return self.complete or self.fully_recovered

    def to_dict(self) -> Dict[str, object]:
        # A site may appear once per retried link; a plain dict
        # comprehension would keep only the last link's count, so the
        # export aggregates (sums) retry counts per site.
        retry_totals: Dict[str, int] = {}
        for site, count in self.retries:
            retry_totals[site] = retry_totals.get(site, 0) + count
        return {
            "complete": self.complete,
            "sites_contacted": list(self.sites_contacted),
            "sites_skipped": list(self.sites_skipped),
            "retries": retry_totals,
            "checks_skipped": self.checks_skipped,
            "messages_lost": self.messages_lost,
            "fault_wait_s": self.fault_wait_s,
            "checks_failed_over": self.checks_failed_over,
            "fully_recovered": self.fully_recovered,
            "queried_sites_down": list(self.queried_sites_down),
            "schema_epoch": self.schema_epoch,
            "epochs_straddled": list(self.epochs_straddled),
        }

    def summary(self) -> str:
        if (
            self.complete
            and not self.retries
            and not self.messages_lost
            and not self.epochs_straddled
        ):
            return "complete"
        parts = ["complete" if self.complete else "INCOMPLETE"]
        if self.epochs_straddled:
            parts.append(f"straddled={','.join(self.epochs_straddled)}")
        if self.fully_recovered and not self.complete:
            parts.append("recovered")
        if self.sites_skipped:
            parts.append(f"skipped={','.join(self.sites_skipped)}")
        if self.retries:
            parts.append(
                "retries=" + ",".join(f"{s}:{n}" for s, n in self.retries)
            )
        if self.checks_skipped:
            parts.append(f"checks_skipped={self.checks_skipped}")
        if self.checks_failed_over:
            parts.append(f"failover={self.checks_failed_over}")
        if self.messages_lost:
            parts.append(f"lost={self.messages_lost}")
        if self.fault_wait_s:
            parts.append(f"waited={self.fault_wait_s:.3f}s")
        return " ".join(parts)


#: The annotation every fault-free execution shares (it is frozen).
COMPLETE = Availability()


def certified_subset(degraded: ResultSet, full: ResultSet) -> bool:
    """True when *degraded* certifies no GOid that *full* does not.

    The soundness contract of degradation: losing a site may demote
    certain results to maybe (or drop rows), but must never *add*
    certainty that the complete execution lacks.
    """
    degraded_certain = {r.goid for r in degraded.certain}
    full_certain = {r.goid for r in full.certain}
    return degraded_certain <= full_certain


def _row_key(row: Tuple[Value, ...]) -> Tuple:
    """Sort key tolerant of NULLs and mixed types."""
    return tuple((is_null(v), str(type(v).__name__), str(v)) for v in row)


def _answer_key(results: ResultSet) -> Dict[GOid, Tuple]:
    """Per-GOid comparison key: kind, projected bindings, unsolved set."""
    key: Dict[GOid, Tuple] = {}
    for result in results.all_results():
        projected = tuple(
            export_value(result.value(t)) for t in results.targets
        )
        # Lists (exported MultiValues) are unhashable; re-freeze them.
        frozen = tuple(
            tuple(v) if isinstance(v, list) else v for v in projected
        )
        key[result.goid] = (
            result.kind,
            frozen,
            frozenset(str(p) for p in result.unsolved),
        )
    return key


def same_answers(left: ResultSet, right: ResultSet) -> bool:
    """True when two result sets are answer-equivalent, strictly.

    Strategy-equivalence check: CA, BL and PL must compute *identical*
    answers; only their costs differ (paper, Section 4).  Strict means:
    the same target list, the same GOids with the same kind
    (certain/maybe), the same projected binding for every target, and —
    for maybe results — the same set of unsolved predicates.  A strategy
    that certifies the right entities with the wrong values fails here;
    use :func:`same_entities` for the loose GOid-membership check.
    """
    if left.targets != right.targets:
        return False
    return _answer_key(left) == _answer_key(right)


def same_entities(left: ResultSet, right: ResultSet) -> bool:
    """True when two result sets contain the same certain and maybe GOids.

    The loose, membership-only check (the pre-difftest ``same_answers``
    semantics): bindings and unsolved predicates are ignored, so two
    executions that agree on *which* entities are certain/maybe but
    disagree on the returned values still pass.
    """
    left_certain = {r.goid for r in left.certain}
    right_certain = {r.goid for r in right.certain}
    left_maybe = {r.goid for r in left.maybe}
    right_maybe = {r.goid for r in right.maybe}
    return left_certain == right_certain and left_maybe == right_maybe


#: The keys an exported row has, or may have, of its own; only some
#: rows have the last two (read with these getters).
_ROW_KEYS = ("goid", "kind", "unsolved", "notes")
_OPTIONAL = {key: attrgetter(key) for key in _ROW_KEYS[2:]}


@functools.lru_cache(maxsize=256)
def _export_keys(targets: Tuple[Path, ...]) -> Tuple[Tuple[str, int], ...]:
    """(export key, target index) per target, in order (of targets that
    print alike the last is exported); a target named like a row key is
    exported as ``"$" + name``."""
    names = enumerate(map(str, targets))
    return tuple(("$" + n if n in _ROW_KEYS else n, i) for i, n in names)


def _encode(values: Iterable[object]) -> List[str]:
    """Each value as ``json.dumps`` writes its :func:`export_value`."""
    return [
        int.__repr__(v) if type(v) is int
        else encode_basestring_ascii(v) if type(v) is str
        else "null" if v is NULL
        else json.dumps(export_value(v))
        for v in values
    ]


@functools.lru_cache(maxsize=256)
def _layout(kind: str, keys: Tuple[str, ...]) -> Tuple[str, Tuple[str, ...]]:
    """A list's row as a ``%`` template (keys sorted as ``json.dumps``
    sorts them, ``kind`` written in) and the column each ``%s`` takes.
    An optional key's ``%s`` holds ``', "key": [...]'`` or ``''``; it is
    never first, as ``goid``, which every row has, sorts before it."""
    items: List[str] = []
    for key in sorted(keys + ("kind",)):
        if key in _OPTIONAL:
            items[-1] += "%s"
        else:
            value = f'"{kind}"' if key == "kind" else "%s"
            items.append(json.dumps(key).replace("%", "%%") + ": " + value)
    return "{" + ", ".join(items) + "}", tuple(sorted(keys))


def answer_digest(results: ResultSet) -> str:
    """Stable content hash of an answer (first 12 hex chars).

    The sha256 of ``json.dumps(results.to_dicts(), sort_keys=True)``,
    byte for byte, written from columns: each value column is encoded in
    one pass and each row fills its list's layout.  A certain list that
    is still columns is never turned into results.
    """
    keys = _export_keys(results.targets)
    texts: List[str] = []
    for kind, goids, values, rows in results._export_columns():
        columns = {"goid": _encode(map(_VALUE, goids))}
        for key, i in keys:
            columns[key] = _encode(values[i])
        for key, of in _OPTIONAL.items() if rows is not None else ():
            own = list(map(of, rows))
            if any(own):
                columns[key] = [f', "{key}": [' + ", ".join(
                    map(encode_basestring_ascii, map(str, items))
                ) + "]" if items else "" for items in own]
        template, fields = _layout(kind, tuple(columns))
        texts += [template % row for row in zip(*map(columns.get, fields))]
    payload = "[" + ", ".join(texts) + "]"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
