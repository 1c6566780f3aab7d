"""Three-valued predicate evaluation over object graphs.

This module walks path expressions through stored objects (following
complex-attribute references) and evaluates predicates under Kleene 3VL:

* a predicate whose attribute is missing / null evaluates to UNKNOWN, and
  the evaluation records *where* the data was missing — which object holds
  the missing attribute.  That location is what the localized strategies
  need: a missing attribute on the root object makes the root *unsolved*,
  while a missing attribute on a branch object makes that branch object an
  *unsolved item* of the maybe result (paper, Section 2.3);
* a dangling or null intermediate reference also yields UNKNOWN, blamed on
  the object holding the null complex attribute.

Evaluation is generic over a *dereferencer* so that the same code serves
component databases (LOid references) and the integrated global extent
(GOid references).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.query import Conjunction, Op, Path, Predicate
from repro.core.tvl import TV, all3, any3, from_bool
from repro.errors import QueryError
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.objects import IntegratedObject, LocalObject
from repro.objectdb.values import MultiValue, NULL, Value, is_null

AnyObject = Union[LocalObject, IntegratedObject]
Deref = Callable[[Union[LOid, GOid]], Optional[AnyObject]]


@dataclass
class EvalMeter:
    """Counts the work done during evaluation, for the cost model.

    Attributes:
        comparisons: number of value comparisons performed (charged at
            ``T_c`` by the simulator).
        derefs: number of object dereferences performed while walking
            path expressions.
    """

    comparisons: int = 0
    derefs: int = 0

    def merge(self, other: "EvalMeter") -> None:
        self.comparisons += other.comparisons
        self.derefs += other.derefs


@dataclass(frozen=True)
class MissingAt:
    """Where a path walk encountered missing data.

    Attributes:
        holder_id: identifier (LOid or GOid) of the object that lacks data.
        holder_class: class name of that object.
        attribute: the attribute that was missing or null.
        depth: index of the missing step within the path expression.
    """

    holder_id: Union[LOid, GOid]
    holder_class: str
    attribute: str
    depth: int


@dataclass(frozen=True)
class PathOutcome:
    """Result of walking a path expression from a root object."""

    value: Value
    missing: Optional[MissingAt] = None
    # Objects visited along the walk, root first (used to identify the
    # nested complex objects behind unsolved items).
    visited: Tuple[AnyObject, ...] = ()

    @property
    def is_missing(self) -> bool:
        return self.missing is not None


def compare_values(op: Op, value: Value, operand: Value, meter: Optional[EvalMeter] = None) -> TV:
    """Compare a stored value with a constant under 3VL.

    NULL (or an empty multi-value) yields UNKNOWN.  A multi-valued
    attribute satisfies a predicate existentially: the predicate is TRUE
    when any member satisfies it (the paper's multi-valued extension
    collects values from different component databases; an entity matches
    when any contributed value matches).
    """
    if meter is not None:
        meter.comparisons += 1
    if is_null(value):
        return TV.UNKNOWN
    if isinstance(value, MultiValue):
        if op is Op.CONTAINS:
            return from_bool(operand in value)
        if op is Op.NOT_CONTAINS:
            return from_bool(operand not in value)
        if meter is not None:
            # one comparison per member beyond the first, already counted
            meter.comparisons += max(0, len(value) - 1)
        return any3(_compare_scalar(op, member, operand) for member in value)
    if op in (Op.CONTAINS, Op.NOT_CONTAINS):
        raise QueryError(f"{op} requires a multi-valued attribute")
    return _compare_scalar(op, value, operand)


def _compare_scalar(op: Op, value: Value, operand: Value) -> TV:
    if op is Op.EQ:
        return from_bool(value == operand)
    if op is Op.NE:
        return from_bool(value != operand)
    try:
        if op is Op.LT:
            return from_bool(value < operand)  # type: ignore[operator]
        if op is Op.LE:
            return from_bool(value <= operand)  # type: ignore[operator]
        if op is Op.GT:
            return from_bool(value > operand)  # type: ignore[operator]
        if op is Op.GE:
            return from_bool(value >= operand)  # type: ignore[operator]
    except TypeError:
        raise QueryError(
            f"cannot order-compare {value!r} with {operand!r}"
        ) from None
    raise QueryError(f"unsupported operator {op!r}")


def walk_path(
    root: AnyObject,
    path: Path,
    deref: Deref,
    meter: Optional[EvalMeter] = None,
) -> PathOutcome:
    """Walk *path* from *root*, following references via *deref*.

    Returns a :class:`PathOutcome`.  When an attribute along the way is
    null/missing, or an intermediate reference cannot be dereferenced, the
    outcome carries a :class:`MissingAt` naming the object and attribute
    that blocked the walk.
    """
    current: AnyObject = root
    visited: List[AnyObject] = [root]
    for depth, step in enumerate(path.steps):
        value = current.get(step)
        if is_null(value):
            ident = current.loid if isinstance(current, LocalObject) else current.goid
            return PathOutcome(
                value=NULL,
                missing=MissingAt(
                    holder_id=ident,
                    holder_class=current.class_name,
                    attribute=step,
                    depth=depth,
                ),
                visited=tuple(visited),
            )
        is_last = depth == len(path.steps) - 1
        if is_last:
            return PathOutcome(value=value, visited=tuple(visited))
        if not isinstance(value, (LOid, GOid)):
            raise QueryError(
                f"path {path}: step {step!r} holds non-reference "
                f"{value!r} but is not final"
            )
        if meter is not None:
            meter.derefs += 1
        next_obj = deref(value)
        if next_obj is None:
            # The reference leads outside this database (e.g. an LOid whose
            # object lives elsewhere) or dangles: data is missing here.
            ident = current.loid if isinstance(current, LocalObject) else current.goid
            return PathOutcome(
                value=NULL,
                missing=MissingAt(
                    holder_id=ident,
                    holder_class=current.class_name,
                    attribute=step,
                    depth=depth,
                ),
                visited=tuple(visited),
            )
        current = next_obj
        visited.append(current)
    raise AssertionError("unreachable: empty paths are rejected by Path")


@dataclass(frozen=True)
class PredicateOutcome:
    """Result of evaluating one predicate on one root object."""

    predicate: Predicate
    tv: TV
    missing: Optional[MissingAt] = None


def evaluate_predicate(
    root: AnyObject,
    predicate: Predicate,
    deref: Deref,
    meter: Optional[EvalMeter] = None,
) -> PredicateOutcome:
    """Evaluate *predicate* on *root* under 3VL."""
    walk = walk_path(root, predicate.path, deref, meter)
    if walk.is_missing:
        return PredicateOutcome(predicate=predicate, tv=TV.UNKNOWN, missing=walk.missing)
    tv = compare_values(predicate.op, walk.value, predicate.operand, meter)
    return PredicateOutcome(predicate=predicate, tv=tv)


@dataclass
class ConjunctionOutcome:
    """Result of evaluating a conjunction of predicates on one object.

    Attributes:
        tv: three-valued truth of the whole conjunction.
        outcomes: per-predicate outcomes (in predicate order).
        unsolved: outcomes of the predicates that evaluated UNKNOWN —
            the paper's *unsolved predicates* on this object.
    """

    tv: TV
    outcomes: Tuple[PredicateOutcome, ...] = ()

    @property
    def unsolved(self) -> Tuple[PredicateOutcome, ...]:
        return tuple(o for o in self.outcomes if o.tv is TV.UNKNOWN)


def evaluate_conjunction(
    root: AnyObject,
    predicates: Sequence[Predicate],
    deref: Deref,
    meter: Optional[EvalMeter] = None,
    short_circuit: bool = False,
) -> ConjunctionOutcome:
    """Evaluate a conjunction of predicates on *root*.

    With ``short_circuit`` a FALSE predicate stops evaluation early (used
    by the cost-aware local evaluation); without it every predicate is
    evaluated so that the full unsolved set is known.
    """
    outcomes: List[PredicateOutcome] = []
    for predicate in predicates:
        outcome = evaluate_predicate(root, predicate, deref, meter)
        outcomes.append(outcome)
        if short_circuit and outcome.tv is TV.FALSE:
            break
    tv = all3(o.tv for o in outcomes)
    return ConjunctionOutcome(tv=tv, outcomes=tuple(outcomes))


@dataclass
class DnfOutcome:
    """Result of evaluating a DNF ``Where`` clause on one object."""

    tv: TV
    conjunctions: Tuple[ConjunctionOutcome, ...] = ()

    @property
    def unsolved(self) -> Tuple[PredicateOutcome, ...]:
        """Unsolved predicates from UNKNOWN disjuncts.

        A disjunct that is FALSE contributes nothing (its missing data can
        no longer change the answer of that disjunct only if the disjunct
        is FALSE because some predicate is FALSE); a disjunct that is TRUE
        makes the whole clause TRUE, so nothing is unsolved.
        """
        if self.tv is not TV.UNKNOWN:
            return ()
        collected: List[PredicateOutcome] = []
        seen = set()
        for conj in self.conjunctions:
            if conj.tv is TV.UNKNOWN:
                for outcome in conj.unsolved:
                    if outcome.predicate not in seen:
                        seen.add(outcome.predicate)
                        collected.append(outcome)
        return tuple(collected)


def evaluate_dnf(
    root: AnyObject,
    where: Sequence[Conjunction],
    deref: Deref,
    meter: Optional[EvalMeter] = None,
) -> DnfOutcome:
    """Evaluate a DNF ``Where`` clause on *root* under 3VL.

    An empty clause is TRUE (no predicates).  The clause is TRUE when any
    disjunct is TRUE, FALSE when all are FALSE, UNKNOWN otherwise.
    """
    if not where:
        return DnfOutcome(tv=TV.TRUE)
    conj_outcomes = tuple(
        evaluate_conjunction(root, conj, deref, meter) for conj in where
    )
    tv = any3(c.tv for c in conj_outcomes)
    return DnfOutcome(tv=tv, conjunctions=conj_outcomes)
