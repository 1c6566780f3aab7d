"""The global query model: path expressions, predicates, queries.

The paper considers queries with one *range class* whose ``Where`` clause
is a conjunction of (possibly *nested*) predicates.  A nested predicate
constrains a nested attribute reached through the class composition
hierarchy, written as a path expression such as
``X.advisor.department.name`` (query Q1, Figure 3).

The range class is the *root class* of the query; the other classes
visited by path expressions are its *branch classes*.

As the paper's announced future work, this module also models ``Where``
clauses in *disjunctive normal form* (a disjunction of conjunctions); the
classic conjunctive query is the one-disjunct special case and remains the
primary API.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Set, Tuple, Union

from repro.errors import QueryError
from repro.objectdb.schema import Schema
from repro.objectdb.values import Primitive


#: Stores a derived value on a frozen instance.  Unlike a write through
#: ``__dict__`` it leaves the instance's attributes where the
#: interpreter reads them fastest, which every ``path.steps`` and
#: ``predicate.op`` of the evaluation loops depends on.
_remember = object.__setattr__


def _without_cached_hash(obj: object) -> dict:
    """Pickle state minus the cached hash.

    String hashes are salted per interpreter, so a cached value must not
    travel to another process.
    """
    state = dict(obj.__dict__)
    state.pop("_hash", None)
    return state


@dataclass(frozen=True, order=True)
class Path:
    """A path expression: attribute steps from the range class.

    ``Path(("advisor", "department", "name"))`` denotes
    ``X.advisor.department.name``.
    """

    steps: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise QueryError("a path expression needs at least one step")
        if not all(isinstance(step, str) and step for step in self.steps):
            raise QueryError(f"invalid path steps: {self.steps!r}")

    @classmethod
    def of(cls, *steps: str) -> "Path":
        return cls(tuple(steps))

    @classmethod
    def parse(cls, dotted: str) -> "Path":
        """Parse ``"advisor.department.name"`` into a Path."""
        return cls(tuple(part for part in dotted.split(".") if part))

    @property
    def is_nested(self) -> bool:
        """True for paths of length > 1 (the paper's nested predicates)."""
        return len(self.steps) > 1

    @property
    def first(self) -> str:
        return self.steps[0]

    @property
    def last(self) -> str:
        return self.steps[-1]

    @property
    def prefix(self) -> "Path":
        """The path without its final step (requires a nested path)."""
        if not self.is_nested:
            raise QueryError(f"path {self} has no prefix")
        return Path(self.steps[:-1])

    def __str__(self) -> str:
        return ".".join(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    #: Set on the instance by the first ``hash()``; not a field.
    _hash = None

    def __hash__(self) -> int:
        # The dataclass-generated value, computed once per instance:
        # paths key the binding and walk dicts of every hot loop.
        value = self._hash
        if value is None:
            value = hash((self.steps,))
            _remember(self, "_hash", value)
        return value

    def __getstate__(self) -> dict:
        return _without_cached_hash(self)


class Op(enum.Enum):
    """Comparison operators supported in predicates."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    CONTAINS = "contains"  # multi-valued attribute membership (extension)
    NOT_CONTAINS = "not contains"

    def __str__(self) -> str:
        return self.value

    def complement(self) -> "Op":
        """The operator testing the opposite condition.

        Sound under 3VL: for any stored value, ``NOT (a op v)`` and
        ``a complement(op) v`` have identical truth values (both are
        UNKNOWN on missing data), which lets ``not`` in the query
        language be rewritten away at the leaves.
        """
        return _COMPLEMENTS[self]


_COMPLEMENTS = {
    Op.EQ: Op.NE,
    Op.NE: Op.EQ,
    Op.LT: Op.GE,
    Op.GE: Op.LT,
    Op.GT: Op.LE,
    Op.LE: Op.GT,
    Op.CONTAINS: Op.NOT_CONTAINS,
    Op.NOT_CONTAINS: Op.CONTAINS,
}


Operand = Primitive


@dataclass(frozen=True, order=True)
class Predicate:
    """An atomic predicate ``path op constant``.

    The paper's queries compare nested attributes with constants (e.g.
    ``X.advisor.speciality = database``); we additionally allow ordering
    operators and the multi-valued ``contains`` operator.
    """

    path: Path
    op: Op
    operand: Operand

    def __post_init__(self) -> None:
        # Predicates key the columns, status dicts and verdict indexes of
        # every evaluation: one that cannot be hashed is rejected here,
        # not by whichever dict meets it first.
        try:
            hash(self.operand)
        except TypeError:
            raise QueryError(
                f"predicate on {self.path}: operand {self.operand!r} is "
                "not hashable"
            ) from None

    @classmethod
    def of(cls, dotted_path: str, op: Union[Op, str], operand: Operand) -> "Predicate":
        if isinstance(op, str):
            try:
                op = next(member for member in Op if member.value == op)
            except StopIteration:
                raise QueryError(f"unknown operator {op!r}") from None
        return cls(path=Path.parse(dotted_path), op=op, operand=operand)

    #: Set on the instance by the first ``str()`` / ``hash()``; not fields.
    _text = _hash = None

    def __str__(self) -> str:
        # Built once: dispatch planning sorts by it, per assistant.
        text = self._text
        if text is None:
            text = f"{self.path} {self.op} {self.operand!r}"
            _remember(self, "_text", text)
        return text

    def __hash__(self) -> int:
        # The dataclass-generated value, computed once per instance.
        value = self._hash
        if value is None:
            value = hash((self.path, self.op, self.operand))
            _remember(self, "_hash", value)
        return value

    def __getstate__(self) -> dict:
        return _without_cached_hash(self)


Conjunction = Tuple[Predicate, ...]


@dataclass(frozen=True)
class Query:
    """A global query against the integrated schema.

    Attributes:
        range_class: the (global) root class the variable ranges over.
        targets: projected path expressions (the ``Select`` list).
        where: the ``Where`` clause in disjunctive normal form — a tuple of
            conjunctions.  A conjunctive query has exactly one conjunct; an
            empty ``where`` means no predicates (select all).
    """

    range_class: str
    targets: Tuple[Path, ...]
    where: Tuple[Conjunction, ...] = ()

    @classmethod
    def conjunctive(
        cls,
        range_class: str,
        targets: Iterable[Union[Path, str]],
        predicates: Iterable[Predicate] = (),
    ) -> "Query":
        """Build the paper's standard conjunctive query form."""
        target_paths = tuple(
            t if isinstance(t, Path) else Path.parse(t) for t in targets
        )
        conj = tuple(predicates)
        where = (conj,) if conj else ()
        return cls(range_class=range_class, targets=target_paths, where=where)

    @classmethod
    def disjunctive(
        cls,
        range_class: str,
        targets: Iterable[Union[Path, str]],
        disjuncts: Iterable[Iterable[Predicate]],
    ) -> "Query":
        """Build a DNF query (future-work extension)."""
        target_paths = tuple(
            t if isinstance(t, Path) else Path.parse(t) for t in targets
        )
        where = tuple(tuple(d) for d in disjuncts if tuple(d))
        return cls(range_class=range_class, targets=target_paths, where=where)

    # --- structure --------------------------------------------------------

    #: Set on the instance by the first call of the method; not fields.
    _all_predicates = None
    _all_paths = None

    @property
    def is_conjunctive(self) -> bool:
        return len(self.where) <= 1

    @property
    def predicates(self) -> Tuple[Predicate, ...]:
        """The predicates of a conjunctive query (flat view).

        Raises:
            QueryError: when the query has more than one disjunct; use
                ``where`` directly for DNF queries.
        """
        if not self.is_conjunctive:
            raise QueryError(
                "query is disjunctive; access .where for the DNF structure"
            )
        return self.where[0] if self.where else ()

    def all_predicates(self) -> Tuple[Predicate, ...]:
        """Every distinct predicate mentioned in any disjunct (stable order).

        Computed on first use and kept: the query is immutable.
        """
        ordered = self._all_predicates
        if ordered is None:
            ordered = tuple(
                dict.fromkeys(pred for conj in self.where for pred in conj)
            )
            _remember(self, "_all_predicates", ordered)
        return ordered

    def all_paths(self) -> Tuple[Path, ...]:
        """Every path mentioned by targets or predicates (stable order).

        Computed on first use and kept, like :meth:`all_predicates`.
        """
        ordered = self._all_paths
        if ordered is None:
            ordered = tuple(dict.fromkeys(
                list(self.targets) + [p.path for p in self.all_predicates()]
            ))
            _remember(self, "_all_paths", ordered)
        return ordered

    def branch_classes(self, schema: Schema) -> Tuple[str, ...]:
        """Classes other than the range class visited by any path.

        These are the paper's *branch classes*; their constituent classes
        at each site are the *local branch classes*.
        """
        visited: Set[str] = set()
        ordered: List[str] = []
        for path in self.all_paths():
            for class_name in schema.classes_on_path(self.range_class, path.steps):
                if class_name != self.range_class and class_name not in visited:
                    visited.add(class_name)
                    ordered.append(class_name)
            # the final step may itself be complex (projecting an object)
            chain = schema.resolve_path(self.range_class, path.steps)
            final = chain[-1]
            if final.is_complex and final.domain not in visited:
                if final.domain != self.range_class:
                    visited.add(final.domain)
                    ordered.append(final.domain)  # type: ignore[arg-type]
        return tuple(ordered)

    def validate(self, schema: Schema) -> None:
        """Type-check the query against *schema* (raises QueryError)."""
        if self.range_class not in schema:
            raise QueryError(f"unknown range class {self.range_class!r}")
        root, chains = self.range_class, {}
        for path in self.all_paths():
            try:
                chains[path] = schema.resolve_path(root, path.steps)
            except Exception as exc:  # re-raise uniformly as QueryError
                raise QueryError(
                    f"path {path} does not type-check from "
                    f"{self.range_class!r}: {exc}"
                ) from exc
        for pred in self.all_predicates():
            final = chains[pred.path][-1]
            if final.is_complex:
                raise QueryError(
                    f"predicate {pred} compares complex attribute "
                    f"{pred.path.last!r} with a constant"
                )
            if (
                pred.op in (Op.CONTAINS, Op.NOT_CONTAINS)
                and not final.multi_valued
            ):
                raise QueryError(
                    f"predicate {pred} uses {pred.op} on single-valued "
                    f"attribute {pred.path.last!r}"
                )

    def __str__(self) -> str:
        select = ", ".join(f"X.{t}" for t in self.targets)
        if not self.where:
            return f"Select {select} From {self.range_class} X"
        disjuncts = [
            " and ".join(f"X.{p}" for p in conj) for conj in self.where
        ]
        where = " or ".join(
            f"({d})" if len(self.where) > 1 else d for d in disjuncts
        )
        return f"Select {select} From {self.range_class} X Where {where}"
