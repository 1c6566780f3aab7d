"""Seeded query templates: the parameter-generator layer of traffic.

A :class:`QueryTemplate` is a query *shape* with named holes; a
:class:`ParamSpec` says how to fill each hole from a worker's seeded
RNG.  ``template.instantiate(rng)`` draws every parameter in
declaration order (so the draw sequence is part of the template's
contract and reruns are byte-identical) and returns a
:class:`BoundQuery` — the concrete, hashable
:class:`~repro.core.query.Query` plus the drawn parameter values for
reporting and replay.

Templates never touch the federation: binding is pure, which is what
lets the traffic driver re-execute any bound query serially and demand
an identical answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.core.query import Op, Path, Predicate, Query
from repro.errors import WorkloadError

#: Parameter kinds a spec may draw from.
INT_UNIFORM = "int_uniform"
CHOICE = "choice"
CONST = "const"


@dataclass(frozen=True)
class ParamSpec:
    """How one template parameter is drawn.

    * ``int_uniform`` — an integer in ``[low, high)`` via
      ``rng.randrange``;
    * ``choice`` — one of *choices* via ``rng.choice``;
    * ``const`` — always *value*; no RNG draw is consumed, so adding a
      constant never shifts another parameter's stream.
    """

    name: str
    kind: str = INT_UNIFORM
    low: int = 0
    high: int = 1
    choices: Tuple[object, ...] = ()
    value: object = None

    def __post_init__(self) -> None:
        if self.kind not in (INT_UNIFORM, CHOICE, CONST):
            raise WorkloadError(f"unknown param kind {self.kind!r}")
        if self.kind == INT_UNIFORM and self.high <= self.low:
            raise WorkloadError(
                f"param {self.name!r}: empty range [{self.low}, {self.high})"
            )
        if self.kind == CHOICE and not self.choices:
            raise WorkloadError(f"param {self.name!r}: no choices")

    def draw(self, rng: random.Random) -> object:
        if self.kind == INT_UNIFORM:
            return rng.randrange(self.low, self.high)
        if self.kind == CHOICE:
            return rng.choice(self.choices)
        return self.value


@dataclass(frozen=True)
class PredicateTemplate:
    """A predicate whose operand is the template parameter *param*."""

    path: str
    op: Op
    param: str


@dataclass(frozen=True)
class BoundQuery:
    """One concrete instantiation of a template."""

    template: str
    query: Query
    params: Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class QueryTemplate:
    """A parameterized query shape over the global schema."""

    name: str
    range_class: str
    targets: Tuple[str, ...]
    predicates: Tuple[PredicateTemplate, ...]
    params: Tuple[ParamSpec, ...]

    def __post_init__(self) -> None:
        known = {spec.name for spec in self.params}
        if len(known) != len(self.params):
            raise WorkloadError(f"template {self.name!r}: duplicate params")
        for pred in self.predicates:
            if pred.param not in known:
                raise WorkloadError(
                    f"template {self.name!r}: predicate on {pred.path!r} "
                    f"names unknown param {pred.param!r}"
                )

    def instantiate(self, rng: random.Random) -> BoundQuery:
        """Draw every parameter (declaration order) and bind the query."""
        drawn = tuple((spec.name, spec.draw(rng)) for spec in self.params)
        values = dict(drawn)
        predicates = tuple(
            Predicate(
                path=Path.parse(pred.path),
                op=pred.op,
                operand=values[pred.param],
            )
            for pred in self.predicates
        )
        query = Query.conjunctive(
            self.range_class,
            [Path.parse(t) for t in self.targets],
            predicates,
        )
        return BoundQuery(template=self.name, query=query, params=drawn)

    @classmethod
    def from_query(
        cls,
        name: str,
        query: Query,
        vary: Optional[Mapping[str, ParamSpec]] = None,
    ) -> "QueryTemplate":
        """Wrap an existing conjunctive query as a template.

        *vary* maps a predicate's dotted path to the spec that draws its
        operand; every other predicate keeps its operand as a ``const``
        parameter (consuming no RNG), so varying one operand never
        perturbs the rest of the query.
        """
        vary = dict(vary or {})
        if not query.is_conjunctive:
            raise WorkloadError(
                f"template {name!r}: only conjunctive queries are "
                "templatable"
            )
        predicates = []
        specs = []
        for index, predicate in enumerate(query.predicates):
            dotted = str(predicate.path)
            param = f"p{index}:{dotted}"
            spec = vary.pop(dotted, None)
            if spec is None:
                spec = ParamSpec(param, kind=CONST, value=predicate.operand)
            else:
                spec = ParamSpec(
                    param,
                    kind=spec.kind,
                    low=spec.low,
                    high=spec.high,
                    choices=spec.choices,
                    value=spec.value,
                )
            specs.append(spec)
            predicates.append(
                PredicateTemplate(path=dotted, op=predicate.op, param=param)
            )
        if vary:
            raise WorkloadError(
                f"template {name!r}: vary names unknown predicate paths "
                f"{sorted(vary)}"
            )
        return cls(
            name=name,
            range_class=query.range_class,
            targets=tuple(str(t) for t in query.targets),
            predicates=tuple(predicates),
            params=tuple(specs),
        )
