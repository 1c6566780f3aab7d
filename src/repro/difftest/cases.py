"""Fuzz cases: a serializable recipe for one adversarial federation.

A :class:`FuzzCase` does not store the federation — it stores the few
numbers that deterministically *re-generate* it (parameter-sampling
seed, scale, knobs).  That keeps committed regression cases tiny and
diff-friendly, and guarantees a replayed case is byte-identical to the
one the fuzzer found.
"""

from __future__ import annotations

import dataclasses
import json
import random
import typing
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.query import Query
from repro.core.system import DistributedSystem
from repro.errors import ReproError
from repro.evolution.plan import EvolutionPlan
from repro.faults.plan import FaultPlan
from repro.workload.generator import generate
from repro.workload.params import sample_params


@dataclass(frozen=True)
class BuiltCase:
    """A materialized fuzz case, ready to execute."""

    system: DistributedSystem
    query: Query
    fault_plan: Optional[FaultPlan] = None
    #: Resolved, query-safe evolution plan (None when the case has no
    #: ``evolve`` kinds or none of them had a safe target).
    evolution: Optional[EvolutionPlan] = None


@dataclass(frozen=True)
class FuzzCase:
    """One differential-test case (the generator recipe, not the data).

    Attributes:
        seed: drives both parameter sampling and federation generation.
        n_dbs: component databases.
        n_classes_min / n_classes_max: sampled class-chain length range.
        scale: object-count multiplier (Table 2's N_o times this).
        local_pred_attr_bias: skews how many predicates are locally
            evaluable (None keeps Table 2's uniform draw).
        multi_valued_targets: project the multi-valued ``t1`` attribute
            (exercises MultiValue union semantics).
        fault_spec: compact :meth:`FaultPlan.from_spec` string; empty
            means the fault suite is skipped for this case.
        fault_seed: seed for the plan's loss/jitter draws.
        mutate: run the monotonicity suite (register an extra assistant
            copy and re-execute).
        evolve: comma-joined evolution kinds (``leave``, ``join``,
            ``add``, ``drop``, ``rename``) resolved to concrete,
            query-safe targets by :func:`repro.evolution.seeding
            .safe_plan` at build time; empty skips the evolution suite.
        label: stable human-readable identifier.
    """

    seed: int
    n_dbs: int = 3
    n_classes_min: int = 1
    n_classes_max: int = 3
    scale: float = 0.02
    local_pred_attr_bias: Optional[float] = None
    multi_valued_targets: bool = False
    fault_spec: str = ""
    fault_seed: int = 0
    mutate: bool = False
    evolve: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_dbs < 1:
            raise ReproError("fuzz case needs at least one database")
        if not 1 <= self.n_classes_min <= self.n_classes_max:
            raise ReproError("bad class-count range")
        if self.scale <= 0:
            raise ReproError("scale must be positive")

    # --- generation --------------------------------------------------------

    def build(self) -> BuiltCase:
        """Regenerate the federation + query this case describes."""
        rng = random.Random(f"difftest:{self.seed}:params")
        params = sample_params(
            rng,
            n_dbs=self.n_dbs,
            n_classes_range=(self.n_classes_min, self.n_classes_max),
            local_pred_attr_bias=self.local_pred_attr_bias,
        )
        params.seed = self.seed
        workload = generate(
            params,
            seed=self.seed,
            scale=self.scale,
            multi_valued_targets=self.multi_valued_targets,
        )
        plan = None
        if self.fault_spec:
            plan = FaultPlan.from_spec(self.fault_spec, seed=self.fault_seed)
        evolution = None
        if self.evolve:
            from repro.evolution.seeding import safe_plan

            evolution = safe_plan(
                workload.system,
                workload.query,
                [k.strip() for k in self.evolve.split(",") if k.strip()],
                seed=self.seed,
            )
            if not evolution.active:
                evolution = None  # no kind had a safe target here
        return BuiltCase(
            system=workload.system,
            query=workload.query,
            fault_plan=plan,
            evolution=evolution,
        )

    # --- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        raw = dataclasses.asdict(self)
        return {k: v for k, v in raw.items() if v != FIELD_DEFAULTS.get(k)}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "FuzzCase":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ReproError(
                f"fuzz case has unknown fields {sorted(unknown)}"
            )
        if "seed" not in raw:
            raise ReproError("fuzz case needs a seed")
        hints = typing.get_type_hints(cls)
        for name, value in raw.items():
            hint = hints[name]
            if not _matches(value, hint):
                raise ReproError(
                    f"fuzz case field {name!r} must be "
                    f"{getattr(hint, '__name__', hint)}, got {value!r}"
                )
        return cls(**raw)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(f"fuzz case is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ReproError("fuzz case JSON must be an object")
        return cls.from_dict(raw)

    def describe(self) -> str:
        """One stable line summarizing the recipe (for run logs)."""
        parts = [
            f"seed={self.seed}",
            f"dbs={self.n_dbs}",
            f"classes={self.n_classes_min}..{self.n_classes_max}",
            f"scale={self.scale}",
        ]
        if self.local_pred_attr_bias is not None:
            parts.append(f"bias={self.local_pred_attr_bias}")
        if self.multi_valued_targets:
            parts.append("multi")
        if self.fault_spec:
            parts.append(f"faults={self.fault_spec!r}")
        if self.mutate:
            parts.append("mutate")
        if self.evolve:
            parts.append(f"evolve={self.evolve}")
        return " ".join(parts)


def _matches(value: object, hint) -> bool:
    """Whether a JSON *value* fits a field annotated *hint*: ``bool`` is
    no ``int`` here, an ``int`` is a ``float``, ``Optional`` admits None."""
    if typing.get_origin(hint) is typing.Union:
        return any(_matches(value, arg) for arg in typing.get_args(hint))
    if isinstance(value, bool) or hint is bool:
        return hint is bool and isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


#: Default value per field — to_dict() omits them for compact case files.
FIELD_DEFAULTS: Dict[str, object] = {
    f.name: f.default
    for f in dataclasses.fields(FuzzCase)
    if f.default is not dataclasses.MISSING
}
