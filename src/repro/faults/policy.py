"""Execution policies: how a strategy behaves when a site won't answer.

An :class:`ExecutionPolicy` bundles the fault-handling knobs one
execution runs under:

* ``timeout_s`` — how long the requester waits for a response before
  declaring one attempt dead;
* ``max_retries`` — how many times a dead attempt is retried;
* ``backoff_base_s`` / ``backoff_multiplier`` / ``jitter`` — the
  exponential backoff between attempts (jitter is a seeded fraction, so
  runs stay deterministic);
* ``fail_fast`` — raise :class:`~repro.errors.UnavailableError` instead
  of degrading to a partial answer when a site stays unreachable;
* ``deadline_s`` — optional hard cap on the cumulative fault wait of one
  execution (exceeding it raises
  :class:`~repro.errors.ExecutionTimeout` even in degrade mode).

The named presets (``DEGRADE``, ``FAIL_FAST``, ``PATIENT``) are what the
CLI's ``--policy`` flag selects; inline overrides like
``degrade:timeout=0.5,retries=3`` are parsed by
:func:`parse_policy_spec` and validated by
:meth:`ExecutionPolicy.__post_init__`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro.errors import FaultPlanError
from repro.faults.plan import require_finite


@dataclass(frozen=True)
class ExecutionPolicy:
    """Timeout / retry / degrade behavior of one query execution."""

    name: str = "degrade"
    timeout_s: float = 0.25
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    jitter: float = 0.5
    fail_fast: bool = False
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        for what, value in (
            ("policy timeout", self.timeout_s),
            ("backoff", self.backoff_base_s),
            ("backoff multiplier", self.backoff_multiplier),
            ("jitter", self.jitter),
            ("deadline", self.deadline_s),
        ):
            if value is not None:
                require_finite(what, value)
        if self.timeout_s <= 0:
            raise FaultPlanError(f"policy timeout {self.timeout_s} <= 0")
        if self.max_retries < 0:
            raise FaultPlanError(f"negative max_retries {self.max_retries}")
        if self.backoff_base_s < 0 or self.backoff_multiplier < 1.0:
            raise FaultPlanError("backoff must be non-negative and growing")
        if not 0.0 <= self.jitter <= 1.0:
            raise FaultPlanError(f"jitter {self.jitter} outside [0, 1]")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise FaultPlanError(f"deadline {self.deadline_s} <= 0")

    def backoff_s(self, attempt: int, u: float) -> float:
        """Backoff after the *attempt*-th failure (0-based); ``u`` in
        [0, 1) is the seeded jitter draw."""
        base = self.backoff_base_s * self.backoff_multiplier ** attempt
        return base * (1.0 + self.jitter * u)


#: Skip unreachable sites and return an annotated partial answer.
DEGRADE = ExecutionPolicy(name="degrade")

#: Raise UnavailableError on the first site that exhausts its retries.
FAIL_FAST = ExecutionPolicy(name="fail-fast", fail_fast=True, max_retries=0)

#: Wait out transient outages: longer timeout, more retries.
PATIENT = ExecutionPolicy(
    name="patient", timeout_s=0.5, max_retries=5, backoff_base_s=0.1
)

POLICIES: Dict[str, ExecutionPolicy] = {
    policy.name: policy for policy in (DEGRADE, FAIL_FAST, PATIENT)
}


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


#: Spec key -> (ExecutionPolicy field, converter).
_SPEC_FIELDS: Dict[str, Tuple[str, Callable[[str], object]]] = {
    "timeout": ("timeout_s", float),
    "retries": ("max_retries", int),
    "backoff": ("backoff_base_s", float),
    "multiplier": ("backoff_multiplier", float),
    "jitter": ("jitter", float),
    "fail_fast": ("fail_fast", _parse_bool),
    "deadline": ("deadline_s", float),
}


def parse_policy_spec(spec: str) -> ExecutionPolicy:
    """Parse ``"<preset>[:key=value[,key=value...]]"`` into a policy.

    The preset names a base policy from :data:`POLICIES`; each override
    maps onto an :class:`ExecutionPolicy` field (``timeout``,
    ``retries``, ``backoff``, ``multiplier``, ``jitter``, ``fail_fast``,
    ``deadline``).  The rebuilt dataclass re-runs
    ``__post_init__``, so out-of-range overrides fail validation with
    the same errors a programmatic construction would raise.
    """
    name, _, rest = spec.partition(":")
    base = POLICIES.get(name)
    if base is None:
        raise FaultPlanError(
            f"unknown policy {name!r}; choose from {sorted(POLICIES)}"
        )
    if not rest:
        return base
    overrides: Dict[str, object] = {}
    for part in rest.split(","):
        key, eq, raw = part.partition("=")
        key = key.strip()
        if not eq or not key or not raw.strip():
            raise FaultPlanError(
                f"malformed policy override {part!r} in {spec!r}; "
                "expected key=value"
            )
        try:
            field_name, convert = _SPEC_FIELDS[key]
        except KeyError:
            raise FaultPlanError(
                f"unknown policy override {key!r} in {spec!r}; "
                f"choose from {sorted(_SPEC_FIELDS)}"
            ) from None
        try:
            overrides[field_name] = convert(raw.strip())
        except ValueError:
            raise FaultPlanError(
                f"bad value {raw.strip()!r} for policy override {key!r} "
                f"in {spec!r}"
            ) from None
    # replace() re-runs __post_init__, so validation errors surface here.
    return dataclasses.replace(base, name=spec, **overrides)


def resolve_policy(
    policy: Union[str, ExecutionPolicy, None]
) -> ExecutionPolicy:
    """Accept a policy object, a preset name or inline spec
    (``"degrade:timeout=0.5,retries=3"``), or None
    (-> DEGRADE)."""
    if policy is None:
        return DEGRADE
    if isinstance(policy, ExecutionPolicy):
        return policy
    return parse_policy_spec(policy)
