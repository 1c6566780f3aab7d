"""Per-execution options, collapsed into one immutable value object.

:class:`ExecutionOptions` is the one place an execution is configured:
an engine (and each :class:`~repro.core.session.EngineSession`) holds
one instance as its default, every execution's
:class:`~repro.faults.injector.ExecutionContext` carries the instance
it runs under to the strategy as ``ctx.options``, and callers derive
variants with :meth:`ExecutionOptions.with_`::

    opts = engine.options.with_(planner="constraints")
    engine.execute(query, "PL", options=opts)

The object is frozen, so a derived instance can never mutate the
engine-wide defaults — the property that makes concurrent sessions over
one shared federation safe.  Policies are normalized at construction
(string presets and inline specs become
:class:`~repro.faults.policy.ExecutionPolicy` objects), so two options
values compare equal iff they drive executions identically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

from repro.faults.plan import FaultPlan
from repro.faults.policy import ExecutionPolicy, resolve_policy

#: Valid values of :attr:`ExecutionOptions.planner`.
PLANNER_MODES = ("static", "constraints")


@dataclass(frozen=True)
class ExecutionOptions:
    """Everything configurable about one execution, besides the strategy.

    Attributes:
        fault_plan: deterministic outages/link degradation to inject;
            ``None`` (or an inactive plan) keeps the execution
            byte-identical to a fault-free run.
        policy: fault-handling policy — an
            :class:`~repro.faults.policy.ExecutionPolicy`, a preset name,
            or an inline spec like ``"degrade:timeout=0.5,retries=3"``.
        fault_seed: seed for loss draws and backoff jitter.
        planner: adaptive-planning mode — ``"static"`` (default; no
            pruning) or ``"constraints"`` (localized strategies prune
            sites/checks via the per-site constraint catalog).  Both
            are answer-identical — the soundness contract the difftest
            oracle's ``planner`` invariant enforces.
    """

    fault_plan: Optional[FaultPlan] = None
    policy: Union[str, ExecutionPolicy, None] = None
    fault_seed: int = 0
    planner: str = "static"

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", resolve_policy(self.policy))
        if self.planner not in PLANNER_MODES:
            raise TypeError(
                f"unknown planner mode {self.planner!r}; "
                f"choose from {list(PLANNER_MODES)}"
            )

    def with_(self, **overrides: object) -> "ExecutionOptions":
        """A copy with *overrides* applied; unknown names raise."""
        unknown = set(overrides) - set(OPTION_FIELDS)
        if unknown:
            raise TypeError(
                f"unknown execution option(s): {sorted(unknown)}; "
                f"choose from {list(OPTION_FIELDS)}"
            )
        return dataclasses.replace(self, **overrides)

    @property
    def faults_active(self) -> bool:
        """Whether this options value injects any faults at all."""
        return self.fault_plan is not None and self.fault_plan.active


#: Field names accepted by :meth:`ExecutionOptions.with_`.
OPTION_FIELDS = tuple(f.name for f in dataclasses.fields(ExecutionOptions))
