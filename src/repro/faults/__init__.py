"""Fault tolerance: deterministic fault injection + execution policies.

The federation's answer model already embraces missing *data* (certain
vs maybe results); this package extends the same philosophy to missing
*sites*: a component database that cannot answer is just another
missingness mechanism, and the strategies degrade to principled partial
answers instead of crashing.

* :mod:`repro.faults.plan` — :class:`FaultPlan`: seeded site outage
  windows and link latency/loss;
* :mod:`repro.faults.policy` — :class:`ExecutionPolicy`: timeout,
  retries, exponential backoff with seeded jitter, fail-fast vs degrade;
* :mod:`repro.faults.injector` — :class:`FaultInjector` /
  :class:`ExecutionContext`: the per-execution deterministic outcome of
  every contact attempt, plus availability bookkeeping; the context is
  also what carries an execution's options to its strategy.

See ``docs/FAULTS.md`` for the full schema and semantics.
"""

from repro.faults.injector import (
    Attempt,
    ExecutionContext,
    FaultInjector,
    Negotiation,
)
from repro.faults.plan import EMPTY_PLAN, FaultPlan, LinkFault, OutageWindow
from repro.faults.policy import (
    DEGRADE,
    FAIL_FAST,
    PATIENT,
    POLICIES,
    ExecutionPolicy,
    parse_policy_spec,
    resolve_policy,
)

__all__ = [
    "Attempt",
    "DEGRADE",
    "EMPTY_PLAN",
    "ExecutionContext",
    "ExecutionPolicy",
    "FAIL_FAST",
    "FaultInjector",
    "FaultPlan",
    "LinkFault",
    "Negotiation",
    "OutageWindow",
    "PATIENT",
    "POLICIES",
    "parse_policy_spec",
    "resolve_policy",
]
