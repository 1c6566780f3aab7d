"""Adaptive planning: constraint pruning + trace-fed cost feedback.

The planner layer gives the engine two optional, answer-preserving
inputs (selected by ``ExecutionOptions.planner``):

``constraints``
    A per-site :class:`~repro.planner.constraints.ConstraintCatalog`
    (class presence, attribute coverage, value ranges) that the
    localized strategies consult to prune whole site blocks and skip
    assistant checks that provably cannot change the answer.

``feedback``
    A cross-execution :class:`~repro.planner.feedback.PlannerFeedback`
    store (observed negotiation stalls and span queue delays) that
    replaces the static cost-model assumptions in AUTO's
    CA/BL/PL prediction with measured conditions.

``full`` enables both; ``static`` (the default) disables both and is
byte-identical to the pre-planner behavior.  The soundness contract —
every planner mode returns the same answer as ``static`` — is enforced
by the difftest oracle's ``planner`` invariant.
"""

from repro.planner.constraints import AttributeStats, ConstraintCatalog
from repro.planner.feedback import PlannerFeedback, SiteObservation

#: Valid values of ``ExecutionOptions.planner``.
PLANNER_MODES = ("static", "feedback", "constraints", "full")


def uses_constraints(mode: str) -> bool:
    """Whether *mode* enables constraint-catalog pruning."""
    return mode in ("constraints", "full")


def uses_feedback(mode: str) -> bool:
    """Whether *mode* enables the trace-fed cost feedback."""
    return mode in ("feedback", "full")


__all__ = [
    "AttributeStats",
    "ConstraintCatalog",
    "PlannerFeedback",
    "SiteObservation",
    "PLANNER_MODES",
    "uses_constraints",
    "uses_feedback",
]
