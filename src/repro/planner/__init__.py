"""Adaptive planning: constraint pruning.

The planner layer gives the engine one optional, answer-preserving
input, selected by ``ExecutionOptions.planner``:

``constraints``
    A per-site :class:`~repro.planner.constraints.ConstraintCatalog`
    (class presence, attribute coverage, value ranges) that the
    localized strategies consult to prune whole site blocks and skip
    assistant checks that provably cannot change the answer.

``static`` (the default) disables it and is byte-identical to the
pre-planner behavior.  The soundness contract — every planner mode
returns the same answer as ``static`` — is enforced by the difftest
oracle's ``planner`` invariant.
"""

from repro.core.options import PLANNER_MODES
from repro.planner.constraints import AttributeStats, ConstraintCatalog


def uses_constraints(mode: str) -> bool:
    """Whether *mode* enables constraint-catalog pruning."""
    return mode == "constraints"


__all__ = [
    "AttributeStats",
    "ConstraintCatalog",
    "PLANNER_MODES",
    "uses_constraints",
]
