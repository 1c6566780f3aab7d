"""Discrete-event simulation substrate.

The paper's cost model (:mod:`repro.sim.costs`), activity-graph
scheduling over simulated sites (:mod:`repro.sim.taskgraph`) and the
execution metrics bundle (:mod:`repro.sim.metrics`).
"""

from repro.sim.costs import MICROSECOND, CostModel, PAPER_COSTS, table1_rows
from repro.sim.metrics import ExecutionMetrics, WorkCounters
from repro.sim.taskgraph import (
    FederationSim,
    Node,
    PHASE_I,
    PHASE_O,
    PHASE_P,
    PHASE_SCAN,
    PHASE_XFER,
    SimOutcome,
)

__all__ = [
    "CostModel",
    "ExecutionMetrics",
    "FederationSim",
    "MICROSECOND",
    "Node",
    "PAPER_COSTS",
    "PHASE_I",
    "PHASE_O",
    "PHASE_P",
    "PHASE_SCAN",
    "PHASE_XFER",
    "SimOutcome",
    "WorkCounters",
    "table1_rows",
]
