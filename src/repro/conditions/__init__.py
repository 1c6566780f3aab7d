"""Conditional degraded answers and incremental re-certification.

The paper's 3VL collapses every source of uncertainty — a NULL
attribute, a down site, an unchecked isomeric copy, a schema-flux
epoch — into one undifferentiated *maybe* bucket, so a degraded answer
can never be repaired without a full re-execution.  This package
upgrades that to c-table-style conditional answers (Grahne,
arXiv:1304.0959): every maybe/uncertified row carries the *condition*
under which it holds, as a conjunction of machine-dischargeable atoms
evaluated in 3VL against the live federation state, and a
:class:`~repro.conditions.recertify.ReCertifier` turns recovery into
incremental, monotone *answer repair* — re-contacting only the sites
named in outstanding conditions, never re-running the full query and
never demoting a row.

Residual maybe rows are ranked by missingness mechanism (Bertossi,
arXiv:2604.06520): rows blocked only by genuine data nulls are
*sampling* missingness (no recovery will ever certify them), while
rows blocked by a down site, an unchecked copy or an open evolution
window are *systematic* (dischargeable once the federation heals).
"""

from repro.conditions.algebra import (
    And,
    Condition,
    FluxEpoch,
    NullAttr,
    Or,
    SiteDown,
    SystemState,
    UncheckedCopy,
    attach,
    condition_sites,
    mechanism,
    rank_mechanisms,
)
from repro.conditions.recertify import (
    CentralizedRepairState,
    LocalizedRepairState,
    ReCertifier,
    RepairError,
    RepairSummary,
)

__all__ = [
    "And",
    "CentralizedRepairState",
    "Condition",
    "FluxEpoch",
    "LocalizedRepairState",
    "NullAttr",
    "Or",
    "ReCertifier",
    "RepairError",
    "RepairSummary",
    "SiteDown",
    "SystemState",
    "UncheckedCopy",
    "attach",
    "condition_sites",
    "mechanism",
    "rank_mechanisms",
]
