"""Resilient dispatch: replica failover of assistant checks.

The fault layer (:mod:`repro.faults`) injects deterministic outages and
link degradation; this package makes the strategies *route around* them
instead of merely degrading: :mod:`repro.resilience.failover` supplies
global-site relay routing for dead component links and the
mapping-table-backed demotion decisions (a skipped check demotes its
row only when *every* isomeric copy is unreachable or indefinite).

See the "Failover" section of ``docs/FAULTS.md``.
"""

from repro.resilience.failover import (
    PendingSkip,
    covered_by_verdicts,
    pending_skips_of,
    relay_route,
)

__all__ = [
    "PendingSkip",
    "covered_by_verdicts",
    "pending_skips_of",
    "relay_route",
]
