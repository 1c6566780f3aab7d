"""Resilient dispatch: site health, circuit breakers, replica failover.

The fault layer (:mod:`repro.faults`) injects deterministic outages and
link degradation; this package makes the strategies *route around* them
instead of merely degrading:

* :mod:`repro.resilience.health` — :class:`SiteHealthRegistry`: per-site
  consecutive-failure counts and latency EWMAs drive a deterministic
  circuit breaker (closed -> open after N failures -> half-open probe
  after a seeded cooldown measured in suppressed contact attempts);
* :mod:`repro.resilience.failover` — global-site relay routing for dead
  component links, mapping-table-backed demotion decisions (a skipped
  check demotes its row only when *every* isomeric copy is unreachable
  or indefinite), and hedged dispatch racing.

See the "Failover & health" section of ``docs/FAULTS.md``.
"""

from repro.resilience.failover import (
    DIRECT,
    RELAY,
    HedgeDecision,
    PendingSkip,
    covered_by_verdicts,
    pending_skips_of,
    plan_hedge,
    relay_route,
)
from repro.resilience.health import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    SiteHealth,
    SiteHealthRegistry,
)

__all__ = [
    "CLOSED",
    "DIRECT",
    "HALF_OPEN",
    "OPEN",
    "RELAY",
    "BreakerPolicy",
    "HedgeDecision",
    "PendingSkip",
    "SiteHealth",
    "SiteHealthRegistry",
    "covered_by_verdicts",
    "pending_skips_of",
    "plan_hedge",
    "relay_route",
]
