"""Replica-aware failover of assistant checks, plus hedged dispatch.

The paper's redundancy premise — isomeric copies at multiple sites, any
of which can certify a maybe result — already shapes phase O: dispatch
fans a check out to *every* answerable copy, and certification ORs the
verdicts across copies.  What the fault layer lacked was route
awareness: a check is addressed to the copy's home site over the
``src -> dst`` component link, and when that one link is dead the check
used to be skipped even though the *site* (and therefore the copy) was
perfectly reachable through the global processing site, which holds the
replicated GOid mapping tables and receives every check report anyway.

This module supplies the routing half of the resilience layer:

* :func:`relay_route` — the global-site relay for a dead component
  link (breaker-aware, negotiated like any other link);
* :func:`pending_skips_of` / :func:`covered_by_verdicts` — the
  mapping-table consult that demotes a skipped check to "uncertified"
  only when *no* isomeric copy of the affected entity produced a
  definitive verdict (i.e. every copy was unreachable or indefinite).
  The same pair powers *answer repair*: skips that stay uncovered are
  carried in the report's repair state as ``UncheckedCopy`` condition
  atoms, and the :class:`~repro.conditions.recertify.ReCertifier`
  re-applies :func:`covered_by_verdicts` against its merged verdict
  index first — so a sibling copy's later verdict discharges the atom
  with zero messages to the dead site;
* :func:`plan_hedge` — hedged dispatch: when a link negotiation is
  slower than the policy's seeded hedge delay, race a duplicate of the
  in-flight request through the relay and take the faster route,
  cost-accounting the loser.

Everything is computed analytically from negotiation outcomes — no
wall-clock — so failover and hedging preserve byte-determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.core.certification import SATISFIED, VIOLATED, VerdictIndex
from repro.objectdb.ids import GOid
from repro.objectdb.local_query import CheckRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import DistributedSystem
    from repro.faults.injector import ExecutionContext, Negotiation

#: Hedge race outcomes.
DIRECT = "direct"
RELAY = "relay"


@dataclass(frozen=True)
class PendingSkip:
    """One (entity, predicate) check pair whose direct dispatch failed.

    Recorded when a check request could not reach its destination and no
    relay route existed; resolved after verdict collection, when the
    GOid mapping tells us whether any isomeric copy answered anyway.
    """

    src: str
    dst: str
    global_class: str
    goid: GOid
    predicate: object


def relay_route(
    ctx: "ExecutionContext", system: "DistributedSystem", dst: str
) -> Optional[str]:
    """The relay site for a dead ``* -> dst`` link, or None.

    Component sites ship their local results to the global processing
    site regardless, so the relay re-issues the request over the
    ``global -> dst`` link (negotiated and breaker-gated like any other
    link; the ladder is paid at most once per execution).
    """
    if dst == system.global_site:
        return None
    if ctx.reachable(system.global_site, dst):
        return system.global_site
    return None


def pending_skips_of(
    system: "DistributedSystem", src: str, request: CheckRequest
) -> List[PendingSkip]:
    """The (entity, predicate) pairs a failed *request* leaves uncovered."""
    g_cls = system.global_schema.global_class_of(
        request.db_name, request.class_name
    )
    if g_cls is None:
        return []
    skips: List[PendingSkip] = []
    for loid in request.loids:
        goid = system.catalog.goid_of(g_cls, loid)
        if goid is None:
            continue
        for predicate in request.predicates:
            skips.append(PendingSkip(
                src=src,
                dst=request.db_name,
                global_class=g_cls,
                goid=goid,
                predicate=predicate,
            ))
    return skips


def covered_by_verdicts(
    system: "DistributedSystem",
    verdicts: VerdictIndex,
    skip: PendingSkip,
) -> bool:
    """Whether some isomeric copy settled the skipped pair anyway.

    Certification ORs verdicts over every copy of an entity, so a
    definitive (satisfied/violated) verdict from *any* live copy makes
    the lost check redundant: the pair is certified exactly as a
    fault-free run would certify it (copies are consistent).  Only pairs
    with no definitive verdict from any copy demote the row.
    """
    table = system.catalog.table(skip.global_class)
    placements = table.loids_of(skip.goid)
    for db_name in sorted(placements):
        verdict = verdicts.get(placements[db_name], skip.predicate)
        if verdict in (SATISFIED, VIOLATED):
            return True
    return False


@dataclass(frozen=True)
class HedgeDecision:
    """The analytic outcome of racing a slow direct link against the
    relay route."""

    src: str
    dst: str
    via: str
    delay_s: float
    direct_wait_s: float
    relay_wait_s: float  # includes the hedge delay; inf when relay dead
    winner: str  # DIRECT or RELAY

    @property
    def relay_won(self) -> bool:
        return self.winner == RELAY


def plan_hedge(
    ctx: "ExecutionContext",
    system: "DistributedSystem",
    src: str,
    dst: str,
    negotiation: "Negotiation",
) -> Optional[HedgeDecision]:
    """Decide the hedge race for one link, or None when no hedge fires.

    A hedge fires when the policy sets ``hedge_delay_s``, the direct
    negotiation eventually succeeds but only after a fault wait longer
    than the (seeded, jittered) effective delay.  The duplicate request
    goes through the global-site relay; whichever route completes first
    wins, and the loser's request message is still paid for.
    """
    if not negotiation.ok or not negotiation.failures:
        return None  # dead links fail over instead; clean ones never wait
    delay = ctx.hedge_delay(src, dst)
    if delay is None or negotiation.wait_s <= delay:
        return None
    if src == system.global_site or dst == system.global_site:
        return None
    relay = ctx.contact(system.global_site, dst)
    if relay.ok:
        relay_wait = delay + relay.wait_s
        winner = RELAY if relay_wait < negotiation.wait_s else DIRECT
    else:
        relay_wait = float("inf")
        winner = DIRECT
    return HedgeDecision(
        src=src,
        dst=dst,
        via=system.global_site,
        delay_s=delay,
        direct_wait_s=negotiation.wait_s,
        relay_wait_s=relay_wait,
        winner=winner,
    )
