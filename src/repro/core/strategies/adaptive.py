"""Adaptive strategy selection: pick by where the predicates live.

The paper compares CA/BL/PL offline; a deployed federation would *pick*
one per query.  What decides between them is how much of the WHERE
clause each site can evaluate locally: a predicate a site's constituent
classes cannot evaluate is removed from that site's local query, turns
its roots into maybe results, and those need assistant checks.

:class:`AdaptiveStrategy` reads that off the decomposition the localized
strategies need anyway.  *kept* counts the distinct predicates each
site's local query keeps, summed over the sites; *total* is the number
of predicates times the number of sites.  When at most a third of the
pairs is local (``3 * kept <= total``), CA — which ships the extents and
evaluates once at the global site — is picked; otherwise BL, or BL-S
once the federation has built its signature catalog.  CA is never picked
when the fault plan makes a site unreachable: centralized collection
stalls on the retry ladder of every dead export, while the localized
strategies degrade that site to a partial answer and move on.

The pick reads only the schemas, the query and the execution's own fault
plan, so it never depends on what ran before it.  It can never return a
wrong *answer*: all strategies, in every planner mode, are
answer-equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.query import Query
from repro.core.strategies.base import Strategy, StrategyResult
from repro.core.system import DistributedSystem
from repro.faults.injector import ExecutionContext


@dataclass(frozen=True)
class Prediction:
    """What one :meth:`AdaptiveStrategy.predict` call concluded.

    Attributes:
        choice: the strategy AUTO delegates to.
        kept: distinct predicates kept by the local queries, summed
            over the sites.
        total: predicates times sites (0 for a predicate-free query).
        unreachable: sites the fault plan makes unreachable at dispatch.
    """

    choice: str
    kept: int
    total: int
    unreachable: Tuple[str, ...] = ()


class AdaptiveStrategy(Strategy):
    """Pick CA or BL per query from its decomposition, then execute."""

    name = "AUTO"

    @staticmethod
    def _unreachable_sites(
        system: DistributedSystem, ctx: ExecutionContext
    ) -> Tuple[str, ...]:
        """Sites the fault plan makes unreachable at dispatch time.

        Read from the *plan* only (down at t=0, or a link from the
        global site whose composed loss makes delivery hopeless):
        probing via ``ctx.contact`` here would consume negotiation
        outcomes before the delegate runs and corrupt the execution's
        availability bookkeeping.
        """
        if not ctx.active:
            return ()
        down: List[str] = []
        for site in system.site_names:
            if ctx.plan.is_down(site, 0.0):
                down.append(site)
                continue
            _, loss = ctx.plan.link(system.global_site, site)
            if loss >= 0.99:
                down.append(site)
        return tuple(down)

    def predict(
        self,
        system: DistributedSystem,
        query: Query,
        ctx: ExecutionContext,
    ) -> Prediction:
        """The strategy this execution delegates to, and why."""
        decomposed = system.decompose(query)
        kept = sum(
            len({predicate for conjunction in local.where
                 for predicate in conjunction})
            for local in decomposed.local_queries.values()
        )
        total = len(query.all_predicates()) * len(system.databases)
        unreachable = self._unreachable_sites(system, ctx)
        if total and 3 * kept <= total and not unreachable:
            choice = "CA"
        else:
            choice = "BL" if system.signatures is None else "BL-S"
        return Prediction(choice, kept, total, unreachable)

    def execute(
        self,
        system: DistributedSystem,
        query: Query,
        ctx: ExecutionContext,
        resume=None,
    ) -> StrategyResult:
        from repro.core.strategies.registry import resolve
        from repro.obs.spans import TraceEvent

        if resume is not None:
            # The degraded run chose already; a repair resumes its pick.
            return resolve(resume.strategy).execute(system, query, ctx, resume)
        predicted = self.predict(system, query, ctx)
        # The delegate runs under the very same context, so every
        # option of this execution reaches it.
        result = resolve(predicted.choice).execute(system, query, ctx)
        result.metrics.strategy = f"AUTO->{predicted.choice}"
        result.metrics.add_event(TraceEvent.of(
            "auto.predict",
            choice=predicted.choice,
            planner=ctx.options.planner,
            unreachable=",".join(predicted.unreachable) or "none",
            share=f"{predicted.kept}/{predicted.total}",
        ))
        return result
