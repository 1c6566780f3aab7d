"""Per-caller sessions over one shared federation.

An :class:`EngineSession` is a lightweight handle returned by
:meth:`~repro.core.engine.GlobalQueryEngine.session`.  Many sessions
share one engine — and therefore one federation: the same component
databases, integrated schema, replicated mapping catalog, signature
catalog and decomposition/mapping caches.  What a session owns is the
*per-caller* configuration and accounting:

* its own default strategy and :class:`~repro.core.options
  .ExecutionOptions` (including its own fault seed);
* per-session cache accounting — the hit/miss traffic its executions
  generated (session deltas always sum to the federation-wide
  :class:`~repro.integration.mapping.CacheStats` delta) and how many of
  those hits were *shared* (served from cache entries another session
  paid the miss for — the contention/benefit signal of the shared
  caches);
* an execution counter.

Sessions are cooperative, not thread-backed: the traffic engine
interleaves thousands of session executions deterministically on one
simulated clock.  All per-execution fault/failover state lives in
an :class:`~repro.faults.injector.ExecutionContext` created per call,
so interleaved executions can never bleed into each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

from repro.core.options import ExecutionOptions
from repro.core.query import Query
from repro.core.report import ExecutionReport
from repro.integration.mapping import CacheStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import GlobalQueryEngine
    from repro.core.strategies import Strategy


class EngineSession:
    """One caller's handle over a shared :class:`GlobalQueryEngine`."""

    def __init__(
        self,
        engine: "GlobalQueryEngine",
        name: str = "main",
        strategy: Union[str, "Strategy", None] = None,
        options: Optional[ExecutionOptions] = None,
        fault_seed: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self._strategy = (
            None if strategy is None else engine._resolve(strategy)
        )
        if fault_seed is not None:
            options = (
                options if options is not None else engine.options
            ).with_(fault_seed=fault_seed)
        #: Session-default options; ``None`` inherits the engine's
        #: (live — engine-wide reconfiguration reaches such sessions).
        self._options = options
        #: Cache traffic this session's executions generated.
        self.cache = CacheStats()
        self.executions = 0

    # --- configuration -----------------------------------------------------

    @property
    def system(self):
        return self.engine.system

    @property
    def options(self) -> ExecutionOptions:
        return (
            self._options if self._options is not None else self.engine.options
        )

    @options.setter
    def options(self, value: Optional[ExecutionOptions]) -> None:
        self._options = value

    @property
    def default_strategy(self) -> "Strategy":
        return (
            self._strategy
            if self._strategy is not None
            else self.engine.default_strategy
        )

    @property
    def shared_hits(self) -> int:
        """Hits on cache entries another session paid the miss for."""
        return self.engine.system.shared_hits_of(self.name)

    def note_execution(self, hits: int, misses: int) -> None:
        """Engine callback: attribute one execution's cache traffic."""
        self.cache.hits += hits
        self.cache.misses += misses
        self.executions += 1

    # --- execution ---------------------------------------------------------

    def parse(self, text: str) -> Query:
        return self.engine.parse(text)

    def execute(
        self,
        query: Union[Query, str],
        strategy: Union[str, "Strategy", None] = None,
        options: Optional[ExecutionOptions] = None,
    ) -> ExecutionReport:
        """Run *query* once with the session's defaults.

        *strategy* and *options* override the session defaults for this
        execution only; the engine-wide defaults are never touched.
        """
        effective = options if options is not None else self.options
        if strategy is None and self._strategy is not None:
            chosen: Union[str, "Strategy", None] = self._strategy
        else:
            chosen = strategy
        return self.engine._run(query, chosen, effective, self)

    def recertify(
        self,
        report: ExecutionReport,
        options: Optional[ExecutionOptions] = None,
    ) -> ExecutionReport:
        """Incrementally repair a degraded *report* (see
        :meth:`GlobalQueryEngine.recertify`).  *options* describes the
        federation's health during the repair; the default (no fault
        plan) models a fully healed federation."""
        return self.engine.recertify(report, options=options)

    def explain(
        self,
        query: Union[Query, str, ExecutionReport],
        strategy: Union[str, "Strategy", None] = None,
        width: int = 48,
        options: Optional[ExecutionOptions] = None,
    ) -> str:
        """Render an execution's schedule as text (see engine.explain)."""
        if isinstance(query, ExecutionReport):
            return query.explain(width=width)
        return self.execute(query, strategy, options=options).explain(
            width=width
        )

    def compare(
        self,
        query: Union[Query, str],
        strategies: Optional[Sequence[Union[str, "Strategy"]]] = None,
        check_agreement: bool = True,
        options: Optional[ExecutionOptions] = None,
    ) -> Dict[str, ExecutionReport]:
        """Execute *query* under several strategies (default: CA, BL, PL).

        Same semantics as :meth:`GlobalQueryEngine.compare`, but run
        through this session (its options, its cache accounting).
        """
        engine = self.engine
        if isinstance(query, str):
            query = engine.parse(query)
        chosen = (
            [info.create() for info in engine.registry.infos(paper_only=True)]
            if strategies is None
            else [engine._resolve(s) for s in strategies]
        )
        outcomes: Dict[str, ExecutionReport] = {}
        for strategy in chosen:
            outcomes[strategy.name] = self.execute(
                query, strategy, options=options
            )
        if check_agreement and len(outcomes) > 1:
            engine._check_agreement(outcomes)
        return outcomes

    def __repr__(self) -> str:
        return (
            f"<EngineSession {self.name!r} strategy="
            f"{self.default_strategy.name} executions={self.executions}>"
        )
