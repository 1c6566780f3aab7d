"""Registry of query-execution strategies.

One queryable object names every strategy: each is registered with
metadata (short name, phase order, whether it consults signature files,
whether it is one of the paper's three algorithms), so the CLI,
benchmarks and docs can enumerate strategies without hard-coding their
names, and :func:`resolve` instantiates one by short name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.strategies.adaptive import AdaptiveStrategy
from repro.core.strategies.base import Strategy
from repro.core.strategies.centralized import CentralizedStrategy
from repro.core.strategies.localized import (
    BasicLocalizedStrategy,
    ParallelLocalizedStrategy,
    SignatureBasicLocalizedStrategy,
    SignatureParallelLocalizedStrategy,
)


@dataclass(frozen=True)
class StrategyInfo:
    """Metadata describing one registered strategy."""

    name: str
    factory: Callable[[], Strategy]
    #: Phase ordering, e.g. ``"O>I>P"`` for CA or ``"O||P>I"`` for PL.
    phase_order: str
    uses_signatures: bool = False
    #: True for the paper's three presented algorithms (CA, BL, PL).
    paper: bool = False
    summary: str = ""

    def create(self) -> Strategy:
        return self.factory()


class StrategyRegistry:
    """Name -> :class:`StrategyInfo` mapping with ordered listing."""

    def __init__(self) -> None:
        self._infos: Dict[str, StrategyInfo] = {}

    def register(self, info: StrategyInfo) -> StrategyInfo:
        key = info.name.upper()
        if key in self._infos:
            raise ValueError(f"strategy {info.name!r} already registered")
        self._infos[key] = info
        return info

    def __contains__(self, name: str) -> bool:
        return name.upper() in self._infos

    def __iter__(self) -> Iterator[StrategyInfo]:
        return iter(self._infos.values())

    def get(self, name: str) -> StrategyInfo:
        """Look up a strategy's metadata by short name (case-insensitive)."""
        try:
            return self._infos[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown strategy {name!r}; choose from {self.names()}"
            ) from None

    def create(self, name: str) -> Strategy:
        """Instantiate the strategy registered under *name*."""
        return self.get(name).create()

    def names(self, paper_only: bool = False) -> List[str]:
        """Registered short names, in registration order."""
        return [
            info.name for info in self._infos.values()
            if info.paper or not paper_only
        ]

    def infos(self, paper_only: bool = False) -> Tuple[StrategyInfo, ...]:
        return tuple(
            info for info in self._infos.values()
            if info.paper or not paper_only
        )

    def table(self) -> str:
        """A text listing of the registered strategies (for the CLI)."""
        width = max(len(info.name) for info in self._infos.values())
        order_width = max(len(info.phase_order) for info in self._infos.values())
        lines = []
        for info in self._infos.values():
            flags = []
            if info.paper:
                flags.append("paper")
            if info.uses_signatures:
                flags.append("signatures")
            lines.append(
                f"{info.name.ljust(width)}  {info.phase_order.ljust(order_width)}"
                f"  {info.summary}" + (f"  [{', '.join(flags)}]" if flags else "")
            )
        return "\n".join(lines)


def _default_registry() -> StrategyRegistry:
    registry = StrategyRegistry()
    registry.register(StrategyInfo(
        name="CA",
        factory=CentralizedStrategy,
        phase_order="O>I>P",
        paper=True,
        summary="centralized: ship extents, outerjoin, evaluate globally",
    ))
    registry.register(StrategyInfo(
        name="BL",
        factory=BasicLocalizedStrategy,
        phase_order="P>O>I",
        paper=True,
        summary="basic localized: evaluate locally, then check assistants",
    ))
    registry.register(StrategyInfo(
        name="PL",
        factory=ParallelLocalizedStrategy,
        phase_order="O||P>I",
        paper=True,
        summary="parallel localized: overlap assistant checks with evaluation",
    ))
    registry.register(StrategyInfo(
        name="BL-S",
        factory=SignatureBasicLocalizedStrategy,
        phase_order="P>O>I",
        uses_signatures=True,
        summary="BL with signature-file pre-filtering of checks",
    ))
    registry.register(StrategyInfo(
        name="PL-S",
        factory=SignatureParallelLocalizedStrategy,
        phase_order="O||P>I",
        uses_signatures=True,
        summary="PL with signature-file pre-filtering of checks",
    ))
    registry.register(StrategyInfo(
        name="AUTO",
        factory=AdaptiveStrategy,
        phase_order="rule-chosen",
        summary="adaptive: picks CA or BL by where the predicates live",
    ))
    return registry


#: The process-wide default registry (CA, BL, PL, BL-S, PL-S, AUTO).
DEFAULT_REGISTRY = _default_registry()


def resolve(name: str, registry: Optional[StrategyRegistry] = None) -> Strategy:
    """Instantiate a strategy by short name from *registry* (default:
    :data:`DEFAULT_REGISTRY`)."""
    return (registry or DEFAULT_REGISTRY).create(name)
