"""Tests for the strategy registry."""

import pytest

from repro.core.strategies import (
    DEFAULT_REGISTRY,
    StrategyInfo,
    StrategyRegistry,
    resolve,
)
from repro.core.strategies.adaptive import AdaptiveStrategy
from repro.core.strategies.centralized import CentralizedStrategy
from repro.core.strategies.localized import ParallelLocalizedStrategy


class TestDefaultRegistry:
    def test_lists_all_strategies(self):
        assert DEFAULT_REGISTRY.names() == [
            "CA", "BL", "PL", "BL-S", "PL-S", "AUTO",
        ]
        assert DEFAULT_REGISTRY.names(paper_only=True) == ["CA", "BL", "PL"]

    def test_metadata(self):
        info = DEFAULT_REGISTRY.get("pl")
        assert info.name == "PL"
        assert info.phase_order == "O||P>I"
        assert info.paper and not info.uses_signatures
        assert DEFAULT_REGISTRY.get("PL-S").uses_signatures
        assert not DEFAULT_REGISTRY.get("AUTO").paper

    def test_create_instantiates(self):
        assert isinstance(DEFAULT_REGISTRY.create("CA"), CentralizedStrategy)
        assert isinstance(DEFAULT_REGISTRY.create("auto"), AdaptiveStrategy)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            DEFAULT_REGISTRY.get("nope")

    def test_table_lists_every_name(self):
        table = DEFAULT_REGISTRY.table()
        for name in DEFAULT_REGISTRY.names():
            assert name in table

    def test_signature_factories_set_flag(self):
        for info in DEFAULT_REGISTRY:
            if info.uses_signatures:
                assert info.create().use_signatures


class TestCustomRegistry:
    def test_register_and_resolve(self):
        registry = StrategyRegistry()
        registry.register(StrategyInfo(
            name="X", factory=ParallelLocalizedStrategy, phase_order="O||P>I"
        ))
        assert "x" in registry
        assert isinstance(resolve("X", registry), ParallelLocalizedStrategy)

    def test_duplicate_registration_rejected(self):
        registry = StrategyRegistry()
        info = StrategyInfo(
            name="X", factory=ParallelLocalizedStrategy, phase_order="-"
        )
        registry.register(info)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(info)


