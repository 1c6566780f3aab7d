"""Shared test helpers (importable without conftest name clashes)."""

from __future__ import annotations

import random

from repro.core.options import ExecutionOptions
from repro.faults.injector import ExecutionContext
from repro.workload.generator import generate
from repro.workload.params import sample_params


def make_workload(seed: int, scale: float = 0.03, **kwargs):
    """One generated workload, deterministic in *seed*."""
    rng = random.Random(seed)
    params = sample_params(rng, **kwargs)
    params.seed = seed
    return generate(params, scale=scale)


def context(**options) -> ExecutionContext:
    """The execution context of *options* (no options: fault-free)."""
    return ExecutionContext(ExecutionOptions(**options))
