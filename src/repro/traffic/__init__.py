"""Deterministic concurrent traffic over one shared federation.

Layers (see ``docs/TRAFFIC.md``):

* :mod:`repro.traffic.seeds` — sha256 seed derivation: every stream of
  randomness is a pure function of the root seed;
* :mod:`repro.traffic.templates` — query templates with named,
  spec-drawn parameters;
* :mod:`repro.traffic.mix` — weighted template mixes
  (:func:`~repro.traffic.mix.default_mix` builds the standard
  point/scan/paper mix from a generated workload);
* :mod:`repro.traffic.driver` — the engine: N cooperative workers
  interleaved on one simulated clock behind an admission gate,
  with per-worker cache accounting and optional serial verification.
"""

from repro.traffic.driver import (
    AdmissionControl,
    QueryRecord,
    TrafficEngine,
    TrafficReport,
    WorkerSummary,
)
from repro.traffic.mix import DEFAULT_WEIGHTS, MixEntry, QueryMix, default_mix
from repro.traffic.seeds import derive_seed
from repro.traffic.templates import (
    BoundQuery,
    ParamSpec,
    PredicateTemplate,
    QueryTemplate,
)

__all__ = [
    "AdmissionControl",
    "BoundQuery",
    "DEFAULT_WEIGHTS",
    "MixEntry",
    "ParamSpec",
    "PredicateTemplate",
    "QueryMix",
    "QueryRecord",
    "QueryTemplate",
    "TrafficEngine",
    "TrafficReport",
    "WorkerSummary",
    "default_mix",
    "derive_seed",
]
