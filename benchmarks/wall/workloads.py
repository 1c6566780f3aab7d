"""The five traffic workloads, declared once.

Every workload drives the same federation — ``sample_params(Random(1996))``
at scale 0.03: 3 sites, about 400 entities per class — through a closed
loop of two cooperative workers with think time 0 behind
``AdmissionControl(max_in_flight=2, queue_depth=2)``, so nothing is shed
and each worker submits its next query only when the previous returned.
Only the strategy, the template weights, the execution options and the
evolution plan differ.  ``--seed`` is the *traffic* seed: it alone
changes the bound-query sequence.

Query counts: ISSUE 11 sized a pass at about 3 s (4000/700/300/350/400
queries).  Every round of a run sets up again and the driver caps all
runs together, so the counts were cut — never below 300 — to keep a pass
between 1.4 and 2.9 s on the 2-core sandbox; the number of passes was not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

FEDERATION_SEED = 1996
FEDERATION_SCALE = 0.03
WORKERS = 2
DEFAULT_SEED = 7

#: Validated at 800 queries per pass (22 transitions, 102 straddled, 0
#: violations); :func:`evolution_plan` rescales the times to the pass.
CHURN_SPEC_AT_800 = (
    "join@30,add@80,rename@130,drop@180,join@230,add@280,"
    "rename@330,drop@380,leave@430,rename@480,leave@530"
)
CHURN_LAG_S = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str
    weights: Tuple[Tuple[str, float], ...]
    queries: int
    why: str
    #: ``FaultPlan.from_spec`` text; empty = fault-free.
    faults: str = ""
    policy: Optional[str] = None
    #: Runs the churn plan: every pass mutates its federation, so every
    #: pass starts from a freshly generated one.
    churn: bool = False

    @property
    def weight_dict(self) -> Dict[str, float]:
        return dict(self.weights)


_MIX = (("point", 4.0), ("scan", 2.0), ("paper", 1.0))

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="point-bl",
        strategy="BL",
        weights=(("point", 1.0),),
        queries=2000,
        why=(
            "one-row key lookups over 406 keys (decompositions repeat, cache "
            "fits): per-query fixed overhead of engine, dispatch planning "
            "and sim set-up does nearly all the work"
        ),
    ),
    Workload(
        name="mix-bl",
        strategy="BL",
        weights=_MIX,
        queries=420,
        why=(
            "ROADMAP reference mix point:scan:paper 4:2:1; scans and paper "
            "queries carry the wall in certification, local evaluation and "
            "export; operands almost never repeat, so the cache is bypassed"
        ),
    ),
    Workload(
        name="scan-ca",
        strategy="CA",
        weights=(("scan", 1.0),),
        queries=300,
        why=(
            "CA ships whole extents: outerjoin and export carry it while "
            "certification, dispatch planning and assistant checks are "
            "bypassed; a localized-path gain must read no change here"
        ),
    ),
    Workload(
        name="degraded-pl",
        strategy="PL",
        weights=_MIX,
        queries=300,
        faults="link:*>DB2:loss0.4,DB3@0:0.3",
        policy="degrade",
        why=(
            "PL under link loss and a site outage with failover and "
            "per-query fault seeds: retries, relays, skip annotation and "
            "condition attachment, which fault-free BL never runs"
        ),
    ),
    Workload(
        name="churn-bl",
        strategy="BL",
        weights=_MIX,
        queries=300,
        churn=True,
        why=(
            "writes beside reads: 11 join/add/rename/drop/leave events "
            "flush the decomposition cache 22 times and rebuild columnar "
            "extents, so a cache that costs more under invalidation shows"
        ),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def build_federation():
    """The generated workload every pass runs against (deterministic)."""
    from repro.workload.generator import generate
    from repro.workload.params import sample_params

    params = sample_params(random.Random(FEDERATION_SEED))
    params.seed = FEDERATION_SEED
    return generate(params, scale=FEDERATION_SCALE)


def execution_options(workload: Workload):
    """The workload's ``ExecutionOptions`` (``None`` = engine defaults)."""
    if not workload.faults:
        return None
    from repro.core.options import ExecutionOptions
    from repro.faults import FaultPlan

    return ExecutionOptions(
        fault_plan=FaultPlan.from_spec(workload.faults),
        policy=workload.policy,
    )


def evolution_plan(workload: Workload, generated, mix, queries: int):
    """The churn plan resolved against *generated*, or ``None``.

    Times scale with the pass length: the simulated makespan is close to
    proportional to the query count, and every transition must fire
    before the pass ends whatever the traffic seed.
    """
    if not workload.churn:
        return None
    from repro.evolution import (
        EvolutionPlan,
        mix_referenced_attributes,
        resolve_auto,
    )

    factor = queries / 800.0
    spec = ",".join(
        f"{kind}@{float(at) * factor:.4f}"
        for kind, at in (
            entry.split("@") for entry in CHURN_SPEC_AT_800.split(",")
        )
    )
    plan = EvolutionPlan.from_spec(
        spec, seed=FEDERATION_SEED, propagation_lag_s=CHURN_LAG_S
    )
    return resolve_auto(
        plan,
        generated.system,
        generated.query,
        extra_referenced=mix_referenced_attributes(mix),
    )
