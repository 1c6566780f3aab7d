"""Warm per-shape memos answer as a fresh federation across a bump.

One execution warms the federation's query-shape memo
(``DistributedSystem.query_shape``) and the global schema's path-chain
memo (``Schema.resolve_path``).  An attribute drop or rename, or an
entity registration, then moves the schema version.  Every later answer,
its digest, sim times, work and per-site sizes must equal those of a
federation built and changed anew, which never saw the old shape.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.engine import GlobalQueryEngine
from repro.core.results import answer_digest
from repro.errors import QueryError
from repro.evolution import EvolutionPlan
from repro.evolution.controller import EvolutionController
from repro.evolution.events import ATTR_DROP, ATTR_RENAME, EvolutionEvent
from repro.workload.paper_example import Q1_TEXT, build_school_federation

#: Attribute events on what Q1 reads: DB1 stops storing the teachers'
#: departments (DB3 still does), or the students' names change name.
EVENTS = {
    "drop": EvolutionEvent(
        ATTR_DROP, 0.0, site="DB1", global_class="Teacher",
        attr="department",
    ),
    "rename": EvolutionEvent(
        ATTR_RENAME, 0.0, global_class="Student", attr="name",
        new_name="full_name",
    ),
}


def apply(system, change: str) -> None:
    if change == "register":
        system.register_entity("Student", {"DB1": {"s-no": 999, "name": "Zed"}})
        return
    controller = EvolutionController(
        system, EvolutionPlan(events=(EVENTS[change],))
    )
    while not controller.done:
        controller.step()


def observed(system, report, query) -> tuple:
    """What must not tell a warm federation from a fresh one."""
    metrics = report.metrics
    work = dataclasses.asdict(metrics.work)
    del work["cache_hits"], work["cache_misses"]  # a warm cache hits
    shape = system.query_shape(query)
    return (
        report.results.to_dicts(),
        answer_digest(report.results),
        (metrics.total_time, metrics.response_time, metrics.phase_time),
        work,
        metrics.spans,
        {db: shape.site_size(db) for db in system.databases},
    )


@pytest.mark.parametrize("strategy", ["CA", "BL", "PL"])
@pytest.mark.parametrize("change", ["drop", "rename", "register"])
def test_warm_memos_equal_a_fresh_federation(strategy, change):
    warm = build_school_federation()
    engine = GlobalQueryEngine(warm)
    q1 = engine.parse(Q1_TEXT)
    engine.execute(q1, strategy)
    assert warm._shape_cache and warm.global_schema.schema._chains
    before = {db: warm.query_shape(q1).site_size(db) for db in warm.databases}

    apply(warm, change)
    fresh = build_school_federation()
    apply(fresh, change)
    text = Q1_TEXT
    if change == "rename":
        with pytest.raises(QueryError):
            engine.execute(Q1_TEXT, strategy)
        text = Q1_TEXT.replace("X.name,", "X.full_name,")
    query = engine.parse(text)
    got = engine.execute(query, strategy)
    want = GlobalQueryEngine(fresh).execute(query, strategy)
    assert got.results.to_dicts()  # the answer is not empty
    assert observed(warm, got, query) == observed(fresh, want, query)
    after = {db: warm.query_shape(query).site_size(db) for db in warm.databases}
    # A drop resizes DB1's branch objects: a stale shape would show.
    assert (after != before) == (change == "drop")
