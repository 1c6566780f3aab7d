"""Microbenchmarks of the substrate operations (pytest-benchmark).

Not a paper figure — performance tracking for the building blocks every
experiment leans on: local query evaluation, outerjoin materialization,
assistant checking, certification, and the activity-graph scheduler.
"""

import random

import pytest


def _build():
    from repro.core.decompose import decompose
    from repro.workload.generator import generate
    from repro.workload.params import sample_params

    rng = random.Random(1234)
    params = sample_params(rng, n_classes_range=(3, 3))
    params.seed = 1234
    workload = generate(params, scale=0.2)
    decomposed = decompose(workload.query, workload.system.global_schema)
    return workload, decomposed


@pytest.fixture(scope="module")
def setup():
    return _build()


def test_local_query_evaluation(benchmark, setup):
    workload, decomposed = setup
    db_name = next(iter(decomposed.local_queries))
    db = workload.system.db(db_name)
    lq = decomposed.local_queries[db_name]
    result = benchmark(db.execute_local, lq)
    assert result.objects_scanned > 0


def test_phase_o_scan(benchmark, setup):
    workload, decomposed = setup
    db_name = next(iter(decomposed.local_queries))
    db = workload.system.db(db_name)
    lq = decomposed.local_queries[db_name]
    scan, _meter = benchmark(db.collect_unsolved, lq)
    assert scan.objects_scanned > 0


def test_outerjoin_materialization(benchmark, setup):
    from repro.core.decompose import attributes_needed_by_class
    from repro.core.strategies.centralized import export_site
    from repro.integration.outerjoin import materialize

    workload, _decomposed = setup
    system = workload.system
    classes = (workload.query.range_class,) + workload.query.branch_classes(
        system.global_schema.schema
    )
    needed = attributes_needed_by_class(
        workload.query, system.global_schema, classes
    )
    exports = {cls: {} for cls in classes}
    for db_name in system.databases:
        for cls, objs, _n_attrs in export_site(system, db_name, needed):
            exports[cls][db_name] = list(objs)

    extent = benchmark(
        materialize, classes, system.global_schema, system.catalog, exports
    )
    assert len(extent) > 0


def test_full_bl_execution(benchmark, setup):
    from repro.core.engine import GlobalQueryEngine

    workload, _decomposed = setup
    engine = GlobalQueryEngine(workload.system)
    outcome = benchmark(engine.execute, workload.query, "BL")
    assert len(outcome.results) > 0


def test_signature_indexing(benchmark, setup):
    from repro.objectdb.signatures import SignatureCatalog

    workload, _decomposed = setup
    db = next(iter(workload.system.databases.values()))
    objects = list(db.extent("K1").values())

    def index():
        catalog = SignatureCatalog()
        catalog.index_extent(objects)
        return catalog

    catalog = benchmark(index)
    assert catalog.lookup("K1", objects[0].loid) is not None


def test_des_kernel_throughput(benchmark):
    """Schedule-and-run a 3-site fan-in graph of 300 nodes."""
    from repro.sim.taskgraph import FederationSim

    def run_graph():
        fed = FederationSim(["A", "B", "C"], global_site="G")
        deps = []
        for site in ("A", "B", "C"):
            prev = None
            for i in range(33):
                node = fed.cpu(
                    site, comparisons=100, label=f"w{i}",
                    deps=[prev] if prev else (),
                )
                prev = node
            deps.append(fed.transfer(site, "G", nbytes=100, deps=[prev]))
        fed.cpu("G", comparisons=10, deps=deps)
        return fed.run()

    outcome = benchmark(run_graph)
    assert outcome.nodes == 103
