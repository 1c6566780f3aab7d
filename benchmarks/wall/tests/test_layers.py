import json
import sys

import pytest

import harness
import layers
import run
from test_harness import TINY
from workloads import WORKLOADS, build_federation


TARGETS = [t for ts in layers.LAYERS.values() for t in ts] + list(
    layers.COUNTERS.values()
)


def _snapshot():
    """Identity of every module-level and probed-class binding in repro."""
    owners = [layers.resolve(target)[0] for target in TARGETS]  # imports
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in vars(module).items():
                seen[(name, attr)] = id(value)
    for owner in owners:
        if isinstance(owner, type):
            for attr, value in vars(owner).items():
                seen[(owner.__qualname__, attr)] = id(value)
    return seen


def test_install_rebinds_every_alias_and_restore_leaves_repro_identical():
    import repro.conditions.recertify  # noqa: F401 - a late importer
    import repro.core.certification as certification
    import repro.core.strategies as strategies
    import repro.core.strategies.localized as localized
    import repro.difftest.oracle as oracle
    import repro.traffic.driver as driver

    before = _snapshot()
    original = certification.certify
    with layers.installed(layers.Recorder()):
        assert certification.certify is not original
        assert localized.certify is certification.certify
        assert driver.answer_digest is oracle.answer_digest
        assert "execute" in vars(strategies.BasicLocalizedStrategy)
        assert _snapshot() != before
    assert "execute" not in vars(strategies.BasicLocalizedStrategy)
    assert certification.certify is original
    assert _snapshot() == before


def test_a_missing_target_fails_loudly_and_installs_nothing(monkeypatch):
    before = _snapshot()
    monkeypatch.setitem(
        layers.LAYERS, "certification", ("repro.core.certification:certifyy",)
    )
    with pytest.raises(layers.ProbeError, match="certifyy"):
        with layers.installed(layers.Recorder()):
            pytest.fail("installed despite a missing target")
    assert _snapshot() == before


def test_a_traced_pass_nests_spans_and_ties_export_to_its_request():
    generated = build_federation()
    recorder = layers.Recorder()
    traffic = harness.make_traffic(TINY, generated, 3, TINY.queries)
    with layers.installed(recorder):
        probed = harness.run_pass(traffic, TINY.queries, detailed=True)
        layers.time_sqlx(traffic)
    assert not probed.error
    out = layers.metrics(recorder, probed, probed.wall_s)
    assert set(out) | {"setup.generate_s", "setup.cold_pass_s"} == {
        name for name, _unit, _better in layers.declared()
    }
    assert out["engine.calls_per_query"] == 1.0
    assert out["export.calls_per_query"] == 1.0
    assert out["traffic.calls_per_query"] == 1.0 / TINY.queries
    assert out["outerjoin.calls_per_query"] == 0.0
    assert out["sqlx.calls_per_query"] > 0
    assert out["certification.rows_per_query"] > 0
    assert 0.0 <= out["certification.resolved_ratio"] <= 1.0
    assert 0.5 < out["trace.coverage"] < 1.0
    # Inside the traffic span the self times partition its wall exactly.
    names = list(layers.LAYER_NAMES) + ["probe"]
    in_pass = [
        own for (layer, _p, _s, _e), own in zip(
            recorder.spans, layers.stats.self_times(recorder.spans)
        ) if names[layer] != "sqlx"
    ]
    root = recorder.spans[0]
    assert names[root[0]] == "traffic"
    assert sum(in_pass) == pytest.approx(root[3] - root[2])
    engine = layers.LAYER_NAMES.index("engine")
    export = layers.LAYER_NAMES.index("export")
    exports = [i for i, s in enumerate(recorder.spans) if s[0] == export]
    owners = {recorder.request[i] for i in exports}
    assert len(owners) == TINY.queries
    assert all(recorder.spans[o][0] == engine for o in owners)
    assert layers.design_errors("BL", out) == []
    assert layers.design_errors("CA", out)  # BL numbers are wrong for CA


def test_benchmark_json_declares_what_the_harness_reports():
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    # The driver's list is the bounded five; see harness.END_TO_END.
    assert declared == list(harness.END_TO_END[:5])
    assert [m[0] for m in harness.END_TO_END[5:]] == [
        "failed_share", "sim_total_s_mean", "sim_response_s_mean"
    ]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == layers.declared()
    assert spec["paths"] == ["benchmarks/wall"]
