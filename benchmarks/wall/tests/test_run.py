import copy
import json

import run

BOUND = {
    m["name"]: m["bound"]
    for m in json.loads(run.BENCHMARK_JSON.read_text())["end_to_end"]
}


def _result(seed=7, **changes):
    values = {
        "setup_s": 0.6, "throughput_qps": 1000.0, "query_wall_ms_p50": 0.7,
        "query_wall_ms_p95": 0.9, "failed_share": 0.0, "peak_rss_mb": 45.0,
        "sim_total_s_mean": 0.57, "sim_response_s_mean": 0.2,
    }
    values.update(changes)
    return {
        "traffic_seed": seed,
        "workloads": {"point-bl": {
            "answers_digest": "ab" * 32,
            "end_to_end": {k: {"value": v, "unit": "x"} for k, v in values.items()},
        }},
    }


def _agree(tmp_path, a, b):
    paths = []
    for name, result in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(result))
        paths.append(str(path))
    return run.main(["--agree", *paths])


def test_agree_accepts_noise_inside_the_bounds(tmp_path, capsys):
    b = _result(
        throughput_qps=1000.0 * (1 - 0.9 * BOUND["throughput_qps"]),
        query_wall_ms_p95=0.9 * (1 + 0.9 * BOUND["query_wall_ms_p95"]),
        setup_s=0.45,
    )
    assert _agree(tmp_path, _result(), b) == 0
    table = capsys.readouterr().out
    assert "throughput_qps" in table and "0.7500" in table  # setup_s B/A
    assert "all within bounds" in table


def test_agree_rejects_a_metric_outside_its_bound(tmp_path, capsys):
    slower = 1000.0 * (1 - 1.1 * BOUND["throughput_qps"])
    assert _agree(tmp_path, _result(), _result(throughput_qps=slower)) == 1
    assert "OUTSIDE" in capsys.readouterr().out
    # Direction matters: faster is never a regression.
    assert _agree(tmp_path, _result(), _result(throughput_qps=2000.0)) == 0


def test_agree_compares_simulated_times_failures_and_digests_exactly(tmp_path):
    assert _agree(tmp_path, _result(), _result(sim_total_s_mean=0.5700001)) == 1
    assert _agree(tmp_path, _result(), _result(failed_share=0.001)) == 1
    forged = copy.deepcopy(_result())
    forged["workloads"]["point-bl"]["answers_digest"] = "cd" * 32
    assert _agree(tmp_path, _result(), forged) == 1
    # Another traffic seed asks other queries: exact checks do not apply.
    other = _result(seed=8, sim_total_s_mean=0.58)
    other["workloads"]["point-bl"]["answers_digest"] = "cd" * 32
    assert _agree(tmp_path, _result(), other) == 0


def test_an_untraced_run_never_imports_the_probe_module():
    import subprocess
    import sys

    code = (
        "import sys; sys.argv = ['run.py']; "
        f"sys.path.insert(0, {str(run.HERE)!r}); sys.path.insert(0, {str(run.SRC)!r}); "
        "import run, harness, workloads, stats; "
        "g, _ = harness.set_up(workloads.BY_NAME['point-bl'], 3, []); "
        "assert 'layers' not in sys.modules, 'layers imported'"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
