"""The shared runner of the baseline-checked benches.

``benchmarks/bench_common.py`` is loaded by path: ``benchmarks/`` is
not a package and not on the test path.  The committed ``BENCH_*.json``
baselines are only as good as the comparator that reads them and the
fingerprint that fills their ``answer_digest`` fields.
"""

import argparse
import importlib.util
import json
import pathlib

import pytest

from repro.core.engine import GlobalQueryEngine
from repro.workload.paper_example import Q1_TEXT, build_school_federation

_PATH = pathlib.Path(__file__).parent.parent / "benchmarks" / "bench_common.py"
_SPEC = importlib.util.spec_from_file_location("bench_common", _PATH)
bench_common = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_common)

SECTIONS = (
    ("chaos", "rows", ("scenario", "strategy"), ("certain", "total_s")),
    ("failover", "failover.rows", ("loss", "strategy"), ("certain",)),
    ("scenario", "cells", ("scenario",), ("evolution.plan",)),
)


def result(certain=2, total_s=0.5, plan="join@2", extra_row=False):
    rows = [{"scenario": "none", "strategy": "BL", "certain": certain,
             "total_s": total_s, "unchecked": 0}]
    if extra_row:
        rows.append({"scenario": "loss:DB9", "strategy": "BL",
                     "certain": 99, "total_s": 9.0, "unchecked": 0})
    return {
        "rows": rows,
        "failover": {"rows": [
            {"loss": 0.9, "strategy": "PL", "certain": 1},
        ]},
        "cells": [
            {"scenario": "calm", "evolution": {"plan": plan, "epoch": 3}},
        ],
    }


class TestBaselineDiffs:
    def test_an_identical_result_has_no_diffs(self):
        assert bench_common.baseline_diffs(result(), result(), SECTIONS) == []

    def test_a_changed_flat_field_is_reported(self):
        diffs = bench_common.baseline_diffs(
            result(certain=3), result(), SECTIONS
        )
        assert diffs == ["chaos none/BL.certain: 2 -> 3"]

    def test_a_changed_dotted_field_is_reported(self):
        diffs = bench_common.baseline_diffs(
            result(plan="join@2,drop@8"), result(), SECTIONS
        )
        assert diffs == [
            "scenario calm.evolution.plan: join@2 -> join@2,drop@8"
        ]

    def test_a_nested_rows_key_is_followed(self):
        base = result()
        base["failover"]["rows"][0]["certain"] = 0
        diffs = bench_common.baseline_diffs(result(), base, SECTIONS)
        assert diffs == ["failover 0.9/PL.certain: 0 -> 1"]

    def test_a_row_the_baseline_lacks_is_skipped(self):
        assert bench_common.baseline_diffs(
            result(extra_row=True), result(), SECTIONS
        ) == []

    def test_an_unchecked_field_is_ignored(self):
        changed = result()
        changed["rows"][0]["unchecked"] = 7
        changed["cells"][0]["evolution"]["epoch"] = 4
        assert bench_common.baseline_diffs(changed, result(), SECTIONS) == []

    def test_a_key_repeated_on_either_side_is_reported(self):
        doubled = result()
        doubled["rows"].append(dict(doubled["rows"][0], certain=9))
        assert bench_common.baseline_diffs(doubled, result(), SECTIONS) == [
            "chaos none/BL: key repeated in the result",
            "chaos none/BL.certain: 2 -> 9",
        ]
        assert bench_common.baseline_diffs(result(), doubled, SECTIONS) == [
            "chaos none/BL: key repeated in the baseline",
            "chaos none/BL.certain: 9 -> 2",
        ]

    def test_a_section_where_no_row_pairs_is_reported(self):
        renamed = result()
        renamed["failover"]["rows"][0]["strategy"] = "PL-S"
        assert bench_common.baseline_diffs(renamed, result(), SECTIONS) == [
            "failover: no row pairs with a baseline row"
        ]
        empty = result()
        empty["cells"] = []
        assert bench_common.baseline_diffs(empty, result(), SECTIONS) == [
            "scenario: no row pairs with a baseline row"
        ]

    def test_the_message_names_kind_key_and_field(self):
        (diff,) = bench_common.baseline_diffs(
            result(total_s=0.75), result(), SECTIONS
        )
        kind, rest = diff.split(" ", 1)
        assert kind == "chaos"
        assert rest.startswith("none/BL.total_s: ")
        assert rest.endswith("0.5 -> 0.75")


class TestFinish:
    def run(self, tmp_path, monkeypatch, capsys, run_result, baseline,
            flags=("--check",)):
        monkeypatch.setattr(bench_common, "RESULTS_DIR", tmp_path)
        check = tmp_path / "BENCH_x.json"
        check.write_text(json.dumps(baseline))
        parser = argparse.ArgumentParser()
        bench_common.add_baseline_args(parser)
        parser.add_argument("--quick", action="store_true")
        out = tmp_path / "out.json"
        argv = ["--json", str(out)]
        for flag in flags:
            argv += [flag, str(check)] if flag == "--check" else [flag]
        args = parser.parse_args(argv)
        status = bench_common.finish("x", run_result, "table", args, SECTIONS)
        return status, out, capsys.readouterr().out

    def test_a_clean_check_passes_and_writes_no_table(
        self, tmp_path, monkeypatch, capsys
    ):
        status, out, printed = self.run(
            tmp_path, monkeypatch, capsys, result(), result()
        )
        assert status == 0
        assert not (tmp_path / "x.txt").exists()
        assert out.read_text() == json.dumps(
            result(), indent=2, sort_keys=True
        ) + "\n"
        assert printed == (
            f"table\n\njson written to {out}\n\n"
            f"baseline check OK vs {tmp_path / 'BENCH_x.json'}\n"
        )

    def test_only_a_full_run_without_check_writes_the_table(
        self, tmp_path, monkeypatch, capsys
    ):
        for flags in (("--quick",), ("--quick", "--check")):
            self.run(tmp_path, monkeypatch, capsys, result(), result(), flags)
            assert not (tmp_path / "x.txt").exists()
        status, _out, _printed = self.run(
            tmp_path, monkeypatch, capsys, result(), result(), ()
        )
        assert status == 0
        assert (tmp_path / "x.txt").read_text() == "table\n"

    def test_a_regression_fails_and_lists_the_diffs(
        self, tmp_path, monkeypatch, capsys
    ):
        status, _out, printed = self.run(
            tmp_path, monkeypatch, capsys, result(certain=3), result()
        )
        assert status == 1
        assert printed.endswith(
            f"\nBASELINE REGRESSION vs {tmp_path / 'BENCH_x.json'}:\n"
            "  chaos none/BL.certain: 2 -> 3\n"
        )


#: ``answer_digest`` of Q1 on the school federation, as the benches
#: recorded it before the fingerprint moved into bench_common.
Q1_FINGERPRINT = "38239a5271a0cf58"


@pytest.mark.parametrize("strategy", ["CA", "PL"])
def test_answer_fingerprint_is_the_recorded_digest(strategy):
    report = GlobalQueryEngine(build_school_federation()).execute(
        Q1_TEXT, strategy
    )
    assert bench_common.answer_fingerprint(report.results) == Q1_FINGERPRINT
