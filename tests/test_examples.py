"""Smoke tests: every example script runs green and prints its story."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, *args):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "Hedy" in proc.stdout and "Tony" in proc.stdout
        assert "--- CA ---" in proc.stdout

    def test_school_walkthrough(self):
        proc = run_example("school_walkthrough.py")
        assert proc.returncode == 0, proc.stderr
        assert "STEP 4" in proc.stdout
        assert "promoted to certain" in proc.stdout
        assert "[('Hedy', 'Kelly')]" in proc.stdout

    def test_strategy_comparison(self):
        proc = run_example("strategy_comparison.py", "7")
        assert proc.returncode == 0, proc.stderr
        assert "PL-S" in proc.stdout
        assert "identical under every strategy" in proc.stdout

    def test_performance_study(self):
        proc = run_example("performance_study.py", "--samples", "4")
        assert proc.returncode == 0, proc.stderr
        assert "Figure 9" in proc.stdout
        assert "Figure 11" in proc.stdout
        assert "Headline observations" in proc.stdout

    def test_hospital_federation(self):
        proc = run_example("hospital_federation.py")
        assert proc.returncode == 0, proc.stderr
        assert "Ben" in proc.stdout
        assert "555-9902" in proc.stdout

    def test_federation_operations(self):
        proc = run_example("federation_operations.py")
        assert proc.returncode == 0, proc.stderr
        assert "0 error(s)" in proc.stdout
        assert "dangles" in proc.stdout
        assert "copies disagree on 'name'" in proc.stdout
