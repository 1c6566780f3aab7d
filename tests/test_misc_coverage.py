"""Edge-path tests across modules (error messages, meters, reporting)."""

from repro.core.predicates import EvalMeter
from repro.core.query import Path
from repro.core.results import GlobalResult, ResultKind
from repro.errors import (
    ReproError,
    SimulationError,
    SqlxSyntaxError,
    UnknownAttributeError,
    UnknownClassError,
)
from repro.objectdb.ids import GOid
from repro.objectdb.values import NULL


class TestErrorMessages:
    def test_unknown_class_names_scope(self):
        err = UnknownClassError("Foo", where="db 'DB1'")
        assert "Foo" in str(err) and "DB1" in str(err)
        assert err.class_name == "Foo"

    def test_unknown_attribute(self):
        err = UnknownAttributeError("Student", "salary")
        assert "Student" in str(err) and "salary" in str(err)

    def test_sqlx_error_position(self):
        err = SqlxSyntaxError("bad token", position=7)
        assert "position 7" in str(err)
        assert err.position == 7

    def test_sqlx_error_without_position(self):
        err = SqlxSyntaxError("bad token")
        assert "position" not in str(err)

    def test_hierarchy(self):
        assert issubclass(UnknownClassError, ReproError)
        assert issubclass(SimulationError, ReproError)


class TestEvalMeter:
    def test_merge(self):
        a = EvalMeter(comparisons=2, derefs=1)
        b = EvalMeter(comparisons=3, derefs=4)
        a.merge(b)
        assert a.comparisons == 5
        assert a.derefs == 5


class TestGlobalResultHelpers:
    def test_value_and_row(self):
        result = GlobalResult(
            goid=GOid("g1"),
            kind=ResultKind.CERTAIN,
            bindings={Path.parse("a"): 1},
        )
        assert result.value(Path.parse("a")) == 1
        assert result.value(Path.parse("zz")) is NULL
        assert result.row([Path.parse("a"), Path.parse("zz")]) == (1, NULL)
        assert result.is_certain


class TestCliStudyAllFigures:
    def test_study_all(self, capsys):
        from repro.cli import main

        assert main(["study", "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out and "Figure 10" in out and "Figure 11" in out


class TestGeneratorEdges:
    def test_single_db_federation(self):
        from helpers import make_workload
        from repro.core.engine import GlobalQueryEngine

        workload = make_workload(seed=901, scale=0.03, n_dbs=1)
        engine = GlobalQueryEngine(workload.system)
        outcomes = engine.compare(workload.query)
        # One site: no isomerism, but strategies still agree.
        assert set(outcomes) == {"CA", "BL", "PL"}

    def test_analytic_single_db(self):
        import random

        from repro.analytic.model import AnalyticModel
        from repro.workload.params import sample_params

        params = sample_params(random.Random(3), n_dbs=1)
        outcomes = AnalyticModel(params).evaluate_all()
        for outcome in outcomes.values():
            assert outcome.total_time > 0


class TestShapeReport:
    def test_keys_present(self):
        from repro.bench.experiments import figure9
        from repro.bench.reporting import shape_report

        series = figure9(samples=3, object_counts=(1000, 2000))
        facts = shape_report(series)
        for strategy in ("CA", "BL", "PL"):
            assert f"{strategy}_total_monotone_up" in facts
            assert f"{strategy}_response_monotone_up" in facts


class TestApiDocsGenerator:
    def test_generates(self, tmp_path, monkeypatch):
        import importlib.util
        import pathlib

        spec = importlib.util.spec_from_file_location(
            "gen_api_docs",
            pathlib.Path(__file__).parent.parent / "scripts" / "gen_api_docs.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "OUTPUT", tmp_path / "API.md")
        assert module.main() == 0
        text = (tmp_path / "API.md").read_text()
        assert "GlobalQueryEngine" in text
        assert "ComponentDatabase" in text
        assert "AnalyticModel" in text
