"""Tests for the differential correctness harness (repro.difftest)."""

import dataclasses
import io
import json
import os

import pytest

import repro.core.strategies.localized as localized
from repro.core.binding_resolution import ResolutionStats
from repro.core.engine import GlobalQueryEngine
from repro.core.results import same_answers, same_entities
from repro.difftest import (
    FederationFuzzer,
    FuzzCase,
    StrategyOracle,
    replay_cases,
    run_fuzz,
    shrink_case,
)
from repro.difftest.oracle import answer_digest, case_digest
from repro.errors import ReproError

CASES_DIR = os.path.join(os.path.dirname(__file__), "cases")


@pytest.fixture
def broken_resolver(monkeypatch):
    """Reintroduce the binding-completion bug the fuzzer found.

    With the resolver disabled, localized strategies leave NULL nested
    targets and bare-scalar multi-valued targets — CA disagrees.
    """
    monkeypatch.setattr(
        localized, "resolve_missing_bindings",
        lambda *args, **kwargs: ResolutionStats(),
    )


class TestFuzzCase:
    def test_json_round_trip(self):
        case = FuzzCase(
            seed=7, n_dbs=4, scale=0.01, multi_valued_targets=True,
            fault_spec="DB1@0:1.5", fault_seed=3, mutate=True,
            label="x",
        )
        assert FuzzCase.from_json(case.to_json()) == case

    def test_defaults_omitted_from_export(self):
        raw = json.loads(FuzzCase(seed=7).to_json())
        assert raw == {"seed": 7}

    def test_unknown_field_rejected(self):
        with pytest.raises(ReproError, match="unknown fields"):
            FuzzCase.from_dict({"seed": 1, "n_sites": 3})

    def test_seed_required(self):
        with pytest.raises(ReproError, match="seed"):
            FuzzCase.from_dict({"n_dbs": 3})

    def test_bad_json_rejected(self):
        with pytest.raises(ReproError, match="JSON"):
            FuzzCase.from_json("{nope")
        with pytest.raises(ReproError, match="object"):
            FuzzCase.from_json("[1, 2]")

    @pytest.mark.parametrize("text,field", [
        ('{"seed": 1, "n_dbs": "3"}', "n_dbs"),
        ('{"seed": 1, "scale": "nan"}', "scale"),
        ('{"seed": "x"}', "seed"),
        ('{"seed": 1, "fault_seed": true}', "fault_seed"),
    ])
    def test_wrongly_typed_field_rejected(self, text, field):
        with pytest.raises(ReproError, match=f"field '{field}' must be"):
            FuzzCase.from_json(text)

    def test_typed_fields_accept_their_values(self):
        case = FuzzCase.from_json(
            '{"seed": 1, "scale": 1, "local_pred_attr_bias": null}'
        )
        assert case.scale == 1 and case.local_pred_attr_bias is None

    def test_validation(self):
        with pytest.raises(ReproError):
            FuzzCase(seed=1, n_dbs=0)
        with pytest.raises(ReproError):
            FuzzCase(seed=1, n_classes_min=3, n_classes_max=2)
        with pytest.raises(ReproError):
            FuzzCase(seed=1, scale=0.0)

    def test_build_is_deterministic(self):
        case = FuzzCase(seed=11, scale=0.01)
        left = answer_digest(
            GlobalQueryEngine(case.build().system)
            .execute(case.build().query, "CA").results
        )
        assert left == case_digest(case)

    def test_fault_spec_builds_plan(self):
        case = FuzzCase(seed=11, scale=0.01,
                        fault_spec="DB1@0:1.5", fault_seed=2)
        assert case.build().fault_plan is not None
        assert FuzzCase(seed=11, scale=0.01).build().fault_plan is None


class TestFuzzer:
    def test_cases_are_deterministic(self):
        a = [dataclasses.astuple(c) for c in FederationFuzzer(5).cases(8)]
        b = [dataclasses.astuple(c) for c in FederationFuzzer(5).cases(8)]
        assert a == b

    def test_case_is_order_independent(self):
        fuzzer = FederationFuzzer(5)
        late_first = fuzzer.case(6)
        list(fuzzer.cases(3))  # draw some earlier cases in between
        assert fuzzer.case(6) == late_first

    def test_seeds_distinct_across_indexes(self):
        seeds = {c.seed for c in FederationFuzzer(5).cases(20)}
        assert len(seeds) == 20

    def test_knob_coverage(self):
        cases = list(FederationFuzzer(1996).cases(40))
        assert any(c.multi_valued_targets for c in cases)
        assert any(c.fault_spec for c in cases)
        assert any(c.mutate for c in cases)
        assert any(c.local_pred_attr_bias is not None for c in cases)
        assert {c.n_dbs for c in cases} >= {2, 3, 4}


class TestOracle:
    def test_clean_on_fuzz_cases(self):
        oracle = StrategyOracle()
        for case in FederationFuzzer(2026).cases(3):
            assert oracle.check(case) == []

    def test_replay_committed_cases_clean(self):
        stream = io.StringIO()
        violations = replay_cases([CASES_DIR], stream=stream)
        assert violations == []
        assert "VIOLATION" not in stream.getvalue()

    def test_committed_cases_catch_the_resolver_bug(self, broken_resolver):
        """Each committed resolver case re-finds the bug it was shrunk
        from.  (Evolution cases guard a different, build-time bug — see
        ``test_committed_evolution_case_catches_target_tracking_bug``.)
        """
        oracle = StrategyOracle()
        checked = 0
        for name in sorted(os.listdir(CASES_DIR)):
            with open(os.path.join(CASES_DIR, name)) as handle:
                case = FuzzCase.from_json(handle.read())
            if case.evolve:
                continue
            checked += 1
            violations = oracle.check(case)
            assert violations, f"{name} no longer catches the bug"
            assert any(v.invariant == "equivalence" for v in violations)
        assert checked >= 2

    def test_committed_evolution_case_catches_target_tracking_bug(
        self, monkeypatch
    ):
        """The committed evolve case re-finds the seeding bug it caught:
        ``safe_plan`` once forgot which attributes earlier renames had
        moved, so a later drop could target a renamed-away attribute and
        crash when the controller applied it."""
        from repro.evolution import seeding
        from repro.evolution.controller import EvolutionController

        orig = seeding._pick_drop_target
        monkeypatch.setattr(
            seeding, "_pick_drop_target",
            lambda system, rng, referenced, roster, dropped, renamed:
                orig(system, rng, referenced, roster, dropped, set()),
        )
        with open(os.path.join(
            CASES_DIR, "fuzz-1996-48-evolve-rename-drop.json"
        )) as handle:
            case = FuzzCase.from_json(handle.read())
        built = case.build()
        with pytest.raises(ReproError, match="does not define"):
            EvolutionController(built.system, built.evolution).run_all()

    def test_local_eval_invariant_catches_a_wrong_kernel(self, monkeypatch):
        """The shadow bites: a compare kernel whose ``<`` loses its
        greatest TRUE row is a ``local-eval`` violation at the sites
        that evaluated it.  (Exchanging ``<`` and ``<=`` would not show
        here: no generated bound ties with a stored value — that one is
        ``test_value_index.TestBoundaries``' to catch.)"""
        from repro.core.query import Op
        from repro.objectdb import columnar

        monkeypatch.setitem(
            columnar._TRUE_ROWS, Op.LT,
            lambda rows, lo, hi: rows[:max(lo - 1, 0)],
        )
        case = FederationFuzzer(1996).case(8)  # p0 = 0 and p1 < 568570
        violations = StrategyOracle().check(case)
        local_eval = [v for v in violations if v.invariant == "local-eval"]
        assert local_eval
        assert any(
            str(v).startswith("[local-eval] fuzz-1996-8: execute_local at ")
            for v in local_eval
        )

    def test_global_eval_invariant_catches_what_ca_vs_bl_cannot(
        self, monkeypatch
    ):
        """CA is the baseline of every other comparison, and those
        compare answers as sets: a global site that evaluates in extent
        (merge) order instead of GOid order breaks the answer order and
        the order errors surface in, and only ``global-eval`` sees it."""
        from repro.integration.outerjoin import GlobalExtent
        from repro.objectdb.columnar import ColumnarExtent

        monkeypatch.setattr(
            GlobalExtent, "view",
            lambda self, name: ColumnarExtent(
                name, self.extent(name), self.extent(name).values(),
                self.deref, None,
            ),
        )
        violations = StrategyOracle().check(FederationFuzzer(1996).case(8))
        assert violations
        assert {v.invariant for v in violations} == {"global-eval"}
        assert str(violations[0]).startswith(
            "[global-eval] fuzz-1996-8: evaluate_global: result[0].certain[0].goid"
        )

    def test_schedule_invariant_catches_a_wrong_scheduler(self, monkeypatch):
        """No other invariant reads a simulated time: a scheduler whose
        devices serve the newest waiter first changes no answer, and
        only ``schedule`` — the contract checked after every
        ``FederationSim.run`` — sees it.  (The tie-breaking hops are out
        of this stream's reach, docs/TESTING.md: those wrong schedulers
        are ``test_taskgraph.TestHopOrder``'s to catch.)"""
        from helpers import wrong_scheduler
        from repro.sim.taskgraph import FederationSim

        monkeypatch.setattr(FederationSim, "run", wrong_scheduler("lifo-device"))
        violations = StrategyOracle().check(FederationFuzzer(1996).case(8))
        assert violations
        assert {v.invariant for v in violations} == {"schedule"}
        assert str(violations[0]).startswith(
            "[schedule] fuzz-1996-8: FederationSim.run: node "
        )

    def test_replicas_invariant_catches_a_disagreeing_copy(
        self, monkeypatch
    ):
        """EXPERIMENTS.md deviation 4 is checked, not assumed: a case
        whose federation stores one scalar copy that disagrees with its
        isomeric twin is a ``replicas`` violation."""
        build = FuzzCase.build

        def corrupted(case):
            built = build(case)
            system = built.system
            table = system.catalog.table(built.query.range_class)
            row = next(row for _, row in table.entries() if len(row) > 1)
            loid = next(iter(row.values()))
            system.db(loid.db).get(loid).values["t0"] = -1
            system.db(loid.db).note_mutation()
            return built

        monkeypatch.setattr(FuzzCase, "build", corrupted)
        violations = StrategyOracle().check(FederationFuzzer(1996).case(8))
        replicas = [v for v in violations if v.invariant == "replicas"]
        assert len(replicas) == 1
        assert str(replicas[0]).startswith(
            "[replicas] fuzz-1996-8: [warning] consistency: "
        )
        assert "copies disagree on 't0'" in str(replicas[0])

    def test_loose_entity_check_misses_what_oracle_catches(
        self, broken_resolver
    ):
        """The PR's motivating demonstration: with the old loose
        comparison (GOid membership only), CA and BL still 'agree' on
        the buggy build; the strict oracle comparison catches it."""
        with open(os.path.join(
            CASES_DIR, "fuzz-1996-26-nested-target-null.json"
        )) as handle:
            case = FuzzCase.from_json(handle.read())
        built = case.build()
        engine = GlobalQueryEngine(built.system)
        engine.ensure_signatures()
        ca = engine.execute(built.query, "CA").results
        bl = engine.execute(built.query, "BL").results
        assert same_entities(ca, bl)      # the old check: no bug visible
        assert not same_answers(ca, bl)   # the strict check: bug visible


class TestShrink:
    def test_strips_irrelevant_knobs(self):
        case = FuzzCase(
            seed=1, n_dbs=4, n_classes_max=3, scale=0.02,
            local_pred_attr_bias=0.7, multi_valued_targets=True,
            fault_spec="DB1@0:1.5", fault_seed=2, mutate=True,
        )
        # Failure depends only on having multiple databases.
        shrunk = shrink_case(case, lambda c: c.n_dbs >= 2)
        assert shrunk.n_dbs == 2
        assert shrunk.fault_spec == ""
        assert not shrunk.mutate
        assert not shrunk.multi_valued_targets
        assert shrunk.local_pred_attr_bias is None
        assert shrunk.n_classes_max == 1
        assert shrunk.scale < case.scale

    def test_keeps_essential_knobs(self):
        case = FuzzCase(seed=1, n_dbs=3, multi_valued_targets=True,
                        fault_spec="DB1@0:1.5")
        shrunk = shrink_case(
            case, lambda c: c.multi_valued_targets and bool(c.fault_spec)
        )
        assert shrunk.multi_valued_targets
        assert shrunk.fault_spec
        assert shrunk.n_dbs == 2  # still minimized on the free axis

    def test_respects_attempt_budget(self):
        calls = []

        def is_failing(candidate):
            calls.append(candidate)
            return True

        shrink_case(FuzzCase(seed=1, n_dbs=4, mutate=True),
                    is_failing, max_attempts=2)
        assert len(calls) == 2


class TestRunner:
    def test_run_fuzz_output_is_deterministic(self):
        first, second = io.StringIO(), io.StringIO()
        assert run_fuzz(2026, 3, stream=first) == []
        assert run_fuzz(2026, 3, stream=second) == []
        assert first.getvalue() == second.getvalue()
        assert "0 violation(s)" in first.getvalue()

    def test_violations_shrunk_and_written(self, broken_resolver, tmp_path):
        stream = io.StringIO()
        violations = run_fuzz(
            1996, 5, out_dir=str(tmp_path), stream=stream
        )
        assert violations  # fuzz-1996-4 fails under the broken resolver
        out = stream.getvalue()
        assert "VIOLATION" in out and "shrunk to:" in out
        written = sorted(tmp_path.glob("*.json"))
        assert written
        # The written file replays as a failure while the bug persists.
        assert replay_cases(
            [str(written[0])], stream=io.StringIO()
        )

    def test_replay_empty_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="no case files"):
            replay_cases([str(tmp_path)])


class TestCli:
    def test_fuzz_smoke(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--seed", "2026", "--cases", "2"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: 2 case(s), 0 violation(s)" in out

    def test_fuzz_replay(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--replay", CASES_DIR]) == 0
        out = capsys.readouterr().out
        assert "replay: 3 case(s), 0 violation(s)" in out

    def test_fuzz_replay_malformed_case_exits_2(self, capsys, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1, "n_dbs": "3"}')
        assert main(["fuzz", "--replay", str(bad)]) == 2
        assert "error: fuzz case field 'n_dbs'" in capsys.readouterr().err


class TestImportBoundary:
    """Production never imports the test harness, and the reference
    evaluators never import the kernels they are the reference for."""

    @staticmethod
    def imports_by_module():
        import ast
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        found = {}
        for path in sorted(root.rglob("*.py")):
            names = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    assert node.level == 0, f"{path}: relative import"
                    names.add(node.module)
                    names.update(
                        f"{node.module}.{alias.name}" for alias in node.names
                    )
            found[path.relative_to(root).as_posix()] = names
        return found

    def test_only_the_cli_imports_difftest(self):
        offenders = {
            module: sorted(n for n in names if n.startswith("repro.difftest"))
            for module, names in self.imports_by_module().items()
            if module != "cli.py" and not module.startswith("difftest/")
        }
        assert {m: n for m, n in offenders.items() if n} == {}

    def test_references_do_not_import_the_columnar_kernels(self):
        references = {
            module: names
            for module, names in self.imports_by_module().items()
            if module.startswith("difftest/reference")
        }
        assert references
        for module, names in references.items():
            assert not any(
                n.startswith("repro.objectdb.columnar") for n in names
            ), module

    def test_one_evaluator_at_the_global_site(self):
        """CA evaluates on the kernels: ``centralized.py`` names no
        per-object evaluator (the error re-raise is the extent's, as at
        every site), and the body it used to run lives in difftest only."""
        imports = self.imports_by_module()
        evaluators = {
            "evaluate_dnf", "evaluate_conjunction", "evaluate_predicate",
            "walk_path", "compare_values",
        }
        named = {
            n.rpartition(".")[2]
            for n in imports["core/strategies/centralized.py"]
        }
        assert named & evaluators == set()
        import repro.core.strategies.centralized as centralized
        import repro.difftest.reference as reference

        assert not hasattr(centralized, "evaluate_global_extent")
        assert reference.evaluate_global_extent.__module__ == (
            "repro.difftest.reference"
        )

    #: What drives an execution.  A repair resumes the strategy; it must
    #: never call any of these itself again.
    EXECUTION_STEPS = {
        "evaluate_site", "run_checks_paired", "chase_blocked",
        "plan_dispatch", "certify", "resolve_missing_bindings",
        "annotate_site_loss", "export_site", "materialize",
        "evaluate_global",
    }

    def test_recertify_names_no_execution_step(self):
        import ast
        import pathlib

        import repro.conditions.recertify as recertify

        tree = ast.parse(pathlib.Path(recertify.__file__).read_text())
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    named.update(alias.name.split("."))
                    named.add(alias.asname)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Name):
                named.add(node.id)
        assert named & self.EXECUTION_STEPS == set()
