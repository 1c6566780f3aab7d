"""Unit tests for the certification engine (the paper's core rule)."""

import pytest

from repro.core.certification import (
    SATISFIED,
    UNKNOWN_VERDICT,
    VIOLATED,
    CertificationStats,
    VerdictIndex,
    certify,
)
from repro.core.query import Path, Predicate, Query
from repro.core.tvl import TV
from repro.errors import MappingError
from repro.integration.global_schema import ClassCorrespondence, integrate_schemas
from repro.integration.isomerism import table_from_correspondences
from repro.integration.mapping import MappingCatalog
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.local_query import (
    CheckReport,
    LocalResultRow,
    LocalResultSet,
    RowKind,
    UnsolvedItem,
    UnsolvedPredicateOnObject,
)
from repro.objectdb.schema import ClassDef, ComponentSchema, complex_attr, primitive
from repro.objectdb.values import MultiValue, NULL


# --- a minimal two-site federation skeleton for direct certify() calls ----


def make_global_schema():
    db1 = ComponentSchema.of(
        "DB1",
        [
            ClassDef.of("S", [primitive("k"), primitive("a"),
                              complex_attr("ref", "T")]),
            ClassDef.of("T", [primitive("k"), primitive("b")]),
        ],
    )
    db2 = ComponentSchema.of(
        "DB2",
        [
            ClassDef.of("S", [primitive("k"), primitive("a"),
                              complex_attr("ref", "T")]),
            ClassDef.of("T", [primitive("k"), primitive("b")]),
        ],
    )
    return integrate_schemas(
        {"DB1": db1, "DB2": db2},
        [
            ClassCorrespondence.of("S", [("DB1", "S"), ("DB2", "S")], "k"),
            ClassCorrespondence.of("T", [("DB1", "T"), ("DB2", "T")], "k"),
        ],
    )


PRED_A = Predicate.of("a", "=", 1)
PRED_B = Predicate.of("ref.b", "=", 2)
QUERY = Query.conjunctive("S", ["k"], [PRED_A, PRED_B])


def make_catalog(student_rows, teacher_rows=()):
    catalog = MappingCatalog()
    catalog.register(table_from_correspondences("S", student_rows))
    catalog.register(table_from_correspondences("T", teacher_rows))
    return catalog


def row(db, loid_value, status, unsolved=(), items=(), kind=RowKind.MAYBE,
        bindings=None):
    return LocalResultRow(
        loid=LOid(db, loid_value),
        class_name="S",
        kind=kind,
        bindings=bindings or {},
        unsolved=tuple(unsolved),
        unsolved_items=tuple(items),
        predicate_status=status,
    )


def results(db, *rows):
    return LocalResultSet(db_name=db, range_class="S", rows=list(rows))


class TestVerdictIndex:
    def test_violated_wins_over_satisfied(self):
        index = VerdictIndex()
        index.add(LOid("DB1", "x"), PRED_A, SATISFIED)
        index.add(LOid("DB1", "x"), PRED_A, VIOLATED)
        assert index.get(LOid("DB1", "x"), PRED_A) == VIOLATED
        index.add(LOid("DB1", "x"), PRED_A, SATISFIED)
        assert index.get(LOid("DB1", "x"), PRED_A) == VIOLATED

    def test_known_beats_unknown(self):
        index = VerdictIndex()
        index.add(LOid("DB1", "x"), PRED_A, UNKNOWN_VERDICT)
        index.add(LOid("DB1", "x"), PRED_A, SATISFIED)
        assert index.get(LOid("DB1", "x"), PRED_A) == SATISFIED

    def test_add_report(self):
        report = CheckReport(
            db_name="DB1",
            class_name="T",
            satisfied={PRED_A: (LOid("DB1", "a"),)},
            violated={PRED_A: (LOid("DB1", "b"),)},
            unknown={PRED_A: (LOid("DB1", "c"),)},
        )
        index = VerdictIndex()
        index.add_report(report)
        assert index.get(LOid("DB1", "a"), PRED_A) == SATISFIED
        assert index.get(LOid("DB1", "b"), PRED_A) == VIOLATED
        assert index.get(LOid("DB1", "c"), PRED_A) == UNKNOWN_VERDICT
        assert len(index) == 3

    def test_missing_is_none(self):
        assert VerdictIndex().get(LOid("DB1", "x"), PRED_A) is None


class TestAbsenceRule:
    def test_isomeric_filtered_elsewhere_eliminates(self):
        """The paper's s1/John case: copy at DB2 failed local predicates."""
        gs = make_global_schema()
        catalog = make_catalog(
            [(GOid("g1"), [LOid("DB1", "s1"), LOid("DB2", "s1x")])]
        )
        stats = CertificationStats()
        answer = certify(
            QUERY, gs, catalog,
            {
                "DB1": results("DB1", row("DB1", "s1",
                                          {PRED_A: TV.UNKNOWN, PRED_B: TV.TRUE})),
                "DB2": results("DB2"),  # s1x did not survive
            },
            VerdictIndex(), stats,
        )
        assert len(answer) == 0
        assert stats.eliminated_by_absence == 1

    def test_not_placed_elsewhere_stays(self):
        gs = make_global_schema()
        catalog = make_catalog([(GOid("g1"), [LOid("DB1", "s1")])])
        answer = certify(
            QUERY, gs, catalog,
            {
                "DB1": results("DB1", row("DB1", "s1",
                                          {PRED_A: TV.UNKNOWN, PRED_B: TV.TRUE})),
                "DB2": results("DB2"),
            },
            VerdictIndex(),
        )
        assert len(answer.maybe) == 1


class TestStatusMerge:
    def test_true_elsewhere_resolves(self):
        gs = make_global_schema()
        catalog = make_catalog(
            [(GOid("g1"), [LOid("DB1", "s1"), LOid("DB2", "s1x")])]
        )
        answer = certify(
            QUERY, gs, catalog,
            {
                "DB1": results("DB1", row("DB1", "s1",
                                          {PRED_A: TV.UNKNOWN, PRED_B: TV.TRUE})),
                "DB2": results("DB2", row("DB2", "s1x",
                                          {PRED_A: TV.TRUE, PRED_B: TV.UNKNOWN})),
            },
            VerdictIndex(),
        )
        assert len(answer.certain) == 1

    def test_both_unknown_stays_maybe(self):
        gs = make_global_schema()
        catalog = make_catalog([(GOid("g1"), [LOid("DB1", "s1")])])
        answer = certify(
            QUERY, gs, catalog,
            {"DB1": results("DB1", row("DB1", "s1",
                                       {PRED_A: TV.UNKNOWN, PRED_B: TV.UNKNOWN}))},
            VerdictIndex(),
        )
        assert len(answer.maybe) == 1
        assert set(answer.maybe[0].unsolved) == {PRED_A, PRED_B}

    def test_unmapped_row_raises(self):
        gs = make_global_schema()
        catalog = make_catalog([])
        with pytest.raises(MappingError):
            certify(
                QUERY, gs, catalog,
                {"DB1": results("DB1", row("DB1", "ghost", {}))},
                VerdictIndex(),
            )


class TestCertificationRule:
    def make_item(self, pred=PRED_B):
        return UnsolvedItem(
            loid=LOid("DB1", "t1"),
            class_name="T",
            reached_via=Path.parse("ref"),
            unsolved=(
                UnsolvedPredicateOnObject(
                    original=pred, relative_path=Path.parse("b")
                ),
            ),
        )

    def base(self):
        gs = make_global_schema()
        catalog = make_catalog(
            [(GOid("g1"), [LOid("DB1", "s1")])],
            [(GOid("t1"), [LOid("DB1", "t1"), LOid("DB2", "t1x")])],
        )
        local = {
            "DB1": results(
                "DB1",
                row("DB1", "s1", {PRED_A: TV.TRUE, PRED_B: TV.UNKNOWN},
                    items=[self.make_item()]),
            ),
        }
        return gs, catalog, local

    def relative(self):
        return Predicate.of("b", "=", 2)

    def test_assistant_satisfies_promotes(self):
        gs, catalog, local = self.base()
        verdicts = VerdictIndex()
        verdicts.add(LOid("DB2", "t1x"), self.relative(), SATISFIED)
        stats = CertificationStats()
        answer = certify(QUERY, gs, catalog, local, verdicts, stats)
        assert len(answer.certain) == 1
        assert stats.promoted_to_certain == 1

    def test_assistant_violates_eliminates(self):
        gs, catalog, local = self.base()
        verdicts = VerdictIndex()
        verdicts.add(LOid("DB2", "t1x"), self.relative(), VIOLATED)
        stats = CertificationStats()
        answer = certify(QUERY, gs, catalog, local, verdicts, stats)
        assert len(answer) == 0
        assert stats.eliminated_by_violation == 1

    def test_assistant_unknown_stays_maybe(self):
        gs, catalog, local = self.base()
        verdicts = VerdictIndex()
        verdicts.add(LOid("DB2", "t1x"), self.relative(), UNKNOWN_VERDICT)
        answer = certify(QUERY, gs, catalog, local, verdicts)
        assert len(answer.maybe) == 1
        assert answer.maybe[0].unsolved == (PRED_B,)

    def test_no_verdict_stays_maybe(self):
        gs, catalog, local = self.base()
        answer = certify(QUERY, gs, catalog, local, VerdictIndex())
        assert len(answer.maybe) == 1


class TestBindingsMerge:
    def test_first_non_null_wins(self):
        gs = make_global_schema()
        catalog = make_catalog(
            [(GOid("g1"), [LOid("DB1", "s1"), LOid("DB2", "s1x")])]
        )
        key = Path.parse("k")
        query = Query.conjunctive("S", [key], [])
        answer = certify(
            query, gs, catalog,
            {
                "DB1": results("DB1", row("DB1", "s1", {},
                                          kind=RowKind.CERTAIN,
                                          bindings={key: NULL})),
                "DB2": results("DB2", row("DB2", "s1x", {},
                                          kind=RowKind.CERTAIN,
                                          bindings={key: 7})),
            },
            VerdictIndex(),
        )
        assert answer.certain[0].bindings[key] == 7

    def test_multivalues_union(self):
        gs = make_global_schema()
        catalog = make_catalog(
            [(GOid("g1"), [LOid("DB1", "s1"), LOid("DB2", "s1x")])]
        )
        key = Path.parse("k")
        query = Query.conjunctive("S", [key], [])
        answer = certify(
            query, gs, catalog,
            {
                "DB1": results("DB1", row("DB1", "s1", {}, kind=RowKind.CERTAIN,
                                          bindings={key: MultiValue([1])})),
                "DB2": results("DB2", row("DB2", "s1x", {}, kind=RowKind.CERTAIN,
                                          bindings={key: MultiValue([2])})),
            },
            VerdictIndex(),
        )
        assert answer.certain[0].bindings[key] == MultiValue([1, 2])


class TestDnfCertification:
    def test_false_disjunct_does_not_eliminate(self):
        gs = make_global_schema()
        catalog = make_catalog([(GOid("g1"), [LOid("DB1", "s1")])])
        query = Query.disjunctive("S", ["k"], [[PRED_A], [PRED_B]])
        answer = certify(
            query, gs, catalog,
            {"DB1": results("DB1", row("DB1", "s1",
                                       {PRED_A: TV.FALSE, PRED_B: TV.UNKNOWN}))},
            VerdictIndex(),
        )
        assert len(answer.maybe) == 1
        # Only the live disjunct's predicate remains unsolved.
        assert answer.maybe[0].unsolved == (PRED_B,)

    def test_true_disjunct_promotes(self):
        gs = make_global_schema()
        catalog = make_catalog([(GOid("g1"), [LOid("DB1", "s1")])])
        query = Query.disjunctive("S", ["k"], [[PRED_A], [PRED_B]])
        answer = certify(
            query, gs, catalog,
            {"DB1": results("DB1", row("DB1", "s1",
                                       {PRED_A: TV.TRUE, PRED_B: TV.UNKNOWN}))},
            VerdictIndex(),
        )
        assert len(answer.certain) == 1

    def test_all_disjuncts_false_eliminates(self):
        gs = make_global_schema()
        catalog = make_catalog([(GOid("g1"), [LOid("DB1", "s1")])])
        query = Query.disjunctive("S", ["k"], [[PRED_A], [PRED_B]])
        answer = certify(
            query, gs, catalog,
            {"DB1": results("DB1", row("DB1", "s1",
                                       {PRED_A: TV.FALSE, PRED_B: TV.FALSE}))},
            VerdictIndex(),
        )
        assert len(answer) == 0


class TestPartialQueryingAbsence:
    """The absence rule under partial querying: a site a fault plan
    skipped never ran its local filter, so its silence proves nothing.
    Only a site that was *queried* and returned no surviving copy may
    eliminate an entity placed there."""

    def test_unqueried_site_does_not_eliminate(self):
        gs = make_global_schema()
        catalog = make_catalog(
            [(GOid("g1"), [LOid("DB1", "s1"), LOid("DB2", "s1x")])]
        )
        stats = CertificationStats()
        # DB2 was skipped: it is absent from local_results entirely,
        # unlike the queried-but-empty case below.
        answer = certify(
            QUERY, gs, catalog,
            {"DB1": results("DB1", row("DB1", "s1",
                                       {PRED_A: TV.UNKNOWN, PRED_B: TV.TRUE}))},
            VerdictIndex(), stats,
        )
        assert len(answer.maybe) == 1
        assert stats.eliminated_by_absence == 0

    def test_queried_empty_site_still_eliminates(self):
        """Contrast case: same federation, but DB2 *did* answer (with
        zero rows) — the paper's absence rule then applies."""
        gs = make_global_schema()
        catalog = make_catalog(
            [(GOid("g1"), [LOid("DB1", "s1"), LOid("DB2", "s1x")])]
        )
        stats = CertificationStats()
        answer = certify(
            QUERY, gs, catalog,
            {
                "DB1": results("DB1", row("DB1", "s1",
                                          {PRED_A: TV.UNKNOWN, PRED_B: TV.TRUE})),
                "DB2": results("DB2"),
            },
            VerdictIndex(), stats,
        )
        assert len(answer) == 0
        assert stats.eliminated_by_absence == 1

    def test_engine_fault_skipped_site_keeps_entity(self):
        """End-to-end: John's DB2 copy fails DB2's local filter, so the
        fault-free run eliminates him by absence.  With DB2 down he must
        come back as maybe — DB2 was never asked."""
        from repro.core.engine import GlobalQueryEngine
        from repro.core.options import ExecutionOptions
        from repro.faults import FaultPlan
        from repro.workload.paper_example import Q1_TEXT, build_school_federation

        clean = GlobalQueryEngine(build_school_federation()).execute(
            Q1_TEXT, "BL"
        )
        clean_names = {
            name for name, _ in
            clean.results.certain_rows() + clean.results.maybe_rows()
        }
        assert "John" not in clean_names

        faulted = GlobalQueryEngine(build_school_federation()).execute(
            Q1_TEXT, "BL",
            options=ExecutionOptions(
                fault_plan=FaultPlan.single_site_loss("DB2"),
            ),
        )
        assert "John" in {name for name, _ in faulted.results.maybe_rows()}
        assert "John" not in {
            name for name, _ in faulted.results.certain_rows()
        }
