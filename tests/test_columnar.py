"""The columnar kernels against the per-object reference evaluator.

Every kernel must be *byte-identical* to a scan that evaluates one
object at a time (``repro.difftest.reference``): same rows, same
bindings and unsolved bookkeeping, same meter totals, same exceptions.
These tests pin that down object by object on hand-built extents
covering the 3VL edge cases (all-null columns, mixed null/value under
every operator, empty extents), the order in which error rows raise,
and whole strategy runs shadowed by the reference.
"""

import pytest

from repro.core.engine import GlobalQueryEngine
from repro.core.options import OPTION_FIELDS, ExecutionOptions
from repro.core.predicates import EvalMeter, evaluate_predicate
from repro.core.query import Op, Path, Predicate
from repro.core.tvl import TV
from repro.difftest.reference import (
    check_assistants_reference,
    collect_unsolved_reference,
    execute_local_reference,
    local_evaluation_difference,
    shadowed_local_evaluation,
)
from repro.errors import QueryError
from repro.objectdb.columnar import (
    TRUE_CODE,
    TV_OF_CODE,
    UNKNOWN_CODE,
    ColumnarExtent,
)
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.ids import LOid
from repro.objectdb.local_query import CheckRequest, LocalQuery
from repro.objectdb.objects import LocalObject
from repro.objectdb.schema import (
    ClassDef,
    ComponentSchema,
    complex_attr,
    primitive,
)
from repro.objectdb.values import MultiValue, NULL
from repro.workload.paper_example import Q1_TEXT, build_school_federation

ALL_OPS = (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE)


def make_db(rows=()):
    """A two-class site: C(a, b, tags, ref -> D(x))."""
    schema = ComponentSchema.of(
        "DB",
        [
            ClassDef.of("C", [
                primitive("a"),
                primitive("b"),
                primitive("tags", multi_valued=True),
                complex_attr("ref", "D"),
            ]),
            ClassDef.of("D", [primitive("x")]),
        ],
    )
    db = ComponentDatabase(schema)
    for name, values in rows:
        cls = "D" if name.startswith("d") else "C"
        db.insert(LocalObject(LOid("DB", name), cls, values), validate=False)
    return db


def mixed_rows():
    """Nulls, values, multi-values and references in one extent."""
    return [
        ("d1", {"x": 10}),
        ("d2", {"x": NULL}),
        ("c1", {"a": 1, "b": "p", "tags": MultiValue([1, 2]),
                "ref": LOid("DB", "d1")}),
        ("c2", {"a": NULL, "b": "q", "ref": LOid("DB", "d2")}),
        ("c3", {"a": 3, "b": NULL, "tags": MultiValue([3])}),
        ("c4", {"a": 1, "b": "p", "ref": LOid("DB", "ghost")}),  # dangling
        ("c5", {}),  # everything missing
    ]


def local_query(where, targets=(Path.of("b"),)):
    return LocalQuery(
        db_name="DB", range_class="C", targets=tuple(targets), where=where
    )


def outcome(call, *args):
    """What *call* returns, or the (type, message) of what it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_kernel_is_reference(kernel, reference, db, request):
    """Same result field by field, or the same exception; returns it."""
    got = outcome(kernel, db, request)
    want = outcome(reference, db, request)
    if isinstance(got, tuple) and isinstance(got[0], type):
        assert got == want
    else:
        assert local_evaluation_difference(got, want) is None
    return got


def assert_execute_local_is_reference(db, query):
    return assert_kernel_is_reference(
        ComponentDatabase.execute_local, execute_local_reference, db, query
    )


def assert_collect_unsolved_is_reference(db, query):
    return assert_kernel_is_reference(
        ComponentDatabase.collect_unsolved, collect_unsolved_reference,
        db, query,
    )


def assert_check_assistants_is_reference(db, request):
    return assert_kernel_is_reference(
        ComponentDatabase.check_assistants, check_assistants_reference,
        db, request,
    )


def column_db(values):
    """A ``C`` extent whose attribute ``a`` holds *values*, one per row."""
    return make_db(
        [(f"c{i}", {"a": value}) for i, value in enumerate(values)]
    )


def kernel_and_row_path(values, op, operand):
    """((verdicts, charge) of the compare kernel, the same of the row path)."""
    return column_and_row_path(
        column_db(values), Predicate(path=Path.of("a"), op=op, operand=operand)
    )


def column_and_row_path(db, predicate, class_name="C"):
    """The same pair for any predicate over any extent without error rows."""
    col = db.columnar_extent(class_name)
    pcol = col.predicate_column(predicate)
    assert not pcol.error_rows
    meter = EvalMeter()
    rows = [
        evaluate_predicate(obj, predicate, db.deref, meter).tv
        for obj in col.objects
    ]
    kernel = [TV_OF_CODE[code] for code in pcol.codes]
    return (kernel, sum(pcol.comparisons)), (rows, meter.comparisons)


class TestBatchCompare:
    """The compare kernel is element-exact with the row path."""

    COLUMN = [
        1, NULL, "x", 2.5, MultiValue([1, 2]), MultiValue([]), True, 0,
    ]

    @pytest.mark.parametrize("op", [Op.EQ, Op.NE])
    def test_eq_ne_parity(self, op):
        kernel, rows = kernel_and_row_path(self.COLUMN, op, 1)
        assert kernel == rows

    @pytest.mark.parametrize("op", [Op.LT, Op.LE, Op.GT, Op.GE])
    def test_order_ops_parity(self, op):
        column = [1, NULL, 2.5, MultiValue([1, 2]), 0]
        kernel, rows = kernel_and_row_path(column, op, 1)
        assert kernel == rows

    def test_contains_parity(self):
        column = [MultiValue([1, 2]), NULL, MultiValue([3])]
        kernel, rows = kernel_and_row_path(column, Op.CONTAINS, 2)
        assert kernel == rows
        assert kernel[0] == [TV.TRUE, TV.UNKNOWN, TV.FALSE]

    def test_unorderable_rows_defer_to_the_row_path(self):
        # Building the column never raises: it marks the rows a scan
        # would raise on, and the caller evaluates the first of them in
        # scan order object by object, which raises.
        db = column_db([1, "unorderable", 2, "later"])
        predicate = Predicate(path=Path.of("a"), op=Op.LT, operand=5)
        pcol = db.columnar_extent("C").predicate_column(predicate)
        assert pcol.error_rows == {1, 3}
        assert pcol.codes == [
            TRUE_CODE, UNKNOWN_CODE, TRUE_CODE, UNKNOWN_CODE
        ]
        assert pcol.comparisons == [1, 0, 1, 0]
        assert assert_execute_local_is_reference(
            db, local_query(((predicate,),))
        ) == (QueryError, "cannot order-compare 'unorderable' with 5")

    def test_contains_on_scalar_raises(self):
        db = column_db([1])
        predicate = Predicate(path=Path.of("a"), op=Op.CONTAINS, operand=1)
        assert db.columnar_extent("C").predicate_column(
            predicate
        ).error_rows == {0}
        with pytest.raises(QueryError):
            evaluate_predicate(
                db.get(LOid("DB", "c0")), predicate, db.deref
            )


class TestColumnarExtentKernels:
    def test_all_null_column_is_all_unknown(self):
        db = make_db([("c1", {"a": NULL}), ("c2", {}), ("c3", {"a": NULL})])
        col = db.columnar_extent("C")
        attr = col.column("a")
        assert attr.null_count() == 3
        for op in ALL_OPS:
            pred = Predicate(path=Path.of("a"), op=op, operand=1)
            pcol = col.predicate_column(pred)
            assert pcol.codes == [UNKNOWN_CODE] * 3
            # Missing rows are uncharged, exactly like the row path.
            assert pcol.comparisons == [0] * 3

    def test_empty_extent(self):
        db = make_db()
        col = db.columnar_extent("C")
        assert len(col) == 0
        pred = Predicate(path=Path.of("a"), op=Op.EQ, operand=1)
        pcol = col.predicate_column(pred)
        assert pcol.codes == []
        assert pcol.comparisons == []
        assert not pcol.error_rows

    @pytest.mark.parametrize("op", ALL_OPS)
    def test_mixed_nulls_match_row_path_per_object(self, op):
        db = make_db(mixed_rows())
        pred = Predicate(path=Path.of("a"), op=op, operand=1)
        col = db.columnar_extent("C")
        pcol = col.predicate_column(pred)
        for row, obj in enumerate(col.objects):
            expected = evaluate_predicate(obj, pred, db.deref)
            assert TV_OF_CODE[pcol.codes[row]] is expected.tv, (
                f"{op} row {row} ({obj.loid})"
            )

    @pytest.mark.parametrize("op", ALL_OPS + (Op.CONTAINS,))
    def test_batch_sets_equal_row_path(self, op):
        db = make_db(mixed_rows())
        attr = "tags" if op is Op.CONTAINS else "a"
        pred = Predicate(path=Path.of(attr), op=op, operand=1)
        kernel, rows = column_and_row_path(db, pred)
        assert kernel == rows

    def test_nested_path_misses_match_row_path(self):
        db = make_db(mixed_rows())
        pred = Predicate(path=Path.of("ref", "x"), op=Op.EQ, operand=10)
        kernel, rows = column_and_row_path(db, pred)
        assert kernel == rows
        # c1 -> d1.x=10 TRUE; c2 -> d2.x NULL, c4 dangling, c5 missing,
        # c3 has no ref: all UNKNOWN.
        assert kernel[0] == [TV.TRUE] + [TV.UNKNOWN] * 4

    def test_stale_view_never_served(self):
        db = make_db(mixed_rows())
        first = db.columnar_extent("C")
        assert db.columnar_extent("C") is first  # cached
        db.insert(LocalObject(LOid("DB", "c9"), "C", {"a": 1}),
                  validate=False)
        second = db.columnar_extent("C")
        assert second is not first
        assert len(second) == len(first) + 1


class TestExecuteLocalParity:
    WHERES = [
        ((Predicate(path=Path.of("a"), op=Op.EQ, operand=1),),),
        ((Predicate(path=Path.of("a"), op=Op.GT, operand=0),
          Predicate(path=Path.of("b"), op=Op.EQ, operand="p")),),
        # DNF: two disjuncts.
        ((Predicate(path=Path.of("a"), op=Op.EQ, operand=3),),
         (Predicate(path=Path.of("ref", "x"), op=Op.EQ, operand=10),)),
        # Empty where: everything survives.
        (),
    ]

    @pytest.mark.parametrize("where", WHERES)
    def test_rows_and_meters_identical(self, where):
        query = local_query(where, targets=(Path.of("b"), Path.of("ref", "x")))
        assert_execute_local_is_reference(make_db(mixed_rows()), query)

    def test_indexed_candidates_identical(self):
        where = ((Predicate(path=Path.of("a"), op=Op.EQ, operand=1),),)
        query = local_query(where)
        indexed = make_db(mixed_rows())
        indexed.create_index("C", "a")
        result = assert_execute_local_is_reference(indexed, query)
        assert result.index_probe is not None

    def test_collect_unsolved_identical(self):
        where = ((Predicate(path=Path.of("a"), op=Op.EQ, operand=1),
                  Predicate(path=Path.of("ref", "x"), op=Op.LT, operand=99)),)
        query = local_query(where)
        scan, _meter = assert_collect_unsolved_is_reference(
            make_db(mixed_rows()), query
        )
        assert scan.per_root

    def test_check_assistants_identical(self):
        request = CheckRequest(
            db_name="DB",
            class_name="C",
            loids=(
                LOid("DB", "c1"), LOid("DB", "c2"), LOid("DB", "c5"),
                LOid("DB", "absent"),  # not stored anywhere
                LOid("DB", "d1"),      # stored, but in another extent
            ),
            predicates=(
                Predicate(path=Path.of("a"), op=Op.EQ, operand=1),
                Predicate(path=Path.of("ref", "x"), op=Op.GE, operand=10),
            ),
        )
        report = assert_check_assistants_is_reference(
            make_db(mixed_rows()), request
        )
        assert report.objects_checked == 5 and report.blocked


class TestErrorFallback:
    """Rows that would raise surface the canonical per-object exception."""

    def badly_typed_db(self):
        # c1's ref holds a plain int: walking ref.x raises QueryError.
        return make_db([
            ("c1", {"a": 1, "ref": 42}),
            ("c2", {"a": 2, "ref": NULL}),
        ])

    def test_execute_local_raises_canonically(self):
        where = ((Predicate(path=Path.of("ref", "x"), op=Op.EQ, operand=1),),)
        assert assert_execute_local_is_reference(
            self.badly_typed_db(), local_query(where)
        ) == (
            QueryError,
            "path ref.x: step 'ref' holds non-reference 42 but is not final",
        )

    def test_batch_kernel_falls_back_and_raises(self):
        pred = Predicate(path=Path.of("ref", "x"), op=Op.EQ, operand=1)
        db = self.badly_typed_db()
        col = db.columnar_extent("C")
        assert col.predicate_column(pred).error_rows == {0}
        with pytest.raises(QueryError):
            evaluate_predicate(col.objects[0], pred, db.deref)
        evaluate_predicate(col.objects[1], pred, db.deref)  # c2 is fine


#: ``b < 5`` raises on a string, ``ref.x`` on a non-reference ``ref``.
B_LT_5 = Predicate(path=Path.of("b"), op=Op.LT, operand=5)
A_EQ_1 = Predicate(path=Path.of("a"), op=Op.EQ, operand=1)
REF_X = Path.of("ref", "x")


def unorderable(value):
    return QueryError, f"cannot order-compare {value!r} with 5"


def non_reference(path, step, value):
    return QueryError, (
        f"path {path}: step {step!r} holds non-reference {value!r} "
        "but is not final"
    )


class TestErrorOrder:
    """An error row raises where a scan would reach it first — the
    reference's exception, and the literal one."""

    def test_two_error_rows_raise_the_earlier(self):
        db = make_db([
            ("c0", {"b": 1}), ("c1", {"b": "first"}), ("c2", {"b": "second"}),
        ])
        assert assert_execute_local_is_reference(
            db, local_query(((B_LT_5,),))
        ) == unorderable("first")

    def test_index_probe_order_is_the_scan_order(self):
        # The probe keeps extent order: c0, a null holder, is reached
        # before the match c1 stored after it.
        db = make_db([
            ("c0", {"a": NULL, "b": "stored first"}),
            ("c1", {"a": 1, "b": "stored second"}),
        ])
        db.create_index("C", "a")
        assert assert_execute_local_is_reference(
            db, local_query(((A_EQ_1, B_LT_5),))
        ) == unorderable("stored first")

    def test_error_row_outside_the_candidates_is_harmless(self):
        db = make_db([
            ("c0", {"a": 2, "b": "never probed"}), ("c1", {"a": 1, "b": 3}),
        ])
        db.create_index("C", "a")
        result = assert_execute_local_is_reference(
            db, local_query(((A_EQ_1, B_LT_5),))
        )
        assert [row.loid for row in result.rows] == [LOid("DB", "c1")]
        assert result.objects_scanned == 1

    def test_bad_target_walk_on_an_eliminated_row_is_harmless(self):
        db = make_db([("c0", {"a": 2, "ref": 42}), ("c1", {"a": 1})])
        result = assert_execute_local_is_reference(
            db, local_query(((A_EQ_1,),), targets=(REF_X,))
        )
        assert [row.loid for row in result.rows] == [LOid("DB", "c1")]

    def test_bad_target_walk_on_a_surviving_row_raises(self):
        db = make_db([
            ("c0", {"a": 2, "ref": 41}),  # eliminated: never bound
            ("c1", {"a": NULL, "ref": 42}),  # maybe rows are bound too
            ("c2", {"a": 1, "ref": 43}),
        ])
        assert assert_execute_local_is_reference(
            db, local_query(((A_EQ_1,),), targets=(REF_X,))
        ) == non_reference("ref.x", "ref", 42)

    def test_where_error_beats_target_error_within_a_row(self):
        db = make_db([("c0", {"b": "where", "ref": 42})])
        assert assert_execute_local_is_reference(
            db, local_query(((B_LT_5,),), targets=(REF_X,))
        ) == unorderable("where")

    def test_target_error_on_an_earlier_row_beats_a_where_error(self):
        db = make_db([
            ("c0", {"b": 1, "ref": 42}), ("c1", {"b": "later"}),
        ])
        assert assert_execute_local_is_reference(
            db, local_query(((B_LT_5,),), targets=(REF_X,))
        ) == non_reference("ref.x", "ref", 42)

    def test_collect_unsolved_raises_at_the_lowest_row(self):
        first = Predicate(path=REF_X, op=Op.EQ, operand=1)
        second = Predicate(path=Path.of("ref2", "x"), op=Op.EQ, operand=1)
        db = make_db([
            ("c0", {"ref": NULL, "ref2": 7}),  # only the second walk raises
            ("c1", {"ref": 42, "ref2": 8}),  # both do
        ])
        query = local_query(((first, second),))
        assert assert_collect_unsolved_is_reference(db, query) == (
            non_reference("ref2.x", "ref2", 7)
        )
        # Within a row the first predicate in query order raises.
        assert assert_collect_unsolved_is_reference(
            make_db([("c1", {"ref": 42, "ref2": 8})]), query
        ) == non_reference("ref.x", "ref", 42)

    def test_check_assistants_raises_in_request_order(self):
        db = make_db([
            ("d1", {"b": "not a C"}),
            ("c0", {"b": "stored first"}),
            ("c1", {"b": "asked first"}),
            ("c2", {"b": 1}),
        ])

        def request(*names):
            return CheckRequest(
                db_name="DB", class_name="C",
                loids=tuple(LOid("DB", name) for name in names),
                predicates=(A_EQ_1, B_LT_5),
            )

        assert assert_check_assistants_is_reference(
            db, request("c2", "c1", "c0")
        ) == unorderable("asked first")
        # An object of another extent is evaluated on its own, and its
        # exception still comes first when it is asked about first.
        assert assert_check_assistants_is_reference(
            db, request("d1", "c1")
        ) == unorderable("not a C")
        assert assert_check_assistants_is_reference(
            db, request("c0", "d1")
        ) == unorderable("stored first")
        # An error row nobody asks about is harmless.
        report = assert_check_assistants_is_reference(db, request("c2"))
        assert report.satisfied[B_LT_5] == (LOid("DB", "c2"),)

    def test_check_for_a_class_the_site_lacks(self):
        db = make_db(mixed_rows())
        report = assert_check_assistants_is_reference(db, CheckRequest(
            db_name="DB", class_name="Nowhere",
            loids=(LOid("DB", "c1"), LOid("DB", "absent"), LOid("DB", "c2")),
            predicates=(A_EQ_1, Predicate(path=REF_X, op=Op.GE, operand=10)),
        ))
        assert report.class_name == "Nowhere"
        assert report.satisfied[A_EQ_1] == (LOid("DB", "c1"),)
        assert report.unknown[A_EQ_1] == (
            LOid("DB", "absent"), LOid("DB", "c2")
        )
        assert [block.holder for block in report.blocked] == [
            LOid("DB", "d2")
        ]


class TestEngineTransparency:
    """Whole strategy runs, every local evaluation shadowed."""

    def test_describe_and_with(self):
        # There is one local-evaluation path and nothing to select.
        options = ExecutionOptions()
        assert "columnar" not in OPTION_FIELDS
        assert "columnar" not in options.describe()
        with pytest.raises(TypeError, match="unknown execution option"):
            options.with_(**{"columnar": False})

    @pytest.mark.parametrize("name", ["CA", "BL", "PL", "BL-S", "PL-S"])
    def test_q1_answers_and_metrics_identical(self, name):
        engine = GlobalQueryEngine(build_school_federation())
        engine.ensure_signatures()
        differences = []
        with shadowed_local_evaluation(differences):
            report = engine.execute(Q1_TEXT, name)
        assert differences == []
        assert report.results.certain_rows() == [("Hedy", "Kelly")]
        assert report.results.maybe_rows() == [("Tony", "Haley")]

    def test_generated_workloads_identical(self):
        from helpers import make_workload

        for seed in (11, 23, 47):
            workload = make_workload(seed=seed, scale=0.03)
            engine = GlobalQueryEngine(workload.system)
            engine.ensure_signatures()
            differences = []
            with shadowed_local_evaluation(differences):
                for name in ("CA", "BL", "PL", "BL-S", "PL-S"):
                    engine.execute(workload.query, name)
            assert differences == [], seed

    def test_the_shadow_sees_a_wrong_kernel(self, monkeypatch):
        from repro.objectdb import columnar

        monkeypatch.setitem(  # LT answers as LE
            columnar._TRUE_ROWS, Op.LT, lambda rows, lo, hi: rows[:hi]
        )
        db = column_db([1, 5, 9])
        a_lt_5 = Predicate(path=Path.of("a"), op=Op.LT, operand=5)
        differences = []
        with shadowed_local_evaluation(differences):
            result = db.execute_local(local_query(((a_lt_5,),)))
        assert len(result.rows) == 2  # the caller gets the kernel's answer
        assert len(differences) == 1
        assert differences[0].startswith("execute_local at DB: result.rows: [")
        assert ComponentDatabase.execute_local.__name__ == "execute_local"

    def test_the_shadow_compares_exceptions(self, monkeypatch):
        db = make_db([("c0", {"b": "first"}), ("c1", {"b": "second"})])
        query = local_query(((B_LT_5,),))
        differences = []
        with shadowed_local_evaluation(differences):
            with pytest.raises(QueryError, match="'first'"):
                db.execute_local(query)
        assert differences == []
        # A kernel that raises the *last* error row differs.
        scan_order = ColumnarExtent.raise_first_error
        monkeypatch.setattr(
            ColumnarExtent, "raise_first_error",
            lambda self, query, rows, *rest: scan_order(
                self, query, list(reversed(rows)), *rest
            ),
        )
        with shadowed_local_evaluation(differences):
            with pytest.raises(QueryError, match="'second'"):
                db.execute_local(query)
        assert len(differences) == 1
        assert differences[0].startswith("execute_local at DB: raised ")
