"""The value-indexed compare kernel against the row path, row by row.

``ColumnarExtent.predicate_column`` answers an operand it has never seen
from a per-column value index (the scalar values in sorted order)
instead of comparing every row.  The index is an implementation detail: verdicts,
comparison charges, error rows and the exception a local evaluation
surfaces must be what ``evaluate_predicate`` gives one object at a time.
"""

import random

import pytest

from repro.core.predicates import EvalMeter, evaluate_predicate
from repro.core.query import Op, Path, Predicate
from repro.objectdb.columnar import CODE_OF_TV, UNKNOWN_CODE
from repro.objectdb.ids import LOid
from repro.objectdb.local_query import LocalQuery, RemovedPredicate
from repro.objectdb.objects import LocalObject
from repro.objectdb.values import MultiValue, NULL

from test_columnar import (
    assert_collect_unsolved_is_reference,
    assert_execute_local_is_reference,
    column_db,
    local_query,
    make_db,
)

NAN = float("nan")
INF = float("inf")

COLUMNS = {
    "int": [5, 1, 3, 3, NULL, 0, -2, 3, 7],
    "float": [1.5, INF, -0.0, NAN, 0.0, -INF, NULL, 2.0, 1.5],
    "bool": [True, False, NULL, True],
    "str": ["pear", "apple", NULL, "fig", "apple", ""],
    "int+str": [1, "1", 2, NULL, "b", 0],
    "int+float+bool": [1, 1.0, True, 0, -0.0, False, 2.5, NULL],
    "multi": [MultiValue([1, 2]), MultiValue([]), 1, MultiValue([3]), NULL],
    "refs": [LOid("DB", "d1"), LOid("DB", "d2"), NULL, LOid("DB", "ghost")],
    "all-null": [NULL, NULL, NULL],
    "empty": [],
    "one-row": [3],
}

OPERANDS = {
    "int": 3,
    "int-absent": 4,
    "float": 1.5,
    "float-whole": 3.0,
    "neg-zero": -0.0,
    "inf": INF,
    "bool": True,
    "str": "apple",
    "str-absent": "b",
    "nan": NAN,
    "loid": LOid("DB", "d1"),
    "multi": MultiValue([1, 2]),
    "null": NULL,
}


def reference(db, col, predicate):
    """Per-row (code, charge, exception) from the row path's evaluator."""
    codes, charges, raised = [], [], {}
    for row, obj in enumerate(col.objects):
        meter = EvalMeter()
        try:
            tv = evaluate_predicate(obj, predicate, db.deref, meter).tv
        except Exception as exc:  # compared by type and message below
            raised[row] = exc
            codes.append(UNKNOWN_CODE)
            charges.append(0)
        else:
            codes.append(CODE_OF_TV[tv])
            charges.append(meter.comparisons)
    return codes, charges, raised


def assert_kernel_is_row_path(db, class_name, predicate):
    col = db.columnar_extent(class_name)
    pcol = col.predicate_column(predicate)
    codes, charges, raised = reference(db, col, predicate)
    assert pcol.error_rows == set(raised)
    assert pcol.codes == codes
    assert pcol.comparisons == charges
    # The whole extent evaluated on it: the reference's rows and meters,
    # or the exception of the first error row in scan order.
    evaluated = assert_execute_local_is_reference(
        db, local_query(((predicate,),))
    )
    if raised:
        first = raised[min(raised)]
        assert evaluated == (type(first), str(first))


@pytest.mark.parametrize("operand", OPERANDS.values(), ids=OPERANDS.keys())
@pytest.mark.parametrize("values", COLUMNS.values(), ids=COLUMNS.keys())
@pytest.mark.parametrize("op", list(Op), ids=[op.name for op in Op])
def test_kernel_equals_row_path(op, values, operand):
    db = column_db(values)
    assert_kernel_is_row_path(
        db, "C", Predicate(path=Path.of("a"), op=op, operand=operand)
    )


@pytest.mark.parametrize("operand", [10, 10.0, 7, "10", NAN, True])
@pytest.mark.parametrize("op", list(Op), ids=[op.name for op in Op])
def test_nested_path_misses(op, operand):
    # ref.x: a value, a null leaf, a null reference, a dangling one, no ref.
    db = make_db([
        ("d1", {"x": 10}),
        ("d2", {"x": NULL}),
        ("d3", {"x": 7}),
        ("c1", {"ref": LOid("DB", "d1")}),
        ("c2", {"ref": LOid("DB", "d2")}),
        ("c3", {"ref": NULL}),
        ("c4", {"ref": LOid("DB", "ghost")}),
        ("c5", {}),
        ("c6", {"ref": LOid("DB", "d3")}),
    ])
    assert_kernel_is_row_path(
        db, "C", Predicate(path=Path.of("ref", "x"), op=op, operand=operand)
    )


def test_non_reference_mid_path_is_an_error_row():
    db = make_db([("c1", {"ref": 42}), ("c2", {"ref": NULL})])
    assert_kernel_is_row_path(
        db, "C", Predicate(path=Path.of("ref", "x"), op=Op.EQ, operand=1)
    )


class TestBoundaries:
    """Fail when LT/LE or GT/GE are exchanged, or a bisect side is."""

    EXPECTED = {
        Op.LT: [0],
        Op.LE: [0, 1, 3],
        Op.GT: [2, 4],
        Op.GE: [1, 2, 3, 4],
        Op.EQ: [1, 3],
        Op.NE: [0, 2, 4],
    }

    @pytest.mark.parametrize(
        "values, operand",
        [
            ([1, 2, 3, 2, 5], 2),
            ([1.0, 2, 3.5, 2.0, INF], 2.0),
            (["a", "b", "c", "b", "z"], "b"),
            ([False, True, 3, 1.0, 2], 1),
        ],
    )
    @pytest.mark.parametrize("op", EXPECTED, ids=[op.name for op in EXPECTED])
    def test_operand_equal_to_a_duplicated_value(self, op, values, operand):
        pcol = column_db(values).columnar_extent("C").predicate_column(
            Predicate(path=Path.of("a"), op=op, operand=operand)
        )
        true_rows = [r for r, code in enumerate(pcol.codes) if code == 2]
        assert true_rows == self.EXPECTED[op]
        assert pcol.comparisons == [1] * len(values)

    def test_operand_outside_the_stored_range(self):
        col = column_db([1, 2, 3]).columnar_extent("C")
        for op, below, above in [
            (Op.LT, [0, 0, 0], [2, 2, 2]),
            (Op.LE, [0, 0, 0], [2, 2, 2]),
            (Op.GT, [2, 2, 2], [0, 0, 0]),
            (Op.GE, [2, 2, 2], [0, 0, 0]),
        ]:
            path = Path.of("a")
            assert col.predicate_column(
                Predicate(path=path, op=op, operand=0)
            ).codes == below
            assert col.predicate_column(
                Predicate(path=path, op=op, operand=4)
            ).codes == above


class TestColumnsAreIndependent:
    def test_each_predicate_gets_its_own_lists(self):
        col = column_db([1, 2, NULL]).columnar_extent("C")
        first = col.predicate_column(
            Predicate(path=Path.of("a"), op=Op.EQ, operand=1)
        )
        second = col.predicate_column(
            Predicate(path=Path.of("a"), op=Op.EQ, operand=2)
        )
        first.codes[0] = 99  # a caller's slip must not reach the index
        first.comparisons[0] = 99
        assert second.codes == [0, 2, 1]
        assert second.comparisons == [1, 1, 0]
        third = col.predicate_column(
            Predicate(path=Path.of("a"), op=Op.EQ, operand=3)
        )
        assert third.codes == [0, 0, 1]

    def test_repeated_predicate_is_served_from_the_cache(self):
        col = column_db([1, 2]).columnar_extent("C")
        predicate = Predicate(path=Path.of("a"), op=Op.GE, operand=2)
        assert col.predicate_column(predicate) is col.predicate_column(
            Predicate(path=Path.of("a"), op=Op.GE, operand=2)
        )


class TestIndexLifetime:
    """The index dies with its extent view: no invalidation rule of its own."""

    PREDICATE = Predicate(path=Path.of("a"), op=Op.GE, operand=5)

    def test_insert(self):
        db = column_db([1, 5, 9])
        query = local_query(((self.PREDICATE,),))
        assert len(db.execute_local(query).rows) == 2
        db.insert(LocalObject(LOid("DB", "c9"), "C", {"a": 7}), validate=False)
        assert_execute_local_is_reference(db, query)
        assert len(db.execute_local(query).rows) == 3

    def test_note_mutation(self):
        db = column_db([1, 5, 9])
        query = local_query(((self.PREDICATE,),))
        assert len(db.execute_local(query).rows) == 2
        db.get(LOid("DB", "c0")).values["a"] = 6
        db.note_mutation("C")
        assert_execute_local_is_reference(db, query)
        assert len(db.execute_local(query).rows) == 3


def random_site(rng, rows=60):
    """C(a, b, ref -> D(x)) with nulls, dangling refs and shared holders."""
    objects = []
    for i in range(8):
        objects.append(
            (f"d{i}", {"x": rng.choice([NULL, rng.randrange(20)])})
        )
    for i in range(rows):
        values = {}
        if rng.random() < 0.85:
            values["a"] = rng.randrange(20)
        if rng.random() < 0.8:
            values["b"] = rng.choice(["p", "q", "r", NULL])
        roll = rng.random()
        if roll < 0.7:
            values["ref"] = LOid("DB", f"d{rng.randrange(8)}")
        elif roll < 0.8:
            values["ref"] = LOid("DB", "ghost")
        objects.append((f"c{i}", values))
    return objects


def random_predicate(rng):
    path = rng.choice([Path.of("a"), Path.of("ref", "x"), Path.of("b")])
    if path.steps == ("b",):
        return Predicate(
            path=path, op=rng.choice([Op.EQ, Op.NE]),
            operand=rng.choice(["p", "q", "zz"]),
        )
    return Predicate(
        path=path,
        op=rng.choice([Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE]),
        # Floats between the stored ints: operands no row holds.
        operand=rng.choice([rng.randrange(-2, 23), rng.uniform(-2, 23)]),
    )


def random_query(rng):
    conjuncts = tuple(
        tuple(random_predicate(rng) for _ in range(rng.randrange(1, 4)))
        for _ in range(rng.choice([1, 1, 1, 2]))
    )
    removed = ()
    removed_by_conjunct = ()
    if rng.random() < 0.5:
        # "gone" is an attribute this site's D lacks (depth 1), or its C
        # lacks (depth 0): statically unsolved for every object.
        lost = rng.choice([
            RemovedPredicate(
                Predicate(Path.of("ref", "gone"), Op.EQ, rng.randrange(99)), 1
            ),
            RemovedPredicate(
                Predicate(Path.of("gone"), Op.LT, rng.randrange(99)), 0
            ),
        ])
        removed = (lost,)
        removed_by_conjunct = ((lost.predicate,),) + tuple(
            () for _ in conjuncts[1:]
        )
    return LocalQuery(
        db_name="DB",
        range_class="C",
        targets=(Path.of("b"), Path.of("ref", "x")),
        where=conjuncts,
        removed=removed,
        removed_by_conjunct=removed_by_conjunct,
    )


@pytest.mark.parametrize("index_kind", [None, "hash", "sorted"])
@pytest.mark.parametrize("seed", range(4))
def test_unseen_operands_equal_the_row_path(seed, index_kind):
    # One warm columnar site answers query after query it has never seen;
    # every answer must be the row path's, object by object, with meters.
    rng = random.Random(1996 + seed)
    warm = make_db(random_site(rng))
    if index_kind is not None:
        warm.create_index("C", "a", kind=index_kind)
    probed = 0
    for _ in range(40):
        query = random_query(rng)
        result = assert_execute_local_is_reference(warm, query)
        probed += result.index_probe is not None
        assert_collect_unsolved_is_reference(warm, query)
    assert (probed > 0) == (index_kind is not None)
