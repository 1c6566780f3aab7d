"""Secondary indexes: declared access paths and indexed local evaluation.

An index is a declaration; a probe reads the indexed predicate's column
from the site's columnar extent.  Its candidates are every row that
column does not make FALSE, in extent order, so indexed evaluation
answers — rows, maybe rows, and the exception a bad row raises — exactly
as a full scan does, and only scans fewer objects.
"""

import pytest

from repro.core.query import Op, Path, Predicate
from repro.errors import ObjectStoreError, QueryError
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.ids import LOid
from repro.objectdb.local_query import LocalQuery
from repro.objectdb.objects import LocalObject
from repro.objectdb.schema import ClassDef, ComponentSchema, primitive
from repro.objectdb.values import MultiValue, NULL

from test_value_index import COLUMNS, NAN, OPERANDS


def schema():
    return ComponentSchema.of(
        "DB", [ClassDef.of("C", [primitive("a"), primitive("b")])]
    )


def db_of(named_values, index_kind=None):
    """A ``C`` extent of ``(name, a)`` pairs; a missing ``a`` is NULL."""
    db = ComponentDatabase(schema())
    for name, value in named_values:
        values = {} if value is NULL else {"a": value}
        db.insert(LocalObject(LOid("DB", name), "C", values), validate=False)
    if index_kind:
        db.create_index("C", "a", kind=index_kind)
    return db


def candidates(db, op, operand):
    """(candidate names in probe order, the probe) of ``a op operand``."""
    objects, probe = db._select_candidates(query(op, operand))
    return [o.loid.value for o in objects], probe


def outcome(db, q):
    """What a local evaluation answers (rows, maybe rows), or raises."""
    try:
        result = db.execute_local(q)
    except Exception as exc:
        return type(exc), str(exc)
    return (
        [row.loid for row in result.rows],
        [row.loid for row in result.maybe_rows],
    )


class TestHashIndex:
    def make(self):
        return db_of([("x", 1), ("y", 2), ("z", 1), ("n", NULL)], "hash")

    def test_probe_matches_and_nulls(self):
        names, probe = candidates(self.make(), Op.EQ, 1)
        assert names == ["x", "z", "n"]
        assert (probe.index_kind, probe.attribute) == ("hash", "a")

    def test_probe_no_match_still_returns_nulls(self):
        names, probe = candidates(self.make(), Op.EQ, 99)
        assert names == ["n"]
        assert probe.candidates == 1

    def test_supports(self):
        db = self.make()
        assert candidates(db, Op.EQ, 1)[1] is not None
        assert candidates(db, Op.CONTAINS, 1)[1] is not None
        assert candidates(db, Op.LT, 1) == (["x", "y", "z", "n"], None)

    def test_counts(self):
        # A hash probe costs one comparison; a sorted one bisects its
        # entries: one per scalar, one per multi-value member, one per
        # null (an empty multi-value is null).
        rows = [("m", MultiValue([1, 2, 3, 4, 5])), ("s", 6), ("n", NULL),
                ("e", MultiValue([]))]
        assert candidates(db_of(rows, "hash"), Op.EQ, 6)[1].comparisons == 1
        probe = candidates(db_of(rows, "sorted"), Op.EQ, 6)[1]
        assert probe.comparisons == 3  # log2(8 entries), not log2(4 rows)

    def test_multivalue_members_indexed(self):
        db = db_of([("m", MultiValue([1, 2])), ("o", 3)], "hash")
        assert candidates(db, Op.EQ, 1)[0] == ["m"]
        assert candidates(db, Op.EQ, 2)[0] == ["m"]


class TestSortedIndex:
    def make(self):
        rows = [("x", 10), ("y", 20), ("z", 30), ("w", 20), ("n", NULL)]
        return db_of(rows, "sorted")

    def test_eq(self):
        names, probe = candidates(self.make(), Op.EQ, 20)
        assert names == ["y", "w", "n"]
        assert probe.candidates == 3

    def test_lt_le(self):
        db = self.make()
        assert candidates(db, Op.LT, 20)[0] == ["x", "n"]
        assert candidates(db, Op.LE, 20)[0] == ["x", "y", "w", "n"]

    def test_gt_ge(self):
        db = self.make()
        assert candidates(db, Op.GT, 20)[0] == ["z", "n"]
        assert candidates(db, Op.GE, 20)[0] == ["y", "z", "w", "n"]

    def test_incremental_adds_resorted(self):
        db = self.make()
        candidates(db, Op.EQ, 10)  # reads the column once
        db.insert(LocalObject(LOid("DB", "late"), "C", {"a": 15}))
        assert candidates(db, Op.LT, 20)[0] == ["x", "n", "late"]

    def test_unsupported_op(self):
        db = self.make()
        assert candidates(db, Op.CONTAINS, 1)[1] is None
        assert candidates(db, Op.NE, 1)[1] is None

    def test_mixed_types_answer_like_the_scan(self):
        rows = [("i", 1), ("s", "str"), ("n", NULL), ("j", 3)]
        scan, indexed = db_of(rows), db_of(rows, "sorted")
        for op in (Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE):
            for operand in (1, "str", 5):
                q = query(op, operand)
                assert outcome(indexed, q) == outcome(scan, q)
        assert outcome(indexed, query(Op.LT, 5)) == (
            QueryError, "cannot order-compare 'str' with 5"
        )


class TestIndexManager:
    """A database's index declarations."""

    def test_create_and_lookup(self):
        db = db_of([("x", 1)])
        db.create_index("C", "a")
        db.create_index("C", "b", kind="sorted")
        assert db.indexes == {("C", "a"): "hash", ("C", "b"): "sorted"}

    def test_best_for_respects_op(self):
        db = db_of([("x", 1)], "hash")
        assert candidates(db, Op.EQ, 1)[1] is not None
        assert candidates(db, Op.LT, 1)[1] is None

    def test_unknown_kind(self):
        db = db_of([("x", 1)])
        with pytest.raises(ObjectStoreError, match="unknown index kind"):
            db.create_index("C", "a", kind="btree")
        assert db.indexes == {}

    def test_maintain_on_insert(self):
        db = db_of([], "hash")
        db.insert(LocalObject(LOid("DB", "x"), "C", {"a": 5}))
        assert candidates(db, Op.EQ, 5)[0] == ["x"]


def make_db(index_kind=None):
    db = ComponentDatabase(schema())
    for i in range(20):
        db.insert(LocalObject(LOid("DB", f"o{i}"), "C",
                              {"a": i % 5, "b": i}))
    db.insert(LocalObject(LOid("DB", "null"), "C", {"a": NULL, "b": 99}))
    if index_kind:
        db.create_index("C", "a", kind=index_kind)
    return db


def query(op, operand):
    pred = Predicate(path=Path.of("a"), op=op, operand=operand)
    return LocalQuery(
        db_name="DB", range_class="C", targets=(Path.of("b"),),
        where=((pred,),),
    )


class TestIndexedExecution:
    @pytest.mark.parametrize("kind", ["hash", "sorted"])
    def test_answers_identical_to_scan(self, kind):
        scan_result = make_db().execute_local(query(Op.EQ, 3))
        indexed_result = make_db(kind).execute_local(query(Op.EQ, 3))
        assert {r.loid for r in scan_result.rows} == {
            r.loid for r in indexed_result.rows
        }
        assert {r.loid for r in scan_result.maybe_rows} == {
            r.loid for r in indexed_result.maybe_rows
        }

    def test_scan_restricted(self):
        scan_result = make_db().execute_local(query(Op.EQ, 3))
        indexed_result = make_db("hash").execute_local(query(Op.EQ, 3))
        assert scan_result.objects_scanned == 21
        assert indexed_result.objects_scanned == 5  # 4 matches + 1 null
        assert indexed_result.index_probe is not None
        assert indexed_result.index_probe.index_kind == "hash"

    def test_range_uses_sorted_index(self):
        result = make_db("sorted").execute_local(query(Op.LT, 2))
        assert result.index_probe is not None
        # values 0,1 -> 8 objects, + 1 null candidate
        assert result.objects_scanned == 9

    def test_null_candidate_stays_maybe(self):
        result = make_db("hash").execute_local(query(Op.EQ, 3))
        maybe_loids = {r.loid.value for r in result.maybe_rows}
        assert maybe_loids == {"null"}

    def test_index_ignored_for_dnf(self):
        pred_a = Predicate(path=Path.of("a"), op=Op.EQ, operand=3)
        pred_b = Predicate(path=Path.of("b"), op=Op.EQ, operand=0)
        dnf_query = LocalQuery(
            db_name="DB", range_class="C", targets=(Path.of("b"),),
            where=((pred_a,), (pred_b,)),
        )
        result = make_db("hash").execute_local(dnf_query)
        assert result.index_probe is None
        assert result.objects_scanned == 21

    def test_create_index_validates(self):
        db = make_db()
        with pytest.raises(ObjectStoreError):
            db.create_index("C", "ghost")
        from repro.errors import UnknownClassError

        with pytest.raises(UnknownClassError):
            db.create_index("Ghost", "a")

    def test_insert_after_create_is_indexed(self):
        db = make_db("hash")
        db.insert(LocalObject(LOid("DB", "new"), "C", {"a": 3, "b": 1}))
        result = db.execute_local(query(Op.EQ, 3))
        assert LOid("DB", "new") in {r.loid for r in result.rows}


class TestIndexedAnswersAreTheScans:
    """Cases where a probe used to answer differently from the scan."""

    def test_sorted_probe_with_an_operand_of_another_kind(self):
        # It leaked a bare TypeError from the bisection.
        q = query(Op.LT, "x")
        with pytest.raises(QueryError, match="cannot order-compare 0 with 'x'"):
            make_db("sorted").execute_local(q)
        assert outcome(make_db("sorted"), q) == outcome(make_db(), q)

    def test_sorted_index_over_a_nan_keeps_every_match(self):
        # A NaN in the sorted keys broke the bisection: rows were lost.
        rows = [("p", 1.5), ("q", NAN), ("r", 1.5), ("s", 0.5)]
        for op, operand, match in [
            (Op.EQ, 1.5, ["p", "r"]),
            (Op.LT, 5, ["p", "r", "s"]),
            (Op.GE, 1.0, ["p", "r"]),
        ]:
            q = query(op, operand)
            assert outcome(db_of(rows, "sorted"), q) == outcome(db_of(rows), q)
            assert candidates(db_of(rows, "sorted"), op, operand)[0] == match

    def test_hash_contains_reaches_scalar_rows(self):
        # CONTAINS raises on a scalar; the probe skipped scalars unequal
        # to the operand, so the scan raised and the probe did not.
        rows = [("m", MultiValue([3])), ("s", 1), ("n", NULL)]
        q = query(Op.CONTAINS, 3)
        assert outcome(db_of(rows, "hash"), q) == (
            QueryError, "contains requires a multi-valued attribute"
        )
        assert outcome(db_of(rows, "hash"), q) == outcome(db_of(rows), q)

    def test_a_nan_operand_matches_nothing(self):
        rows = [("p", NAN), ("n", NULL)]
        assert candidates(db_of(rows, "hash"), Op.EQ, NAN)[0] == ["n"]
        assert candidates(db_of(rows, "sorted"), Op.EQ, NAN)[0] == ["n"]

    @pytest.mark.parametrize("kind", ["hash", "sorted"])
    @pytest.mark.parametrize("values", COLUMNS.values(), ids=COLUMNS.keys())
    def test_every_cell_answers_like_the_scan(self, values, kind):
        rows = [(f"c{i}", value) for i, value in enumerate(values)]
        scan, indexed = db_of(rows), db_of(rows, kind)
        for op in Op:
            for operand in OPERANDS.values():
                q = query(op, operand)
                assert outcome(indexed, q) == outcome(scan, q), (op, operand)


class TestStaleIndexRegression:
    """In-place mutation must never leave an index probe serving stale
    candidates — the bug :meth:`ComponentDatabase.note_mutation` fixes."""

    def test_mutation_without_hook_serves_stale_bucket(self):
        # Pin the bug's mechanics: a bare values mutation leaves the
        # column already read in place (this is why the hook has to exist).
        db = make_db("hash")
        assert "o3" in candidates(db, Op.EQ, 3)[0]
        db.extent("C")[LOid("DB", "o3")].values["a"] = 4
        assert "o3" in candidates(db, Op.EQ, 3)[0]  # stale!

    def test_note_mutation_refreshes_index(self):
        db = make_db("hash")
        assert "o3" in candidates(db, Op.EQ, 3)[0]
        db.extent("C")[LOid("DB", "o3")].values["a"] = 4
        db.note_mutation("C")
        assert "o3" not in candidates(db, Op.EQ, 3)[0]
        assert "o3" in candidates(db, Op.EQ, 4)[0]

    def test_note_mutation_keeps_indexed_answers_correct(self):
        mutated = make_db("hash")
        obj = mutated.extent("C")[LOid("DB", "o3")]
        obj.values["a"] = 4
        mutated.note_mutation("C")
        # Reference: a fresh unindexed db holding the post-mutation data.
        reference = make_db()
        reference.extent("C")[LOid("DB", "o3")].values["a"] = 4
        reference.note_mutation("C")
        for operand in (3, 4):
            a = mutated.execute_local(query(Op.EQ, operand))
            b = reference.execute_local(query(Op.EQ, operand))
            assert {r.loid for r in a.rows} == {r.loid for r in b.rows}

    def test_note_mutation_without_class_refreshes_everything(self):
        db = make_db("hash")
        assert "o3" in candidates(db, Op.EQ, 3)[0]
        db.extent("C")[LOid("DB", "o3")].values["a"] = 4
        db.note_mutation()  # class unknown: every view is dropped
        assert "o3" not in candidates(db, Op.EQ, 3)[0]

    def test_note_mutation_invalidates_columnar_view(self):
        db = make_db()
        before = db.columnar_extent("C")
        db.extent("C")[LOid("DB", "o3")].values["a"] = 4
        db.note_mutation("C")
        after = db.columnar_extent("C")
        assert after is not before
        assert after.objects[3].values["a"] == 4

    def test_system_note_mutation_resigns_and_bumps(self):
        from repro.workload.paper_example import build_school_federation

        system = build_school_federation()
        system.build_signatures()
        db1 = system.db("DB1")
        student = next(iter(db1.extent("Student").values()))
        old_signature = system.signatures.lookup("Student", student.loid)
        version = system.schema_version
        student.values["age"] = 99
        system.note_mutation("DB1", student)
        assert system.schema_version > version
        new_signature = system.signatures.lookup("Student", student.loid)
        assert new_signature != old_signature

    def test_drop_index(self):
        db = make_db("hash")
        assert db.drop_index("C", "a") == "hash"
        assert db.indexes == {}
        assert db.drop_index("C", "a") is None  # already gone
        assert candidates(db, Op.EQ, 3)[1] is None


class TestIndexedStrategies:
    def test_equivalence_with_indexes_everywhere(self):
        """Indexing every site must not change any strategy's answer."""
        from helpers import make_workload
        from repro.core.engine import GlobalQueryEngine

        plain = make_workload(seed=61, scale=0.03)
        indexed = make_workload(seed=61, scale=0.03)
        for db in indexed.system.databases.values():
            for class_name in db.schema.class_names:
                for attr in db.schema.cls(class_name).primitive_attributes():
                    db.create_index(class_name, attr.name, kind="sorted")
        a = GlobalQueryEngine(plain.system).compare(plain.query)
        b = GlobalQueryEngine(indexed.system).compare(indexed.query)
        from repro.core.results import same_answers

        for name in ("CA", "BL", "PL"):
            assert same_answers(a[name].results, b[name].results)
