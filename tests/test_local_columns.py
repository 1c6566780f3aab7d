"""A local result is columns; a row is a view.

The columnar ``LocalResultSet`` against the per-object reference (the
``rows`` view, the books shared per status pattern, and that no book
outlives its execution), ``certify`` reading the columns (binding
merge, the GOid column and when it is read again), and the export fast
path.
"""

import dataclasses
import hashlib
import json

import pytest

from helpers import make_workload
from test_columnar import local_query, make_db, mixed_rows
from repro.conditions.recertify import LocalizedRepairState
from repro.core.certification import CertificationStats, VerdictIndex, certify
from repro.core.engine import GlobalQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.query import Op, Path, Predicate, Query
from repro.core.results import (
    GlobalResult,
    ResultKind,
    ResultSet,
    answer_digest,
    export_value,
)
from repro.core.strategies import base
from repro.core.tvl import TV
from repro.difftest.reference import (
    certification_difference,
    certify_reference,
    collect_unsolved_reference,
    execute_local_reference,
    local_evaluation_difference,
    record_difference,
)
from repro.errors import MappingError
from repro.evolution import EvolutionPlan, resolve_auto
from repro.evolution.controller import EvolutionController
from repro.faults import FaultPlan
from repro.integration.isomerism import table_from_correspondences
from repro.integration.mapping import MappingCatalog, MappingTable
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.local_query import (
    Book,
    LocalQuery,
    LocalResultRow,
    LocalResultSet,
    RemovedPredicate,
    RowKind,
    UnsolvedPredicateOnObject,
)
from repro.objectdb.objects import LocalObject
from repro.objectdb.schema import (
    ClassDef,
    ComponentSchema,
    complex_attr,
    primitive,
)
from repro.objectdb.values import MultiValue, NULL
from repro.planner.constraints import ConstraintCatalog
from repro.sqlx import parse_query
from repro.workload.paper_example import Q1_TEXT, build_school_federation


def pred(path, op, operand):
    return Predicate(path=Path.parse(path), op=op, operand=operand)


A1 = pred("a", Op.EQ, 1)
BQ = pred("b", Op.EQ, "q")
X10 = pred("ref.x", Op.EQ, 10)
#: ``D`` has no ``y``: the site loses the predicate at depth 1.
Y5 = pred("ref.y", Op.EQ, 5)
TARGETS = (Path.of("b"), Path.parse("ref.x"))

QUERIES = {
    "conjunction": local_query(((A1,),), TARGETS),
    "disjunction": local_query(((A1,), (BQ,)), TARGETS),
    "nested": local_query(((X10,),), TARGETS),
    "everything": local_query((), TARGETS),
    "removed": LocalQuery(
        db_name="DB", range_class="C", targets=TARGETS, where=((A1,),),
        removed=(RemovedPredicate(Y5, 1),), removed_by_conjunct=((Y5,),),
    ),
}


# --- the rows view -----------------------------------------------------------


class TestRowsView:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_rows_equal_the_reference_row_for_row(self, name):
        db, query = make_db(mixed_rows()), QUERIES[name]
        got = db.execute_local(query)
        want = execute_local_reference(db, query)
        assert local_evaluation_difference(got, want) is None
        assert got.rows is got.rows  # materialised once, kept
        assert len(got.rows) == len(want.rows) > 0
        for mine, theirs in zip(got.rows, want.rows):
            assert mine.loid == theirs.loid
            assert mine.class_name == theirs.class_name == "C"
            assert mine.kind is theirs.kind
            assert list(mine.bindings.items()) == list(theirs.bindings.items())
            assert mine.unsolved == theirs.unsolved
            assert mine.unsolved_items == theirs.unsolved_items
            assert mine.predicate_status == theirs.predicate_status

    def test_a_walk_miss_binds_null(self):
        got = make_db(mixed_rows()).execute_local(QUERIES["everything"])
        bound = {row.loid.value: row.bindings for row in got.rows}
        assert bound["c1"] == {TARGETS[0]: "p", TARGETS[1]: 10}
        assert bound["c2"] == {TARGETS[0]: "q", TARGETS[1]: NULL}  # d2.x null
        assert bound["c4"] == {TARGETS[0]: "p", TARGETS[1]: NULL}  # dangling
        assert bound["c5"] == {TARGETS[0]: NULL, TARGETS[1]: NULL}

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_one_status_dict_per_pattern_one_book_without_unsolved(self, name):
        got = make_db(mixed_rows()).execute_local(QUERIES[name])
        by_pattern = {}
        for book, row in zip(got.books, got.rows):
            assert row.predicate_status is book.predicate_status
            pattern = tuple(book.predicate_status.items())
            first = by_pattern.setdefault(pattern, book)
            assert book.predicate_status is first.predicate_status
            if not (book.unsolved or book.unsolved_items):
                assert book.kind is first.kind
            if TV.UNKNOWN not in book.predicate_status.values():
                assert book is first and book.kind is RowKind.CERTAIN

    def test_a_result_built_from_rows_round_trips(self):
        db, query = make_db(mixed_rows()), QUERIES["disjunction"]
        kernel = db.execute_local(query)
        built = LocalResultSet(
            db_name="DB", range_class="C", rows=kernel.rows,
            objects_scanned=kernel.objects_scanned,
            comparisons=kernel.comparisons, derefs=kernel.derefs,
        )
        assert built.rows is kernel.rows
        assert record_difference(built, kernel) is None
        ids, at, books, values = built.as_columns()
        k_ids, k_at, k_books, k_values = kernel.as_columns()
        assert [ids.loids[r] for r in at] == [k_ids.loids[r] for r in k_at]
        assert books == k_books
        assert all(
            mine.predicate_status is theirs.predicate_status
            for mine, theirs in zip(books, k_books)
        )
        assert list(values.items()) == list(k_values.items())

    def test_rows_appended_before_the_columns_are_read_count(self):
        result = LocalResultSet(db_name="DB", range_class="C")
        assert result.rows == [] and result.books == []
        result = LocalResultSet(db_name="DB", range_class="C")
        row = LocalResultRow(
            LOid("DB", "c1"), "C", RowKind.CERTAIN, {TARGETS[0]: "p"},
            predicate_status={A1: TV.TRUE},
        )
        result.rows.append(row)  # as execute_local_reference builds one
        ids, at, books, values = result.as_columns()
        assert [ids.loids[r] for r in at] == [row.loid]
        assert books == [Book(RowKind.CERTAIN, row.predicate_status)]
        assert values == {TARGETS[0]: ["p"]}

    def test_an_empty_multivalue_is_null_in_a_value_column(self):
        result = LocalResultSet(db_name="DB", range_class="C", rows=[
            LocalResultRow(
                LOid("DB", "c1"), "C", RowKind.CERTAIN,
                {TARGETS[0]: MultiValue([])},
            ),
        ])
        assert result.as_columns()[3] == {TARGETS[0]: [NULL]}


def held_books(extent):
    """Every :class:`Book` the extent's containers hold, however deep."""
    stack = list(vars(extent).values())
    while stack:
        obj = stack.pop()
        if isinstance(obj, Book):
            yield obj
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set)):
            stack.extend(obj)


class TestBookkeepingMemo:
    """A book is built per execution: no book outlives the call, and
    what an unseen operand leaves is its query shape's one layout."""

    def test_unseen_operands_keep_nothing_per_query_shape(self):
        values = [NULL if i % 10 == 0 else i for i in range(60)]
        db = make_db([(f"c{i}", {"a": v}) for i, v in enumerate(values)])
        nulls = {i for i, v in enumerate(values) if v is NULL}
        for bound in range(200):
            query = local_query(((pred("a", Op.LT, bound + 0.5),),))
            got = db.execute_local(query)
            assert len(got.rows) == len(nulls) + min(bound, 59) + 1 - len(
                [i for i in nulls if i <= bound]
            )
            assert local_evaluation_difference(
                got, execute_local_reference(db, query)
            ) is None
        assert list(held_books(db.columnar_extent("C"))) == []
        assert len(db.columnar_extent("C")._layouts) == 1

    def test_a_query_without_unsolved_data_leaves_no_memo(self):
        db = make_db([(f"c{i}", {"a": i}) for i in range(20)])
        for bound in range(20):
            query = local_query(((pred("a", Op.GE, bound),),))
            assert local_evaluation_difference(
                db.execute_local(query), execute_local_reference(db, query)
            ) is None
        assert list(held_books(db.columnar_extent("C"))) == []

    def test_a_repeated_query_rebuilds_its_books(self):
        db = make_db([
            (f"c{i}", {"a": NULL if i % 3 == 0 else i}) for i in range(12)
        ])
        query = local_query(((pred("a", Op.LT, 7),),))
        first, again = (
            db.execute_local(query).as_columns()[2] for _ in range(2)
        )
        owned = [i for i, book in enumerate(first) if book.unsolved]
        assert owned and first == again
        assert all(first[i] is not again[i] for i in owned)


# --- unsolved data is deduplicated by identity -------------------------------


class TestUnsolvedIdentity:
    """One relative predicate object per (predicate, blocking depth) and
    extent version: equal means identical, so identity deduplicates."""

    def assert_is_reference(self, db, query):
        got = db.execute_local(query)
        assert local_evaluation_difference(
            got, execute_local_reference(db, query)
        ) is None
        assert local_evaluation_difference(
            db.collect_unsolved(query), collect_unsolved_reference(db, query)
        ) is None
        return got

    def test_one_predicate_removed_from_two_conjuncts(self):
        query = LocalQuery(
            db_name="DB", range_class="C", targets=TARGETS,
            where=((A1,), (BQ,)),
            removed=(RemovedPredicate(Y5, 1),),
            removed_by_conjunct=((Y5,), (Y5,)),
        )
        got = self.assert_is_reference(make_db(mixed_rows()), query)
        for row in got.rows:
            named = [u for item in row.unsolved_items for u in item.unsolved]
            named += list(row.unsolved)
            assert len(named) == len({id(u) for u in named})
            assert sum(u.original == Y5 for u in named) == 1

    def test_one_predicate_at_two_depths(self):
        # Removed at depth 1 and evaluated (missing at depth 0 or 1): rows
        # blocked at the same object by both get one relative, not two.
        nested = pred("ref.x", Op.EQ, 10)
        query = LocalQuery(
            db_name="DB", range_class="C", targets=TARGETS,
            where=((nested,),),
            removed=(RemovedPredicate(nested, 1),),
            removed_by_conjunct=((nested,),),
        )
        db = make_db(mixed_rows())
        got = self.assert_is_reference(db, query)
        col = db.columnar_extent("C")
        layout = col.unsolved_layout([(nested.path, None), (nested.path, 1)])
        _, at, books, _ = got.as_columns()
        book_of = dict(zip(at, books))
        shared = 0
        for r, (shape, holders, _) in layout.rows.items():
            root, items = layout.shapes[shape]
            book = book_of[r]
            for held, unsolved in [(root, book.unsolved)] + [
                (pairs, item.unsolved)
                for pairs, item in zip(items, book.unsolved_items)
            ]:
                forms = [layout.pairs[i] for i in held]
                if {probe for probe, _ in forms} == {0, 1}:
                    assert len(unsolved) == 1
                    assert unsolved[0] is col.relative(nested, forms[0][1])[0]
                    shared += 1
        assert shared
        c2 = next(row for row in got.rows if row.loid.value == "c2")
        assert [len(item.unsolved) for item in c2.unsolved_items] == [1]


# --- PL's scan reads a layout kept per path and depth ------------------------


def assert_scan_is_reference(db, query):
    got = db.collect_unsolved(query)
    assert local_evaluation_difference(
        got, collect_unsolved_reference(db, query)
    ) is None
    return got


class TestUnsolvedLayout:
    """Where PL's scan finds unsolved data depends on paths and depths:
    one layout per query shape, never read across a data version."""

    def test_two_operands_of_one_shape_build_the_layout_once(self):
        db = make_db(mixed_rows())
        extent = db.columnar_extent("C")
        kept = []
        for operand in (10, 11):
            lost = pred("ref.y", Op.LT, operand)
            assert_scan_is_reference(db, LocalQuery(
                db_name="DB", range_class="C", targets=TARGETS,
                where=((pred("ref.x", Op.EQ, operand), A1),),
                removed=(RemovedPredicate(lost, 1),),
                removed_by_conjunct=((lost,),),
            ))
            kept.append(list(extent._layouts.values()))
        assert db.columnar_extent("C") is extent
        assert len(kept[0]) == 1 and kept[1][0] is kept[0][0]
        assert len(kept[1]) == 1

    def test_one_path_removed_at_two_depths_reads_two_layouts(self):
        db = make_db(mixed_rows())
        for depth in (1, 0):
            assert_scan_is_reference(db, LocalQuery(
                db_name="DB", range_class="C", targets=TARGETS,
                where=((A1,),), removed=(RemovedPredicate(Y5, depth),),
                removed_by_conjunct=((Y5,),),
            ))
        assert len(db.columnar_extent("C")._layouts) == 2

    def test_an_item_reached_two_ways_keeps_the_first_prefix(self):
        # Both predicates block at d1, reached through ``alt`` and then
        # through ``ref``: the item is reported as the scan first met it.
        db = ComponentDatabase(ComponentSchema.of("DB", [
            ClassDef.of("C", [complex_attr("ref", "D"),
                              complex_attr("alt", "D")]),
            ClassDef.of("D", [primitive("x")]),
        ]))
        d1 = LOid("DB", "d1")
        db.insert(LocalObject(d1, "D", {"x": NULL}))
        db.insert(LocalObject(LOid("DB", "c1"), "C", {"ref": d1, "alt": d1}))
        query = local_query(
            ((pred("alt.x", Op.EQ, 1), pred("ref.x", Op.EQ, 1)),), TARGETS
        )
        got = db.execute_local(query)
        assert local_evaluation_difference(
            got, execute_local_reference(db, query)
        ) is None
        scan = assert_scan_is_reference(db, query)[0]
        for items in (got.rows[0].unsolved_items, scan.all_items()):
            assert [(item.loid, item.reached_via) for item in items] == [
                (d1, Path.of("alt"))
            ]
            assert len(items[0].unsolved) == 2

    @staticmethod
    def null_a_branch_reference(system, query):
        """Null the ``ref`` of the first DB1 branch object some root
        reaches through a non-null ``ref``; returns the site."""
        db = system.db("DB1")
        for root in db.extent("K1").values():
            branch = db.deref(root.values.get("ref", NULL))
            if branch is not None and db.deref(
                branch.values.get("ref", NULL)
            ) is not None:
                branch.values["ref"] = NULL
                system.note_mutation("DB1", branch)
                return "DB1"
        raise AssertionError("no branch object holds a live reference")

    @staticmethod
    def insert_a_root(system, query):
        """Insert a DB2 root copying the first one with unsolved data;
        returns the site."""
        db = system.db("DB2")
        local = system.decompose(query).local_queries["DB2"]
        first = next(iter(db.collect_unsolved(local)[0].per_root))
        values = dict(db.get(first).values)
        db.insert(LocalObject(LOid("DB2", "inserted"), "K1", values),
                  validate=False)
        return "DB2"

    @pytest.mark.parametrize("change", ["null_a_branch_reference",
                                        "insert_a_root"])
    def test_a_warm_database_reads_what_a_fresh_one_does(self, change):
        workload = make_workload(1996)
        query = workload.query

        def scans(system):
            local = system.decompose(query).local_queries
            return {
                db_name: (system.db(db_name), local_query)
                for db_name, local_query in sorted(local.items())
            }

        warm, fresh = workload.system, make_workload(1996).system
        before = {
            db_name: db.collect_unsolved(local_query)
            for db_name, (db, local_query) in scans(warm).items()
        }
        for db, local_query in scans(warm).values():
            db.execute_local(local_query)  # warms the maybe rows' layout
        changed = getattr(self, change)(warm, query)
        assert getattr(self, change)(fresh, query) == changed
        fresh_scans = scans(fresh)
        for db_name, (db, local_query) in scans(warm).items():
            got = assert_scan_is_reference(db, local_query)
            fresh_db, fresh_query = fresh_scans[db_name]
            assert local_evaluation_difference(
                got, fresh_db.collect_unsolved(fresh_query)
            ) is None
            if db_name == changed:
                assert local_evaluation_difference(
                    got, before[db_name]
                ) is not None
            evaluated = db.execute_local(local_query)
            assert local_evaluation_difference(
                evaluated, execute_local_reference(db, local_query)
            ) is None
            assert local_evaluation_difference(
                evaluated, fresh_db.execute_local(fresh_query)
            ) is None


# --- certify over the columns ------------------------------------------------


K, V, M = Path.of("k"), Path.of("v"), Path.of("m")
P = pred("a", Op.EQ, 1)
QUERY = Query.conjunctive("S", ["k", "v", "m"], [P])
SITES = ("DB1", "DB2", "DB3")


def site_row(db, bindings, value="s1"):
    return LocalResultRow(
        LOid(db, value), "S", RowKind.CERTAIN, bindings,
        predicate_status={P: TV.TRUE},
    )


def one_entity_catalog(sites=SITES):
    catalog = MappingCatalog()
    catalog.register(table_from_correspondences(
        "S", [(GOid("g1"), [LOid(db, "s1") for db in sites])]
    ))
    return catalog


def certified_both_ways(catalog, local):
    stats, expected_stats = CertificationStats(), CertificationStats()
    answer = certify(QUERY, None, catalog, local, VerdictIndex(), stats)
    expected = certify_reference(
        QUERY, None, catalog, local, VerdictIndex(), expected_stats
    )
    assert certification_difference(
        answer, stats, expected, expected_stats
    ) is None
    return answer


class TestBindingMerge:
    def merged(self, *per_site):
        sites = SITES[:len(per_site)]
        local = {
            db: LocalResultSet(db_name=db, range_class="S", rows=[
                site_row(db, bindings)
            ])
            for db, bindings in zip(sites, per_site)
        }
        answer = certified_both_ways(one_entity_catalog(sites), local)
        (result,) = answer.certain
        return result.bindings

    def test_first_non_null_wins(self):
        assert self.merged(
            {K: 1, V: NULL, M: NULL},
            {K: 2, V: "second", M: NULL},
            {K: 3, V: "third", M: NULL},
        ) == {K: 1, V: "second", M: NULL}

    def test_a_site_without_the_target_is_null_there(self):
        assert self.merged({K: 1}, {V: "x"}) == {K: 1, V: "x", M: NULL}

    def test_an_empty_multivalue_is_missing_data(self):
        assert self.merged(
            {K: 1, V: NULL, M: MultiValue([])},
            {K: 1, V: NULL, M: "scalar"},
        ) == {K: 1, V: NULL, M: "scalar"}
        assert self.merged({K: 1, V: NULL, M: MultiValue([])}) == {
            K: 1, V: NULL, M: NULL,
        }

    def test_multivalues_union_with_the_scalars_beside_them(self):
        assert self.merged(
            {K: 1, V: NULL, M: "a"},
            {K: 1, V: NULL, M: MultiValue(["b", "c"])},
            {K: 1, V: NULL, M: MultiValue(["c", "d"])},
        ) == {K: 1, V: NULL, M: MultiValue(["a", "b", "c", "d"])}
        assert self.merged({K: 1, V: NULL, M: MultiValue(["b"])})[M] == (
            MultiValue(["b"])
        )


class TestGoidColumn:
    def local(self, *values):
        return {"DB1": LocalResultSet(db_name="DB1", range_class="S", rows=[
            site_row("DB1", {K: value}, value) for value in values
        ])}

    def test_an_unmapped_loid_raises_as_the_reference_does(self):
        outcomes = []
        for run in (certify, certify_reference):
            catalog = MappingCatalog()
            table = catalog.table("S")
            table.add(GOid("g1"), LOid("DB1", "s1"))
            table.add(GOid("g3"), LOid("DB1", "s3"))
            with pytest.raises(MappingError) as raised:
                run(
                    QUERY, None, catalog, self.local("s1", "s2", "s3"),
                    VerdictIndex(), CertificationStats(),
                )
            outcomes.append(
                (str(raised.value), table.stats.hits, table.stats.misses)
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (
            "local result row s2@DB1 has no GOid for root class 'S'"
        )
        assert outcomes[0][1:] == (1, 1)

    def test_the_column_is_read_again_when_the_table_moves(self):
        catalog = MappingCatalog()
        table = catalog.table("S")
        table.add(GOid("g1"), LOid("DB1", "s1"))
        local = self.local("s1", "s2")
        with pytest.raises(MappingError):
            certify(QUERY, None, catalog, local, VerdictIndex())
        table.add(GOid("g2"), LOid("DB1", "s2"))  # same result, same ids
        answer = certified_both_ways(catalog, local)
        assert [r.goid.value for r in answer.certain] == ["g1", "g2"]
        table.discard_db("DB1")
        with pytest.raises(MappingError):
            certify(QUERY, None, catalog, local, VerdictIndex())
        # A table registered in its place is not the table the column
        # was read off, whatever its counter says.
        replacement = MappingTable(global_class="S")
        replacement.add(GOid("h1"), LOid("DB1", "s1"))
        replacement.add(GOid("h2"), LOid("DB1", "s2"))
        catalog.register(replacement)
        answer = certified_both_ways(catalog, local)
        assert [r.goid.value for r in answer.certain] == ["h1", "h2"]

    def test_counters_and_the_read_only_lookup(self):
        table = MappingTable(global_class="S")
        seen = [table.mutations]
        table.add(GOid("g1"), LOid("DB1", "s1"))
        seen.append(table.mutations)
        table.add(GOid("g1"), LOid("DB2", "s1"))
        seen.append(table.mutations)
        MappingCatalog().register(table)
        seen.append(table.mutations)
        assert table.discard_db("DB3") == 0
        assert table.mutations == seen[-1]  # nothing removed, nothing moved
        assert table.discard_db("DB2") == 1
        seen.append(table.mutations)
        assert seen == sorted(set(seen))
        first = table.placements(GOid("g1"))
        assert (table.stats.hits, table.stats.misses) == (0, 1)
        assert table.placements(GOid("g1")) is first  # the memo, no copy
        copy = table.loids_of(GOid("g1"))
        assert copy == first and copy is not first
        assert (table.stats.hits, table.stats.misses) == (2, 1)


# --- no stale GOid column through the engine ---------------------------------


def bl_session(system):
    return GlobalQueryEngine(system).session("bl", strategy="BL")


def assert_same_report(got, want):
    """Answers, conditions, sim times, events and every work counter but
    the mapping memo's traffic (a federation that answered before hits)."""
    assert record_difference(got.results, want.results) is None
    mine, theirs = (dataclasses.asdict(r.metrics) for r in (got, want))
    for metrics in (mine, theirs):
        assert metrics["work"]["comparisons"] > 0
        del metrics["work"]["cache_hits"], metrics["work"]["cache_misses"]
    assert mine == theirs
    assert got.availability == want.availability


def assert_warm_is_fresh(session, query, rebuild, **execute):
    """*session*'s federation has answered before (every extent holds a
    GOid column); *rebuild* returns its twin built and mutated anew."""
    first = session.execute(query, **execute)
    again = session.execute(query, **execute)
    fresh = bl_session(rebuild()).execute(query, **execute)
    assert_same_report(first, fresh)
    assert_same_report(again, fresh)
    return first


class TestNoStaleGoidColumn:
    def test_registration_late_mapping_and_excision(self):
        workload = make_workload(1996)
        root = workload.query.range_class
        attr = workload.query.where[0][0].path.first
        # Every root object answers: an unmapped one cannot hide.
        query = Query(range_class=root, targets=workload.query.targets)

        def register(system):
            db_name = system.global_schema.databases_of(root)[0]
            key = system.global_schema.key_attribute(root)
            system.register_entity(root, {db_name: {key: 10**9, attr: 0}})

        def map_an_unmapped_object(system):
            # The extent (and its GOid column) exists before the mapping.
            db_name = system.global_schema.databases_of(root)[0]
            local = system.global_schema.constituent_class(db_name, root)
            template = next(iter(system.db(db_name).extent(local).values()))
            loid = LOid(db_name, "late")
            system.db(db_name).insert(LocalObject(
                loid, local, dict(template.values)
            ), validate=False)
            with pytest.raises(MappingError):
                bl_session(system).execute(query)
            system.catalog.table(root).add(GOid("g-late"), loid)

        session = bl_session(workload.system)
        applied = []

        def rebuild():
            system = make_workload(1996).system
            for mutate in applied:
                mutate(system)
            return system

        sizes = [len(assert_warm_is_fresh(session, query, rebuild).results)]
        for mutate in (register, map_an_unmapped_object):
            mutate(workload.system)
            applied.append(mutate)
            sizes.append(
                len(assert_warm_is_fresh(session, query, rebuild).results)
            )
        assert sizes[0] < sizes[1] < sizes[2]  # each reached the answer
        # A site struck from the tables while it still answers: its rows
        # lose their GOids here as they do in the twin.
        messages = []
        for system in (workload.system, rebuild()):
            system.catalog.discard_db(system.site_names[-1])
            with pytest.raises(MappingError) as raised:
                bl_session(system).execute(query)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("spec", ["join@1", "leave@1", "join@1,leave@2"])
    def test_evolution_join_and_leave(self, spec):
        workload = make_workload(1996)
        query = workload.query
        plan = resolve_auto(
            EvolutionPlan.from_spec(spec, seed=7), workload.system, query
        )
        session = bl_session(workload.system)
        assert_warm_is_fresh(session, query, lambda: make_workload(1996).system)
        controller = EvolutionController(workload.system, plan)
        while not controller.done:
            controller.step()

            def rebuild():
                system = make_workload(1996).system
                EvolutionController(system, plan).step_to(controller.applied)
                return system

            assert_warm_is_fresh(session, query, rebuild)
        assert controller.applied == 2 * len(plan.events)

    def test_a_resumed_run_reads_goids_at_the_current_catalog(self):
        workload = make_workload(1996)
        system, query = workload.system, workload.query
        root = query.range_class
        session = bl_session(system)
        down = system.site_names[-1]
        degraded = session.execute(query, options=ExecutionOptions(
            fault_plan=FaultPlan.from_spec(f"{down}@0:1e9"), policy="degrade"
        ))
        state = degraded.repair
        assert isinstance(state, LocalizedRepairState)
        held = next(r for r in state.local_results.values() if r.books)
        ids = held.as_columns()[0]
        assert ids.goids is not None  # the degraded run read a column
        # Every entity is re-identified between the outage and the repair.
        renamed = MappingTable(global_class=root)
        for goid, placements in system.catalog.table(root).entries():
            for loid in placements.values():
                renamed.add(GOid("r-" + goid.value), loid)
        system.catalog.register(renamed)
        repaired = session.recertify(degraded)
        assert repaired.repair_summary.fully_repaired
        fresh = bl_session(system).execute(query)
        assert len(fresh.results) > 0
        assert all(r.goid.value.startswith("r-") for r in fresh.results.certain)
        assert record_difference(repaired.results, fresh.results) is None


# --- dispatch planning resolves each relative path once ----------------------


def test_plan_dispatch_walks_the_schema_once_per_relative_path(monkeypatch):
    workload = make_workload(1996)
    system = workload.system
    local = system.decompose(workload.query).local_queries
    calls = []
    real = base.missing_depth

    def counted(schema, db_name, global_class, path):
        calls.append((db_name, global_class, path))
        return real(schema, db_name, global_class, path)

    monkeypatch.setattr(base, "missing_depth", counted)
    planned = 0
    for db_name, query in local.items():
        result = system.db(db_name).execute_local(query)
        items = [i for book in result.books for i in book.unsolved_items]
        del calls[:]
        plan = base.plan_dispatch(db_name, items, system)
        assert len(calls) == len(set(calls))
        pairs = sum(len(i.unsolved) for i in items)
        if plan.assistants_found:
            assert len(calls) < pairs * plan.assistants_found
            planned += 1
        monkeypatch.setattr(base, "missing_depth", real)
        assert base.plan_dispatch(db_name, items, system) == plan
        monkeypatch.setattr(base, "missing_depth", counted)
    assert planned


# --- dispatch planning is pinned on every branch -----------------------------


def dispatch_cases():
    """``(name, system, site, items)``: BL's maybe-row items and PL's
    scan items at every site of three federations, then one list holding
    each Q1 item twice — the second time as an equal but distinct
    relative predicate tuple."""
    workload = make_workload(1996)
    # No DB2 teacher has a speciality: the constraint catalog prunes.
    nulled = build_school_federation()
    for obj in nulled.db("DB2").extent("Teacher").values():
        obj.values["speciality"] = NULL
        nulled.note_mutation("DB2", obj)
    federations = (
        ("gen1996", workload.system, workload.query),
        ("nulled", nulled, parse_query(Q1_TEXT)),
        ("q1", build_school_federation(), parse_query(Q1_TEXT)),
    )
    for fed, system, query in federations:
        local = system.decompose(query).local_queries
        for db_name, lq in sorted(local.items()):
            db = system.db(db_name)
            result = db.execute_local(lq)
            books = [
                item
                for book in result.books if book.kind is RowKind.MAYBE
                for item in book.unsolved_items
            ]
            scan = db.collect_unsolved(lq)[0].all_items()
            yield f"{fed}/{db_name}/BL", system, db_name, books
            yield f"{fed}/{db_name}/PL", system, db_name, scan
    # The last case's items: Q1's PL scan at DB2.
    twins = [
        dataclasses.replace(item, unsolved=tuple(
            UnsolvedPredicateOnObject(u.original, u.relative_path)
            for u in item.unsolved
        ))
        for item in scan
    ]
    yield "q1/twins", system, db_name, scan + twins


def planned(system, db_name, items, mode):
    """The plan of *mode* and the mapping cache traffic it caused."""
    if mode == "signatures" and system.signatures is None:
        system.build_signatures()
    before = system.catalog.cache_stats()
    plan = base.plan_dispatch(
        db_name, items, system,
        use_signatures=mode == "signatures",
        constraints=ConstraintCatalog() if mode == "constraints" else None,
    )
    return plan, system.catalog.cache_stats().delta(before)


def plan_digest(plan, delta):
    return hashlib.sha256(
        repr((plan, delta.hits, delta.misses)).encode()
    ).hexdigest()[:16]


#: ``plan_digest`` of every case and mode, recorded before phase O was
#: planned per group, with (requests, assistants dispatched, checks
#: pruned, signature comparisons) beside it to read a failure by.
DISPATCH_PINS = {
    "gen1996/DB1/BL/plain": ("e510e8623b5d11fa", 3, 4, 0, 0),
    "gen1996/DB1/BL/signatures": ("3b058dbe8a3bba65", 2, 3, 0, 25),
    "gen1996/DB1/BL/constraints": ("021f301ff2327dff", 3, 4, 0, 0),
    "gen1996/DB1/PL/plain": ("ade9d2127985cabc", 8, 43, 0, 0),
    "gen1996/DB1/PL/signatures": ("0c0627b922449c80", 7, 27, 0, 193),
    "gen1996/DB1/PL/constraints": ("8585cd1a83876419", 8, 43, 0, 0),
    "gen1996/DB2/BL/plain": ("7494768561e8ed26", 3, 4, 0, 0),
    "gen1996/DB2/BL/signatures": ("1ea0543c3bafb4d7", 2, 3, 0, 15),
    "gen1996/DB2/BL/constraints": ("bee9c1e80e60de4d", 3, 4, 0, 0),
    "gen1996/DB2/PL/plain": ("f35d0accee23212f", 9, 48, 0, 0),
    "gen1996/DB2/PL/signatures": ("907c88e9f4d8ca30", 8, 36, 0, 376),
    "gen1996/DB2/PL/constraints": ("cd0d3630c4e726b9", 9, 48, 0, 0),
    "gen1996/DB3/BL/plain": ("b1eae44933ce492e", 9, 19, 0, 0),
    "gen1996/DB3/BL/signatures": ("f7b4dc71fb406ffb", 4, 5, 0, 69),
    "gen1996/DB3/BL/constraints": ("6b1205e5f646300a", 9, 19, 0, 0),
    "gen1996/DB3/PL/plain": ("5b26a4359058254e", 9, 70, 0, 0),
    "gen1996/DB3/PL/signatures": ("41fdcb4833ac2799", 6, 33, 0, 394),
    "gen1996/DB3/PL/constraints": ("1379b057d6331535", 9, 70, 0, 0),
    "nulled/DB1/BL/plain": ("cb4220d319e8623e", 2, 2, 0, 0),
    "nulled/DB1/BL/signatures": ("4344a299ff63cf3d", 2, 2, 0, 2),
    "nulled/DB1/BL/constraints": ("ae9a1a7d49f433a0", 1, 1, 1, 0),
    "nulled/DB1/PL/plain": ("a7a4667e9361be99", 2, 2, 0, 0),
    "nulled/DB1/PL/signatures": ("4344a299ff63cf3d", 2, 2, 0, 2),
    "nulled/DB1/PL/constraints": ("ae9a1a7d49f433a0", 1, 1, 1, 0),
    "nulled/DB2/BL/plain": ("ea4eda1917f570a7", 2, 2, 0, 0),
    "nulled/DB2/BL/signatures": ("52b7f607a9689355", 2, 2, 0, 2),
    "nulled/DB2/BL/constraints": ("c2b0080ca39e3a4f", 2, 2, 0, 0),
    "nulled/DB2/PL/plain": ("b1394b74667478ed", 2, 2, 0, 0),
    "nulled/DB2/PL/signatures": ("9a8ce91480013097", 2, 2, 0, 3),
    "nulled/DB2/PL/constraints": ("b1394b74667478ed", 2, 2, 0, 0),
    "q1/DB1/BL/plain": ("cb4220d319e8623e", 2, 2, 0, 0),
    "q1/DB1/BL/signatures": ("dcafe4edecdc5d53", 1, 1, 0, 2),
    "q1/DB1/BL/constraints": ("a7a4667e9361be99", 2, 2, 0, 0),
    "q1/DB1/PL/plain": ("a7a4667e9361be99", 2, 2, 0, 0),
    "q1/DB1/PL/signatures": ("dcafe4edecdc5d53", 1, 1, 0, 2),
    "q1/DB1/PL/constraints": ("a7a4667e9361be99", 2, 2, 0, 0),
    "q1/DB2/BL/plain": ("04c2a04bf3fadd77", 1, 1, 0, 0),
    "q1/DB2/BL/signatures": ("24fae721cdcb311d", 1, 1, 0, 1),
    "q1/DB2/BL/constraints": ("48d3138a8581bac3", 1, 1, 0, 0),
    "q1/DB2/PL/plain": ("e5e5b40a4885837c", 2, 2, 0, 0),
    "q1/DB2/PL/signatures": ("9a8ce91480013097", 2, 2, 0, 3),
    "q1/DB2/PL/constraints": ("b1394b74667478ed", 2, 2, 0, 0),
    "q1/twins/plain": ("af577fdd33379520", 2, 2, 0, 0),
    "q1/twins/signatures": ("472059acb9d7c53c", 2, 2, 0, 6),
    "q1/twins/constraints": ("af577fdd33379520", 2, 2, 0, 0),
}


def test_plan_dispatch_is_pinned_on_every_branch():
    got = {}
    for name, system, db_name, items in dispatch_cases():
        for mode in ("plain", "signatures", "constraints"):
            plan, delta = planned(system, db_name, items, mode)
            got[f"{name}/{mode}"] = (
                plan_digest(plan, delta), len(plan.requests),
                plan.assistants_dispatched, plan.checks_pruned,
                plan.signature_comparisons,
            )
    assert got == DISPATCH_PINS


def test_equal_relatives_plan_as_the_same_relatives():
    *_, (name, system, db_name, items) = dispatch_cases()
    half = len(items) // 2
    for mode in ("plain", "signatures", "constraints"):
        twins, delta = planned(system, db_name, items, mode)
        same, same_delta = planned(system, db_name, items[:half] * 2, mode)
        assert twins == same and delta.lookups == same_delta.lookups


# --- export ------------------------------------------------------------------


class Exotic:
    def __str__(self):
        return "exotic"


def test_export_round_trip_pins_every_kind_of_value():
    targets = tuple(Path.of(name) for name in "abcdefgh")
    values = (
        True, 7, 2.5, "text", NULL, MultiValue([3, 1, "x"]), GOid("g9"),
        LOid("DB1", "s1"),
    )
    unsolved = (pred("a", Op.EQ, 1),)
    answer = ResultSet(targets=targets)
    answer.add(GlobalResult(
        GOid("g1"), ResultKind.CERTAIN, dict(zip(targets, values))
    ))
    answer.add(GlobalResult(
        GOid("g2"), ResultKind.MAYBE, {targets[0]: Exotic()}, unsolved,
        notes=("uncertified: site DB2 unavailable",),
    ))
    exported = answer.to_dicts()
    assert exported == [
        {
            "goid": "g1", "kind": "certain", "a": True, "b": 7, "c": 2.5,
            "d": "text", "e": None, "f": [1, 3, "x"], "g": "g9",
            "h": "s1@DB1",
        },
        {
            "goid": "g2", "kind": "maybe", "a": "exotic", "b": None,
            "c": None, "d": None, "e": None, "f": None, "g": None, "h": None,
            "unsolved": ["a = 1"],
            "notes": ["uncertified: site DB2 unavailable"],
        },
    ]
    assert type(exported[0]["a"]) is bool and type(exported[0]["b"]) is int
    for result, row in zip(answer.all_results(), exported):
        for target in targets:
            assert row[str(target)] == export_value(result.value(target))
    assert json.loads(answer.to_json()) == exported
    assert answer_digest(answer) == "c6799374fe63"  # recorded at the parent
