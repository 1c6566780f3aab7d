"""The answer export: one encoder, and certain rows that stay columns.

* The digest law: ``answer_digest(rs)`` is the sha256 of
  ``json.dumps(rs.to_dicts(), sort_keys=True)``, first 12 hex characters,
  for any answer — column-backed or row-backed, before and after its
  certain rows are first read.
* A target named like one of the row's own export keys (``goid``,
  ``kind``, ``unsolved``, ``notes``) is exported as ``"$" + name`` and
  never overwrites the row's key.
* A CA, BL or PL answer keeps its certain rows as columns: executing,
  counting, sorting, summarising and digesting build no certain
  ``GlobalResult``.
* Binding completion over columns does what it does over rows: the same
  bindings, and the same walks, lookups and fetches.
"""

import copy
import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import context, make_workload
from repro.core.binding_resolution import (
    ResolutionStats,
    _global_walk,
    resolve_missing_bindings,
)
from repro.core.engine import GlobalQueryEngine
from repro.core.query import Op, Path, Predicate
from repro.core.results import (
    GlobalResult,
    ResultKind,
    ResultSet,
    answer_digest,
    same_answers,
)
from repro.core.strategies.centralized import demote_outerjoin_incomplete
from repro.faults import FaultPlan
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.values import NULL, MultiValue, is_null
from repro.traffic import QueryRecord

CERTAIN, MAYBE = ResultKind.CERTAIN, ResultKind.MAYBE


def law(results: ResultSet) -> str:
    """The digest's definition."""
    text = json.dumps(results.to_dicts(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


# --- generated answers -------------------------------------------------------

TRICKY = (
    "", '"', "\\", "%", "%s", "%%", "{}", "{0}", "\x00", "\n\t", "\x1f",
    "é", "日本", "\U0001d11e", " ", "null", "true",
)
texts = st.one_of(st.sampled_from(TRICKY), st.text(max_size=6))
scalars = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 62, max_value=2 ** 100),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf")]),
    texts,
    st.builds(GOid, texts),
    st.builds(LOid, st.sampled_from(["DB1", "DB2"]), texts),
)
values = st.one_of(
    st.just(NULL),
    scalars,
    st.builds(
        MultiValue, st.lists(st.one_of(scalars, st.just(NULL)), max_size=4)
    ),
)
#: Plain, nested, printing alike (``a.b`` both ways), named like an
#: export key, and characters the layout must escape.
PATHS = (
    Path(("a",)), Path(("b",)), Path(("a", "b")), Path(("a.b",)),
    Path(("goid",)), Path(("kind",)), Path(("unsolved",)), Path(("notes",)),
    Path(("$goid",)), Path(("x%y",)), Path(('q"{}',)), Path(("é",)),
)
targets = st.lists(st.sampled_from(PATHS), max_size=5).map(tuple)
predicates = st.builds(
    Predicate, st.sampled_from(PATHS), st.sampled_from(list(Op)[:6]),
    st.one_of(st.integers(), texts),
)
goids = st.builds(GOid, texts)


@st.composite
def result_rows(draw, kind, on):
    unsolved = draw(st.lists(predicates, max_size=2).map(tuple))
    notes = draw(st.lists(texts, max_size=2).map(tuple))
    bound = draw(st.lists(st.sampled_from(on), max_size=5)) if on else []
    return GlobalResult(
        draw(goids), kind, {t: draw(values) for t in bound}, unsolved, notes
    )


@st.composite
def answers(draw):
    """A row-backed or column-backed answer, maybe rows with unsolved
    predicates and notes, possibly empty."""
    on = draw(targets)
    maybe = draw(st.lists(result_rows(MAYBE, on), max_size=4))
    if draw(st.booleans()):
        certain = draw(st.lists(result_rows(CERTAIN, on), max_size=4))
        return ResultSet(targets=on, certain=certain, maybe=maybe)
    n = draw(st.integers(min_value=0, max_value=4))
    columns = (
        draw(st.lists(goids, min_size=n, max_size=n)),
        [draw(st.lists(values, min_size=n, max_size=n)) for _ in on],
    )
    return ResultSet(targets=on, maybe=maybe, columns=columns)


@settings(max_examples=300, deadline=None)
@given(answers())
def test_digest_is_the_sorted_json_of_the_export(answer):
    digest = answer_digest(answer)
    assert digest == law(answer)
    answer.certain  # a column-backed set builds its rows here
    assert answer_digest(answer) == digest == law(answer)


def test_empty_answer():
    assert answer_digest(ResultSet()) == law(ResultSet())
    assert ResultSet(columns=([], [])).to_dicts() == []


# --- export keys -------------------------------------------------------------


def one(target, goid, kind, value, **extra):
    answer = ResultSet(targets=(target,))
    answer.add(GlobalResult(GOid(goid), kind, {target: value}, **extra))
    return answer


def test_a_target_named_kind_keeps_the_rows_kind():
    kind = Path(("kind",))
    certain, maybe = one(kind, "g1", CERTAIN, 5), one(kind, "g1", MAYBE, 5)
    assert certain.to_dicts() == [
        {"goid": "g1", "kind": "certain", "$kind": 5}
    ]
    assert maybe.to_dicts() == [{"goid": "g1", "kind": "maybe", "$kind": 5}]
    assert answer_digest(certain) != answer_digest(maybe)


def test_a_target_named_goid_keeps_the_rows_goid():
    goid = Path(("goid",))
    first = one(goid, "g1", CERTAIN, "x")
    second = one(goid, "g2", CERTAIN, "x")
    assert first.to_dicts() == [
        {"goid": "g1", "kind": "certain", "$goid": "x"}
    ]
    assert answer_digest(first) != answer_digest(second)


def test_targets_named_unsolved_and_notes_keep_the_rows_keys():
    p = Predicate(Path(("a",)), Op.EQ, 1)
    for name, own, exported in (
        ("unsolved", (p,), [str(p)]),
        ("notes", ("uncertified",), ["uncertified"]),
    ):
        target = Path((name,))
        row = one(target, "g1", MAYBE, 7, **{name: own}).to_dicts()[0]
        assert row == {
            "goid": "g1", "kind": "maybe", "$" + name: 7, name: exported
        }
        bare = one(target, "g1", MAYBE, 7).to_dicts()[0]
        assert bare == {"goid": "g1", "kind": "maybe", "$" + name: 7}


# --- column-backed CA answers ------------------------------------------------


def ca_answer(seed=7):
    workload = make_workload(seed=seed)
    engine = GlobalQueryEngine(workload.system)
    return engine.execute(workload.query, strategy="CA").results


def count_certain_results(monkeypatch):
    built = []
    init = GlobalResult.__init__

    def counting(self, goid, kind, *args, **kwargs):
        if kind is CERTAIN:
            built.append(goid)
        init(self, goid, kind, *args, **kwargs)

    monkeypatch.setattr(GlobalResult, "__init__", counting)
    return built


def test_ca_answer_builds_no_certain_result_until_read(monkeypatch):
    built = count_certain_results(monkeypatch)
    answer = ca_answer()
    n = answer.certain_count
    assert n > 0
    digest, text = answer_digest(answer), answer.to_json()
    maybe = len(answer.maybe)
    assert len(answer) == n + maybe
    assert answer.summary() == f"{n} certain, {maybe} maybe result(s)"
    answer.sort()
    assert built == []
    rows = answer.certain
    assert len(built) == n and answer.certain is rows
    assert [r.goid.value for r in rows] == sorted(r.goid.value for r in rows)
    assert answer_digest(answer) == digest and answer.to_json() == text


def test_ca_answer_digest_is_the_same_before_and_after_its_rows_are_read():
    answer = ca_answer(seed=11)
    before = answer_digest(answer)
    assert before == law(answer)
    answer.certain
    assert answer_digest(answer) == before == law(answer)


def test_read_rows_are_authoritative():
    answer = ca_answer()
    twin = ResultSet(
        answer.targets, list(answer.certain), list(answer.maybe)
    )
    assert answer == twin
    answer.certain.pop()
    assert answer.certain_count == len(twin.certain) - 1
    assert answer_digest(answer) == law(answer) != answer_digest(twin)


def test_demotion_of_a_column_backed_answer():
    answer = ca_answer()
    certain = answer.certain_count
    demoted = demote_outerjoin_incomplete(answer, ["DB2"])
    assert demoted == certain and answer.certain_count == 0
    assert answer_digest(answer) == law(answer)


def test_unsorted_columns_sort_by_goid():
    a, b = Path(("a",)), Path(("b",))
    answer = ResultSet(targets=(a, b), columns=(
        [GOid("g3"), GOid("g1"), GOid("g2")], [[3, 1, 2], ["c", "a", "b"]],
    )).sort()
    rows = [(r.goid.value, r.value(a), r.value(b)) for r in answer.certain]
    assert rows == [("g1", 1, "a"), ("g2", 2, "b"), ("g3", 3, "c")]


# --- column-backed BL and PL answers -----------------------------------------


@pytest.mark.parametrize("strategy", ["BL", "PL"])
def test_localized_answer_keeps_certain_rows_as_columns(
    strategy, monkeypatch
):
    built = count_certain_results(monkeypatch)
    workload = make_workload(seed=7)
    answer = GlobalQueryEngine(workload.system).execute(
        workload.query, strategy=strategy
    ).results
    assert answer.certain_count > 0 and answer._certain is None
    digest, rows = answer_digest(answer), answer.to_dicts()
    assert answer._certain is None and built == []
    twin = copy.deepcopy(answer)
    twin.certain  # the materialised twin
    assert twin._certain is not None and len(built) == answer.certain_count
    assert twin.to_dicts() == rows and answer_digest(twin) == digest
    assert same_answers(answer, twin)


def resolve_row_by_row(system, query, answer, ctx, stats):
    """Binding completion as a walk over result rows: per row, per
    target in order, walk when the binding is NULL or multi-valued."""
    schema = system.global_schema.schema
    for result in answer.all_results():
        touched = False
        for target in answer.targets:
            chain = schema.resolve_path(query.range_class, target.steps)
            current = result.bindings.get(target, NULL)
            if not chain[-1].multi_valued and not is_null(current):
                continue
            value = _global_walk(
                system, result.goid, query.range_class, target.steps,
                chain, ctx, stats,
            )
            if value != current:
                result.bindings[target] = value
                touched = True
        stats.entities_resolved += touched


@pytest.mark.parametrize("outage", [None, "DB2"])
@pytest.mark.parametrize("multi", [True, False])
def test_column_resolution_equals_row_resolution(outage, multi):
    """A NULL single-valued target, a multi-valued one, a nested one and
    a target repeated (``Select X.t0, X.t0``) that the local site bound
    NULL: walking the columns binds and counts what walking rows does."""
    workload = make_workload(seed=7, multi_valued_targets=True)
    system = workload.system
    t0, t1, ref_t0 = Path(("t0",)), Path(("t1",)), Path(("ref", "t0"))
    targets = (t0, t0, t1, ref_t0) if multi else (t0, t0, ref_t0)
    query = dataclasses.replace(workload.query, targets=targets)
    goids = sorted(
        system.catalog.table(query.range_class).goids(), key=str
    )[:12]
    n = len(goids)
    local = {
        t0: [NULL if r % 3 else "local" for r in range(n)],
        t1: [MultiValue(["local"]) if r % 2 else NULL for r in range(n)],
        ref_t0: [NULL if r % 4 else "local" for r in range(n)],
    }
    maybe = GlobalResult(goids[-1], MAYBE, {t0: NULL})

    def ctx():
        if outage is None:
            return context()
        return context(
            fault_plan=FaultPlan.single_site_loss(outage), policy="degrade"
        )

    by_columns = ResultSet(targets, maybe=[copy.deepcopy(maybe)], columns=(
        list(goids), [list(local[t]) for t in targets],
    ))
    by_rows = ResultSet(targets, [
        GlobalResult(goid, CERTAIN, {t: local[t][r] for t in targets})
        for r, goid in enumerate(goids)
    ], [copy.deepcopy(maybe)])
    column_stats, row_stats = ResolutionStats(), ResolutionStats()
    resolve_missing_bindings(system, query, by_columns, ctx(), column_stats)
    resolve_row_by_row(system, query, by_rows, ctx(), row_stats)
    assert by_columns._certain is None
    assert column_stats == row_stats
    assert row_stats.entities_resolved > 0 and row_stats.mapping_lookups > 0
    assert bool(row_stats.skipped_sites) == (outage is not None)
    assert by_columns.to_dicts() == by_rows.to_dicts()
    assert [r.bindings for r in by_columns.all_results()] == [
        r.bindings for r in by_rows.all_results()
    ]
    _, values = by_columns._columns
    assert values[0] == values[1] != local[t0]


# --- traffic records ---------------------------------------------------------


def test_query_record_is_slotted_and_still_a_frozen_record():
    record = QueryRecord(
        worker=0, seq=1, template="scan", submitted_s=1.0, started_s=1.5,
        finished_s=3.0, service_s=1.5, digest="abc",
    )
    assert not hasattr(record, "__dict__")
    assert (record.latency_s, record.wait_s) == (2.0, 0.5)
    moved = dataclasses.replace(record, finished_s=4.0)
    assert moved.latency_s == 3.0 and moved != record
    assert dataclasses.replace(moved, finished_s=3.0) == record
