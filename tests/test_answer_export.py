"""The answer export: one encoder, and certain rows that stay columns.

* The digest law: ``answer_digest(rs)`` is the sha256 of
  ``json.dumps(rs.to_dicts(), sort_keys=True)``, first 12 hex characters,
  for any answer — column-backed or row-backed, before and after its
  certain rows are first read.
* A target named like one of the row's own export keys (``goid``,
  ``kind``, ``unsolved``, ``notes``) is exported as ``"$" + name`` and
  never overwrites the row's key.
* A CA answer keeps its certain rows as columns: executing, counting,
  sorting, summarising and digesting build no certain ``GlobalResult``.
"""

import dataclasses
import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_workload
from repro.core.engine import GlobalQueryEngine
from repro.core.query import Op, Path, Predicate
from repro.core.results import (
    GlobalResult,
    ResultKind,
    ResultSet,
    answer_digest,
)
from repro.core.strategies.centralized import demote_outerjoin_incomplete
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.values import NULL, MultiValue
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
