"""Tests for multi-hop chase rounds (the blocked-check completion).

A hand-built three-site federation where the data needed by a nested
predicate is spread across a reference chain no single-hop check can
follow:

* DB1 stores the root object ``a`` with ``ref`` pointing at ``b1`` whose
  onward ``ref`` is NULL (missing data);
* DB2 stores ``b``'s isomeric copy ``b2`` with ``ref -> c2``, but ``c``'s
  payload attribute is missing at DB2;
* DB3 stores ``c``'s isomeric copy ``c3`` holding the payload value.

CA assembles the chain by integration; BL/PL must chase: check b2 at DB2
(blocked at c2), then check c3 at DB3.
"""

import pytest

from helpers import context
from repro.core.engine import GlobalQueryEngine
from repro.core.query import Predicate, Query
from repro.core.results import same_answers
from repro.core.system import DistributedSystem
from repro.integration.global_schema import ClassCorrespondence
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.ids import LOid
from repro.objectdb.objects import LocalObject
from repro.objectdb.schema import ClassDef, ComponentSchema, complex_attr, primitive
from repro.objectdb.values import NULL


def build_chain_federation(payload_value: int) -> DistributedSystem:
    """Three sites, classes A -> B -> C, data split as described above."""

    def db(name, classes):
        return ComponentDatabase(ComponentSchema.of(name, classes))

    a_cls = ClassDef.of("A", [primitive("k"), complex_attr("ref", "B")])
    b_full = ClassDef.of("B", [primitive("k"), complex_attr("ref", "C")])
    c_bare = ClassDef.of("C", [primitive("k")])
    c_full = ClassDef.of("C", [primitive("k"), primitive("x")])

    db1 = db("DB1", [a_cls, b_full, c_bare])
    db2 = db("DB2", [a_cls, b_full, c_bare])
    db3 = db("DB3", [a_cls, b_full, c_full])

    # DB1: root a1 -> b1 (ref NULL beyond).
    db1.insert(LocalObject(LOid("DB1", "b1"), "B", {"k": 20, "ref": NULL}))
    db1.insert(
        LocalObject(LOid("DB1", "a1"), "A", {"k": 10, "ref": LOid("DB1", "b1")})
    )
    # DB2: b's copy b2 -> c2 (x missing at DB2: class C lacks it there).
    db2.insert(LocalObject(LOid("DB2", "c2"), "C", {"k": 30}))
    db2.insert(
        LocalObject(LOid("DB2", "b2"), "B", {"k": 20, "ref": LOid("DB2", "c2")})
    )
    # DB3: c's copy c3 holds the payload.
    db3.insert(LocalObject(LOid("DB3", "c3"), "C", {"k": 30, "x": payload_value}))

    return DistributedSystem.build(
        [db1, db2, db3],
        [
            ClassCorrespondence.of(
                "A", [("DB1", "A"), ("DB2", "A"), ("DB3", "A")], "k"
            ),
            ClassCorrespondence.of(
                "B", [("DB1", "B"), ("DB2", "B"), ("DB3", "B")], "k"
            ),
            ClassCorrespondence.of(
                "C", [("DB1", "C"), ("DB2", "C"), ("DB3", "C")], "k"
            ),
        ],
    )


QUERY = Query.conjunctive("A", ["k"], [Predicate.of("ref.ref.x", "=", 7)])


class TestChaseResolution:
    @pytest.mark.parametrize("strategy", ["BL", "PL", "BL-S", "PL-S"])
    def test_satisfying_chain_promotes(self, strategy):
        system = build_chain_federation(payload_value=7)
        engine = GlobalQueryEngine(system)
        ca = engine.execute(QUERY, "CA")
        assert len(ca.results.certain) == 1  # CA assembles the chain
        localized = engine.execute(QUERY, strategy)
        assert same_answers(ca.results, localized.results)

    @pytest.mark.parametrize("strategy", ["BL", "PL"])
    def test_violating_chain_eliminates(self, strategy):
        system = build_chain_federation(payload_value=99)
        engine = GlobalQueryEngine(system)
        ca = engine.execute(QUERY, "CA")
        assert len(ca.results) == 0
        localized = engine.execute(QUERY, strategy)
        assert same_answers(ca.results, localized.results)

    def test_chase_costs_accounted(self):
        system = build_chain_federation(payload_value=7)
        engine = GlobalQueryEngine(system)
        outcome = engine.execute(QUERY, "BL")
        # Chase rounds touched DB2 (b2) and DB3 (c3).
        assert outcome.metrics.work.assistants_checked >= 2

    def test_without_chain_data_stays_maybe(self):
        """If DB3's copy also lacked the payload, everyone stays maybe."""
        system = build_chain_federation(payload_value=7)
        # Null out the payload at DB3.
        c3 = system.db("DB3").get(LOid("DB3", "c3"))
        c3.values["x"] = NULL
        engine = GlobalQueryEngine(system)
        outcomes = engine.compare(QUERY)
        assert len(outcomes["CA"].results.maybe) == 1
        assert len(outcomes["CA"].results.certain) == 0


class TestChaseUnit:
    def test_chase_rounds_bounded_by_path_length(self):
        from repro.core.certification import VerdictIndex
        from repro.core.strategies.base import chase_blocked
        from repro.objectdb.local_query import CheckRequest

        system = build_chain_federation(payload_value=7)
        # Kick off with a manually issued blocked check: ask DB2 about b2.
        report = system.db("DB2").check_assistants(
            CheckRequest(
                db_name="DB2",
                class_name="B",
                loids=(LOid("DB2", "b2"),),
                predicates=(Predicate.of("ref.x", "=", 7),),
            )
        )
        assert report.blocked  # stuck at c2
        verdicts = VerdictIndex()
        rounds = chase_blocked(
            [report], system, verdicts, max_rounds=3, ctx=context()
        )
        assert 1 <= len(rounds) <= 3
        assert (
            verdicts.get(LOid("DB2", "b2"), Predicate.of("ref.x", "=", 7))
            == "satisfied"
        )

    def test_zero_max_rounds_noop(self):
        from repro.core.certification import VerdictIndex
        from repro.core.strategies.base import chase_blocked

        system = build_chain_federation(payload_value=7)
        assert chase_blocked([], system, VerdictIndex(), 0, context()) == []
