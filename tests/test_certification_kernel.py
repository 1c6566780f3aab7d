"""The pattern-batched certification kernel.

Three things are checked here:

* an exhaustive small-domain truth table — every combination of row
  states at up to three sites, under conjunctive and DNF queries and
  every assistant-verdict mode — on which the kernel must equal
  :func:`repro.difftest.reference.certify_reference` in answers,
  binding order, conditions and :class:`CertificationStats`;
* that the suite notices a broken Certification Rule: with the absence
  rule, FALSE-wins merging or violation precedence deliberately
  inverted, named tests of this file fail;
* that the cached ``Path``/``Predicate`` hashes are the
  dataclass-generated values, computed lazily.
"""

import dataclasses
import functools
import itertools
import pickle

import pytest

from repro.core import certification
from repro.core.certification import (
    SATISFIED,
    UNKNOWN_VERDICT,
    VIOLATED,
    CertificationStats,
    VerdictIndex,
    certify,
)
from repro.core.query import Op, Path, Predicate, Query
from repro.core.results import ResultKind
from repro.core.tvl import TV
from repro.errors import MappingError, QueryError
from repro.difftest.reference import (
    certification_difference,
    certify_reference,
    shadowed_certify,
)
from repro.integration.global_schema import ClassCorrespondence, integrate_schemas
from repro.integration.isomerism import table_from_correspondences
from repro.integration.mapping import MappingCatalog
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.local_query import (
    LocalResultRow,
    LocalResultSet,
    RowKind,
    UnsolvedItem,
    UnsolvedPredicateOnObject,
)
from repro.objectdb.schema import ClassDef, ComponentSchema, complex_attr, primitive
from repro.objectdb.values import MultiValue, NULL

SITES = ("DB1", "DB2", "DB3")
P1 = Predicate.of("a", "=", 1)
P2 = Predicate.of("ref.b", "=", 2)
P2_ON_ITEM = Predicate.of("b", "=", 2)
KEY = Path.parse("k")

QUERIES = {
    "one-predicate": Query.conjunctive("S", [KEY], [P1]),
    "conjunction": Query.conjunctive("S", [KEY], [P1, P2]),
    "two-disjuncts": Query.disjunctive("S", [KEY], [[P1], [P2]]),
    "shared-predicate": Query.disjunctive("S", [KEY], [[P1, P2], [P2]]),
}

#: What one site holds for one entity: no copy at all, a copy that did
#: not survive local evaluation, or a row with a status per predicate
#: (``None``: the status dict has no key for it).
UNPLACED, ABSENT = "unplaced", "absent"
STATUSES = (TV.TRUE, TV.UNKNOWN, TV.FALSE)


def site_states(statuses):
    return (UNPLACED, ABSENT) + tuple(itertools.product(statuses, statuses))


#: The swept domains: every state at up to two sites (18 x 18 entities),
#: every state but the missing key at three (11 x 11 x 11).
DOMAINS = {
    1: site_states(STATUSES + (None,)),
    2: site_states(STATUSES + (None,)),
    3: site_states(STATUSES),
}


def global_schema(sites=SITES):
    classes = [
        ClassDef.of("S", [primitive("k"), primitive("a"), complex_attr("ref", "T")]),
        ClassDef.of("T", [primitive("k"), primitive("b")]),
    ]
    return integrate_schemas(
        {site: ComponentSchema.of(site, classes) for site in sites},
        [
            ClassCorrespondence.of("S", [(site, "S") for site in sites], "k"),
            ClassCorrespondence.of("T", [(site, "T") for site in sites], "k"),
        ],
    )


def item_for(site, entity):
    """The unsolved item a row with P2 unknown carries: its T object."""
    return UnsolvedItem(
        loid=LOid(site, f"t{entity}"),
        class_name="T",
        reached_via=Path.parse("ref"),
        unsolved=(UnsolvedPredicateOnObject(P2, Path.parse("b")),),
    )


def federation(combos, sites, share, items=True):
    """One entity per combination of site states, all in one evidence set.

    Every entity's T object has a copy at every site, so an unsolved
    item always has ``len(sites) - 1`` assistants; a row carries one
    when P2 is unknown to it, unless the query has no P2 (*items* off).
    With *share*, rows at one site with equal statuses share one
    ``predicate_status`` dict, as columnar local evaluation hands them
    over; without, every row owns its dict, as the reference scan's do.
    """
    students, teachers = [], []
    rows = {site: [] for site in sites}
    shared = {}
    for entity, combo in enumerate(combos):
        placed = []
        for site, state in zip(sites, combo):
            if state == UNPLACED:
                continue
            loid = LOid(site, f"s{entity}")
            placed.append(loid)
            if state == ABSENT:
                continue
            status = {p: tv for p, tv in zip((P1, P2), state) if tv is not None}
            if share:
                status = shared.setdefault((site, state), status)
            unknown_p2 = items and state[1] in (TV.UNKNOWN, None)
            rows[site].append(LocalResultRow(
                loid=loid,
                class_name="S",
                kind=RowKind.MAYBE,
                bindings={KEY: entity if state[0] is TV.TRUE else NULL},
                unsolved_items=(item_for(site, entity),) if unknown_p2 else (),
                predicate_status=status,
            ))
        if placed:
            students.append((GOid(f"g{entity:05d}"), placed))
            teachers.append((
                GOid(f"t{entity:05d}"),
                [LOid(site, f"t{entity}") for site in sites],
            ))
    catalog = MappingCatalog()
    catalog.register(table_from_correspondences("S", students))
    catalog.register(table_from_correspondences("T", teachers))
    local = {
        site: LocalResultSet(db_name=site, range_class="S", rows=rows[site])
        for site in sites
    }
    return catalog, local


#: Assistant verdicts on P2, per site of the assistant copy.
VERDICT_MODES = {
    "none": {},
    "satisfied": dict.fromkeys(SITES, SATISFIED),
    "violated": dict.fromkeys(SITES, VIOLATED),
    "unknown": dict.fromkeys(SITES, UNKNOWN_VERDICT),
    "satisfied-then-violated": {"DB1": SATISFIED, "DB2": VIOLATED},
    "violated-then-satisfied": {"DB1": VIOLATED, "DB3": SATISFIED},
}


def verdict_index(mode, entities, sites):
    verdicts = VerdictIndex()
    for entity in range(entities):
        for site in sites:
            verdict = VERDICT_MODES[mode].get(site)
            if verdict is not None:
                verdicts.add(LOid(site, f"t{entity}"), P2_ON_ITEM, verdict)
    return verdicts


@functools.lru_cache(maxsize=None)
def sweep(sites, share, items):
    """The whole domain of *sites* as one evidence set (never mutated)."""
    combos = list(itertools.product(DOMAINS[len(sites)], repeat=len(sites)))
    return (len(combos), global_schema(sites)) + federation(
        combos, sites, share, items
    )


def assert_kernel_equals_reference(query, sites, mode, share=True):
    items = P2 in query.all_predicates()
    entities, schema, catalog, local = sweep(sites, share, items)
    verdicts = verdict_index(mode, entities, sites)
    stats, expected_stats = CertificationStats(), CertificationStats()
    answer = certify(query, schema, catalog, local, verdicts, stats)
    expected = certify_reference(
        query, schema, catalog, local, verdicts, expected_stats
    )
    assert certification_difference(
        answer, stats, expected, expected_stats
    ) is None
    # Every entity with a row somewhere was grouped.
    assert stats.groups == entities - 2 ** len(sites)
    return answer, stats


class TestTruthTable:
    @pytest.mark.parametrize("mode", sorted(VERDICT_MODES))
    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_three_sites(self, shape, mode):
        assert_kernel_equals_reference(QUERIES[shape], SITES, mode)

    @pytest.mark.parametrize("mode", sorted(VERDICT_MODES))
    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_two_sites_with_missing_keys(self, shape, mode):
        assert_kernel_equals_reference(QUERIES[shape], SITES[:2], mode)

    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_one_site(self, shape):
        assert_kernel_equals_reference(QUERIES[shape], SITES[:1], "none")

    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_rows_owning_their_status_dict(self, shape):
        """The reference scan's evidence: no two rows share a status dict."""
        assert_kernel_equals_reference(
            QUERIES[shape], SITES, "violated-then-satisfied", share=False
        )

    def test_the_sweep_reaches_every_outcome(self):
        _, stats = assert_kernel_equals_reference(
            QUERIES["conjunction"], SITES, "satisfied-then-violated"
        )
        assert stats.eliminated_by_absence and stats.eliminated_by_violation
        assert stats.promoted_to_certain and stats.remained_maybe

    def test_maybe_rows_carry_sorted_null_atoms(self):
        answer, _ = assert_kernel_equals_reference(
            QUERIES["conjunction"], SITES, "unknown"
        )
        assert answer.maybe
        for row in answer.maybe:
            assert row.conditions
            keys = [atom.sort_key() for atom in row.conditions]
            assert keys == sorted(set(keys))

    def test_no_predicates_certifies_every_entity(self):
        query = Query.conjunctive("S", [KEY], [])
        combos = [(state,) for state in DOMAINS[1] if state != UNPLACED]
        catalog, local = federation(combos, SITES[:1], share=True, items=False)
        stats = CertificationStats()
        answer = certify(
            query, global_schema(SITES[:1]), catalog, local, VerdictIndex(), stats
        )
        assert stats.eliminated_by_absence == 0  # the absent copy has no row
        assert len(answer.certain) == len(combos) - 1 and not answer.maybe

    def test_item_naming_a_foreign_predicate_is_rejected(self):
        """Evidence for a predicate the query lacks is malformed input."""
        catalog, local = federation([((TV.UNKNOWN, TV.UNKNOWN),)], SITES[:1], True)
        with pytest.raises(MappingError, match="does not have"):
            certify(
                QUERIES["one-predicate"], global_schema(SITES[:1]), catalog,
                local, VerdictIndex(),
            )

    def test_bindings_merge_like_the_reference(self):
        """First non-null wins; multi-values union; empty ones are null."""
        values = (NULL, 7, MultiValue([]), MultiValue([1]), MultiValue([2, 3]))
        combos = list(itertools.product(values, repeat=2))
        sites = SITES[:2]
        students = [
            (GOid(f"g{n:03d}"), [LOid(site, f"s{n}") for site in sites])
            for n in range(len(combos))
        ]
        catalog = MappingCatalog()
        catalog.register(table_from_correspondences("S", students))
        local = {
            site: LocalResultSet(db_name=site, range_class="S", rows=[
                LocalResultRow(
                    loid=LOid(site, f"s{n}"), class_name="S",
                    kind=RowKind.CERTAIN, bindings={KEY: combo[slot]},
                )
                for n, combo in enumerate(combos)
            ])
            for slot, site in enumerate(sites)
        }
        query = Query.conjunctive("S", [KEY], [])
        schema = global_schema(sites)
        stats, expected_stats = CertificationStats(), CertificationStats()
        answer = certify(query, schema, catalog, local, VerdictIndex(), stats)
        expected = certify_reference(
            query, schema, catalog, local, VerdictIndex(), expected_stats
        )
        assert certification_difference(
            answer, stats, expected, expected_stats
        ) is None
        merged = {r.goid.value: r.bindings[KEY] for r in answer.certain}
        assert merged["g%03d" % combos.index((NULL, 7))] == 7
        assert merged["g%03d" % combos.index((MultiValue([]), 7))] == 7
        assert merged["g%03d" % combos.index((7, MultiValue([1])))] == (
            MultiValue([7, 1])
        )


# --- the paper's rule, stated case by case ------------------------------------
#
# Each check below asserts one clause of the Certification Rule on evidence
# small enough to verify by hand.  The tests of TestPaperRule run them as
# they are; the tests of TestBrokenRuleIsNoticed run them against a kernel
# with that clause inverted and require them to fail.


def certify_one(query, sites, states, verdicts=None, stats=None):
    catalog, local = federation([states], sites, share=True)
    return certify(
        query, global_schema(sites), catalog, local,
        verdicts if verdicts is not None else VerdictIndex(), stats,
    )


def check_copy_filtered_out_elsewhere_eliminates():
    """The paper's s1/John case: a copy at DB2 failed a local predicate."""
    stats = CertificationStats()
    answer = certify_one(
        QUERIES["conjunction"], SITES[:2],
        ((TV.UNKNOWN, TV.TRUE), ABSENT), stats=stats,
    )
    assert len(answer) == 0
    assert stats.eliminated_by_absence == 1
    # DB1 holds a row, DB2 is the absent copy: the scan stops there.
    assert stats.comparisons == 2


def check_entity_without_a_copy_elsewhere_survives():
    stats = CertificationStats()
    answer = certify_one(
        QUERIES["conjunction"], SITES[:2],
        ((TV.UNKNOWN, TV.TRUE), UNPLACED), stats=stats,
    )
    assert [r.kind for r in answer.maybe] == [ResultKind.MAYBE]
    assert answer.maybe[0].unsolved == (P1,)
    assert stats.eliminated_by_absence == 0


def check_false_at_one_site_wins_over_true_at_another():
    """Under a DNF query a row can carry FALSE; it beats another's TRUE."""
    stats = CertificationStats()
    answer = certify_one(
        QUERIES["two-disjuncts"], SITES[:2],
        ((TV.FALSE, TV.TRUE), (TV.TRUE, TV.FALSE)), stats=stats,
    )
    assert len(answer) == 0
    assert stats.eliminated_by_violation == 1
    # Two site probes by the absence rule; P1 stops at DB1's FALSE (1),
    # P2 reads DB1's TRUE and stops at DB2's FALSE (2).
    assert stats.comparisons == 2 + 1 + 2


def check_true_at_one_site_resolves_unknown_at_another():
    answer = certify_one(
        QUERIES["conjunction"], SITES[:2],
        ((TV.UNKNOWN, TV.TRUE), (TV.TRUE, TV.TRUE)),
    )
    assert [r.kind for r in answer.certain] == [ResultKind.CERTAIN]


def two_assistants(first, second):
    verdicts = VerdictIndex()
    verdicts.add(LOid("DB2", "t0"), P2_ON_ITEM, first)
    verdicts.add(LOid("DB3", "t0"), P2_ON_ITEM, second)
    return verdicts


def check_any_violating_assistant_eliminates():
    """Violation has precedence, whichever assistant reports it."""
    states = ((TV.TRUE, TV.UNKNOWN), UNPLACED, UNPLACED)
    for verdicts in (
        two_assistants(SATISFIED, VIOLATED),
        two_assistants(VIOLATED, SATISFIED),
    ):
        stats = CertificationStats()
        answer = certify_one(
            QUERIES["conjunction"], SITES, states, verdicts, stats
        )
        assert len(answer) == 0
        assert stats.eliminated_by_violation == 1


def check_satisfying_assistants_promote():
    stats = CertificationStats()
    answer = certify_one(
        QUERIES["conjunction"], SITES,
        ((TV.TRUE, TV.UNKNOWN), UNPLACED, UNPLACED),
        two_assistants(UNKNOWN_VERDICT, SATISFIED), stats,
    )
    assert len(answer.certain) == 1
    assert stats.promoted_to_certain == 1


class TestPaperRule:
    def test_copy_filtered_out_elsewhere_eliminates(self):
        check_copy_filtered_out_elsewhere_eliminates()

    def test_entity_without_a_copy_elsewhere_survives(self):
        check_entity_without_a_copy_elsewhere_survives()

    def test_false_at_one_site_wins_over_true_at_another(self):
        check_false_at_one_site_wins_over_true_at_another()

    def test_true_at_one_site_resolves_unknown_at_another(self):
        check_true_at_one_site_resolves_unknown_at_another()

    def test_any_violating_assistant_eliminates(self):
        check_any_violating_assistant_eliminates()

    def test_satisfying_assistants_promote(self):
        check_satisfying_assistants_promote()


def fails(check, *args):
    with pytest.raises(AssertionError):
        check(*args)
    return True


class TestBrokenRuleIsNoticed:
    """ROADMAP item 4: tests that fail when the Certification Rule is broken."""

    def test_inverted_absence_rule(self, monkeypatch):
        real = certification._eliminated_by_absence
        monkeypatch.setattr(
            certification, "_eliminated_by_absence",
            lambda *args: not real(*args),
        )
        assert fails(check_copy_filtered_out_elsewhere_eliminates)
        assert fails(check_entity_without_a_copy_elsewhere_survives)
        assert fails(
            assert_kernel_equals_reference, QUERIES["conjunction"], SITES, "none"
        )

    def test_true_wins_merging(self, monkeypatch):
        real = certification._merge_codes

        def flip(codes):
            return None if codes is None else tuple(2 - code for code in codes)

        def true_wins(site_codes, width):
            merged, comparisons = real([flip(c) for c in site_codes], width)
            return flip(merged), comparisons

        monkeypatch.setattr(certification, "_merge_codes", true_wins)
        assert fails(check_false_at_one_site_wins_over_true_at_another)
        assert fails(
            assert_kernel_equals_reference,
            QUERIES["two-disjuncts"], SITES, "none",
        )
        # TRUE still resolves UNKNOWN: only the FALSE/TRUE order changed.
        check_true_at_one_site_resolves_unknown_at_another()

    def test_violation_without_precedence(self, monkeypatch):
        """A kernel that lets a satisfied verdict stand beside a violated one."""
        monkeypatch.setattr(certification, "VIOLATED", "never reported")
        assert fails(check_any_violating_assistant_eliminates)
        assert fails(
            assert_kernel_equals_reference,
            QUERIES["conjunction"], SITES, "satisfied-then-violated",
        )
        check_satisfying_assistants_promote()

    def test_verdicts_exchanged(self, monkeypatch):
        monkeypatch.setattr(certification, "VIOLATED", SATISFIED)
        monkeypatch.setattr(certification, "SATISFIED", VIOLATED)
        assert fails(check_satisfying_assistants_promote)
        assert fails(
            assert_kernel_equals_reference,
            QUERIES["conjunction"], SITES, "satisfied",
        )

    def test_the_oracle_tap_reports_it(self, monkeypatch):
        """``shadowed_certify`` is how the fuzz oracle sees the same thing."""
        real = certification._eliminated_by_absence
        monkeypatch.setattr(
            certification, "_eliminated_by_absence",
            lambda *args: not real(*args),
        )
        differences = []
        with shadowed_certify(differences):
            certification.certify(
                QUERIES["conjunction"], global_schema(SITES[:2]),
                *federation([((TV.UNKNOWN, TV.TRUE), ABSENT)], SITES[:2], True),
                VerdictIndex(),
            )
        assert len(differences) == 1 and "stats" in differences[0]
        assert certification.certify is certify  # restored on exit


class TestHashStability:
    def test_predicate_hash_is_the_field_tuple_hash(self):
        predicate = Predicate.of("advisor.department.name", "=", "CS")
        expected = hash((predicate.path, predicate.op, predicate.operand))
        assert hash(predicate) == expected
        assert hash(predicate) == expected  # the cached read
        assert hash(predicate.path) == hash((predicate.path.steps,))

    def test_equal_predicates_hash_equal_after_replace(self):
        predicate = Predicate.of("a.b", "<", 3)
        hash(predicate)  # cache it
        copy = dataclasses.replace(predicate)
        assert copy == predicate and copy is not predicate
        assert hash(copy) == hash(predicate)
        changed = dataclasses.replace(predicate, operand=4)
        assert changed != predicate
        assert hash(changed) == hash((changed.path, changed.op, 4))
        back = dataclasses.replace(changed, operand=3)
        assert back == predicate and hash(back) == hash(predicate)
        assert {predicate: 1}[back] == 1

    def test_unhashable_operand_is_rejected_at_construction(self):
        # It could key no column, status dict or verdict index: a typed
        # error where the predicate is made, not a bare TypeError later.
        with pytest.raises(QueryError, match=r"operand \[1, 2\] is not"):
            Predicate(Path.parse("a"), Op.EQ, [1, 2])
        with pytest.raises(QueryError, match="predicate on a.b"):
            Predicate.of("a.b", "contains", {"x": 1})

    def test_cached_hash_does_not_travel_through_pickle(self):
        """String hashes are salted per process; a cached one must stay."""
        predicate = Predicate.of("a.b", "=", "x")
        hash(predicate)
        hash(predicate.path)
        clone = pickle.loads(pickle.dumps(predicate))
        assert clone == predicate
        assert "_hash" not in vars(clone) and "_hash" not in vars(clone.path)
        assert hash(clone) == hash(predicate)

    def test_query_collects_its_predicates_once(self):
        query = QUERIES["shared-predicate"]
        assert query.all_predicates() == (P1, P2)
        assert query.all_predicates() is query.all_predicates()
        assert query.all_paths() == (KEY, P1.path, P2.path)
        assert query.all_paths() is query.all_paths()
        other = dataclasses.replace(query, where=((P2,),))
        assert other.all_predicates() == (P2,)

    def test_relative_predicate_is_built_once(self):
        unsolved = UnsolvedPredicateOnObject(P2, Path.parse("b"))
        assert unsolved.relative_predicate == P2_ON_ITEM
        assert unsolved.relative_predicate is unsolved.relative_predicate
        assert unsolved == UnsolvedPredicateOnObject(P2, Path.parse("b"))
