"""The hot-path caches: mapping-index memos + decomposition cache.

Covers hit/miss accounting (:class:`CacheStats`), wholesale
invalidation on every mutation path (``MappingTable.add``,
``MappingCatalog.register``, ``DistributedSystem.register_entity``),
and the engine surfacing per-execution cache traffic as ``cache.*``
instruments in the metrics registry.
"""

from __future__ import annotations

from repro.core.engine import GlobalQueryEngine
from repro.integration.mapping import CacheStats, MappingCatalog, MappingTable
from repro.objectdb.ids import GOid, LOid
from repro.workload.paper_example import Q1_TEXT, build_school_federation


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0

    def test_delta(self):
        delta = CacheStats(hits=3, misses=1).delta(CacheStats(hits=2, misses=1))
        assert (delta.hits, delta.misses) == (1, 0)


class TestMappingTableMemos:
    def _table(self):
        table = MappingTable(global_class="S")
        table.add(GOid("g1"), LOid("DB1", "a"))
        table.add(GOid("g1"), LOid("DB2", "b"))
        table.stats = CacheStats()  # ignore traffic from setup
        return table

    def test_loids_of_miss_then_hit(self):
        table = self._table()
        first = table.loids_of(GOid("g1"))
        assert table.stats.misses == 1 and table.stats.hits == 0
        second = table.loids_of(GOid("g1"))
        assert table.stats.hits == 1
        assert first == second == {"DB1": LOid("DB1", "a"),
                                   "DB2": LOid("DB2", "b")}

    def test_isomeric_miss_then_hit(self):
        table = self._table()
        assert table.isomeric_objects(LOid("DB1", "a")) == [LOid("DB2", "b")]
        assert table.stats.misses == 1
        table.isomeric_objects(LOid("DB1", "a"))
        assert table.stats.hits == 1

    def test_memoized_results_are_copies(self):
        """Callers may mutate what they get back; the memo must not."""
        table = self._table()
        table.loids_of(GOid("g1")).clear()
        assert table.loids_of(GOid("g1"))  # memo intact
        table.isomeric_objects(LOid("DB1", "a")).append(LOid("DB9", "x"))
        assert table.isomeric_objects(LOid("DB1", "a")) == [LOid("DB2", "b")]

    def test_add_invalidates_and_serves_fresh_data(self):
        table = self._table()
        assert table.isomeric_objects(LOid("DB1", "a")) == [LOid("DB2", "b")]
        table.add(GOid("g1"), LOid("DB3", "c"))
        fresh = table.isomeric_objects(LOid("DB1", "a"))
        assert LOid("DB3", "c") in fresh  # not the stale memo
        # The post-mutation lookup re-misses.
        assert table.stats.misses >= 2

    def test_catalog_register_invalidates(self):
        catalog = MappingCatalog()
        table = MappingTable(global_class="S")
        table.add(GOid("g1"), LOid("DB1", "a"))
        table.loids_of(GOid("g1"))
        assert table._loids_memo  # memo warm
        catalog.register(table)
        assert not table._loids_memo  # dropped on install

    def test_catalog_cache_stats_aggregates_tables(self):
        catalog = MappingCatalog()
        for cls in ("S", "T"):
            table = catalog.table(cls)
            table.add(GOid(f"g-{cls}"), LOid("DB1", f"o-{cls}"))
            table.loids_of(GOid(f"g-{cls}"))
            table.loids_of(GOid(f"g-{cls}"))
        stats = catalog.cache_stats()
        assert stats.hits == 2 and stats.misses == 2


class TestDecompositionCache:
    def test_repeat_decompose_hits(self, school):
        query = GlobalQueryEngine(school).parse(Q1_TEXT)
        school.decompose(query)
        before = school.cache_stats()
        cached = school.decompose(query)
        after = school.cache_stats().delta(before)
        assert after.hits == 1 and after.misses == 0
        assert cached is school.decompose(query)

    def test_register_entity_invalidates(self, school):
        query = GlobalQueryEngine(school).parse(Q1_TEXT)
        school.decompose(query)
        version = school.schema_version
        school.register_entity(
            "Student",
            {"DB1": {"name": "Zara", "age": 30},
             "DB2": {"name": "Zara", "sex": "female"}},
        )
        assert school.schema_version > version
        before = school.cache_stats()
        school.decompose(query)
        delta = school.cache_stats().delta(before)
        assert delta.misses == 1  # stale entry was dropped

    def test_cached_decomposition_answers_match(self, school):
        """An execution served from the cache is the same execution."""
        engine = GlobalQueryEngine(school)
        cold = engine.execute(Q1_TEXT, "BL")
        warm = engine.execute(Q1_TEXT, "BL")
        assert cold.results.to_json() == warm.results.to_json()
        assert cold.total_time == warm.total_time

    def test_post_mutation_queries_see_new_entity(self):
        system = build_school_federation()
        engine = GlobalQueryEngine(system)
        baseline = len(engine.execute(Q1_TEXT, "BL").results.certain)
        system.register_entity(
            "Student",
            {
                "DB1": {"name": "Zoe", "age": 24,
                        "address": {"city": "Taipei"}},
            },
        )
        after = engine.execute(Q1_TEXT, "BL")
        total = len(after.results.certain) + len(after.results.maybe)
        assert total >= baseline  # the cache never hides new data


class TestEngineSurfacing:
    def test_registry_counts_cache_traffic(self):
        engine = GlobalQueryEngine(build_school_federation())
        cold = engine.execute(Q1_TEXT, "BL")
        warm = engine.execute(Q1_TEXT, "BL")
        cold_snapshot = cold.registry.snapshot()
        warm_snapshot = warm.registry.snapshot()
        assert cold_snapshot["cache.miss"] > 0
        assert warm_snapshot["cache.hit"] > 0
        assert warm_snapshot["cache.hit_rate"] > 0.0
        # Each report carries only its own execution's traffic.
        assert warm_snapshot["cache.miss"] == 0

    def test_work_counters_roundtrip_through_metrics(self):
        engine = GlobalQueryEngine(build_school_federation())
        report = engine.execute(Q1_TEXT, "BL")
        work = report.metrics.work
        assert work.cache_hits + work.cache_misses > 0
        assert 0.0 <= work.cache_hit_rate <= 1.0
