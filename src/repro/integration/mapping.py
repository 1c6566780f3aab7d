"""GOid mapping tables: LOid <-> GOid correspondences per global class.

The federation assigns every real-world entity a GOid; the mapping table
of a global class records, per GOid, the LOid of its representative in
each component database that stores one (paper, Figure 5).  The table is
*replicated at each site* (Section 4.1), which is what lets a component
database look up assistant objects locally during the localized
strategies.

Hot-path caching: ``goid_of`` / ``loids_of`` / ``assistants_of`` are
called once per row per unsolved item by the localized strategies and
again by certification, so each table keeps a memoized index layer over
its base dictionaries.  The memos are invalidated wholesale on any
mutation (:meth:`MappingTable.add`, :meth:`MappingCatalog.register`) and
their traffic is reported through :class:`CacheStats`, which the engine
surfaces as ``cache.hit`` / ``cache.miss`` counters in the metrics
registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import MappingError
from repro.objectdb.ids import GOid, LOid


@dataclass
class CacheStats:
    """Hit/miss tallies of one memoized lookup layer."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Traffic accumulated since the *earlier* snapshot."""
        return CacheStats(
            hits=self.hits - earlier.hits, misses=self.misses - earlier.misses
        )

    def snapshot(self) -> "CacheStats":
        return CacheStats(hits=self.hits, misses=self.misses)


@dataclass
class MappingTable:
    """The GOid mapping table of one global class."""

    global_class: str
    _by_goid: Dict[GOid, Dict[str, LOid]] = field(default_factory=dict)
    _by_loid: Dict[LOid, GOid] = field(default_factory=dict)
    #: Memoized derived lookups (cleared on every mutation).
    _iso_memo: Dict[LOid, Tuple[LOid, ...]] = field(
        default_factory=dict, repr=False
    )
    _loids_memo: Dict[GOid, Dict[str, LOid]] = field(
        default_factory=dict, repr=False
    )
    stats: CacheStats = field(default_factory=CacheStats, repr=False)
    #: Bumped by every :meth:`invalidate`: what a GOid column read off
    #: this table (:meth:`goids_at`) is valid for.
    mutations: int = field(default=0, repr=False, compare=False)

    def add(self, goid: GOid, loid: LOid) -> None:
        """Record that *loid* is the representative of *goid* in its db.

        Raises:
            MappingError: if the database already maps this GOid to a
                different LOid, or the LOid is already mapped elsewhere.
        """
        existing = self._by_goid.get(goid, {}).get(loid.db)
        if existing is not None and existing != loid:
            raise MappingError(
                f"{self.global_class}: {goid} already maps to {existing} "
                f"in db {loid.db!r}, cannot remap to {loid}"
            )
        prior = self._by_loid.get(loid)
        if prior is not None and prior != goid:
            raise MappingError(
                f"{self.global_class}: {loid} already belongs to {prior}, "
                f"cannot also belong to {goid}"
            )
        # Validation done: mutate atomically and drop the stale memos.
        self._by_goid.setdefault(goid, {})[loid.db] = loid
        self._by_loid[loid] = goid
        self.invalidate()

    def invalidate(self) -> None:
        """Drop every memoized lookup (called on any mutation)."""
        self._iso_memo.clear()
        self._loids_memo.clear()
        self.mutations += 1

    def discard_db(self, db_name: str) -> int:
        """Remove every entry of one component database (site excision).

        Entities whose *only* copy lived at the departed site disappear
        from the table entirely; entities with surviving copies keep
        their GOid.  Returns the number of LOids removed.
        """
        removed = 0
        for goid in list(self._by_goid):
            row = self._by_goid[goid]
            loid = row.pop(db_name, None)
            if loid is not None:
                self._by_loid.pop(loid, None)
                removed += 1
            if not row:
                del self._by_goid[goid]
        if removed:
            self.invalidate()
        return removed

    # --- lookups ------------------------------------------------------------

    def goid_of(self, loid: LOid) -> Optional[GOid]:
        # The base index is already a single dict probe; count it so the
        # per-execution cache traffic reflects every mapping lookup.
        goid = self._by_loid.get(loid)
        if goid is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return goid

    def goids_at(self, ids, rows: Sequence[int]) -> List[Optional[GOid]]:
        """:meth:`goid_of` for positions *rows* of ``ids.loids``.

        Read off a GOid column of all of ``ids.loids``, kept in the
        ``ids.goids`` slot for as long as this table is the one asked
        and has not been mutated.  Counted as the lookups a caller
        stopping at the first unmapped LOid would have made.
        """
        kept = ids.goids
        if kept is None or kept[0] is not self or kept[1] != self.mutations:
            column = list(map(self._by_loid.get, ids.loids))
            kept = ids.goids = (self, self.mutations, column)
        goids = list(map(kept[2].__getitem__, rows))
        if None in goids:
            self.stats.hits += goids.index(None)
            self.stats.misses += 1
        else:
            self.stats.hits += len(goids)
        return goids

    def placements(self, goid: GOid) -> Mapping[str, LOid]:
        """Per-database LOids of the entity: the memo itself, read-only."""
        memo = self._loids_memo.get(goid)
        if memo is None:
            self.stats.misses += 1
            memo = self._loids_memo[goid] = dict(self._by_goid.get(goid, ()))
        else:
            self.stats.hits += 1
        return memo

    def loids_of(self, goid: GOid) -> Dict[str, LOid]:
        """Per-database LOids of the entity (copy; may be empty)."""
        return dict(self.placements(goid))

    def loid_in(self, goid: GOid, db_name: str) -> Optional[LOid]:
        return self._by_goid.get(goid, {}).get(db_name)

    def isomeric_objects(self, loid: LOid) -> List[LOid]:
        """The other LOids sharing *loid*'s GOid (paper: isomeric objects)."""
        memo = self._iso_memo.get(loid)
        if memo is None:
            self.stats.misses += 1
            goid = self._by_loid.get(loid)
            if goid is None:
                memo = ()
            else:
                memo = tuple(
                    other
                    for other in self._by_goid[goid].values()
                    if other != loid
                )
            self._iso_memo[loid] = memo
        else:
            self.stats.hits += 1
        return list(memo)

    def goids(self) -> Iterator[GOid]:
        return iter(self._by_goid)

    def __len__(self) -> int:
        return len(self._by_goid)

    def entries(self) -> Iterator[Tuple[GOid, Dict[str, LOid]]]:
        for goid, row in self._by_goid.items():
            yield goid, dict(row)


@dataclass
class MappingCatalog:
    """All mapping tables of the federation, keyed by global class.

    One catalog instance is conceptually replicated at every site; lookups
    performed "at a site" are charged to that site's CPU by the cost model
    (the data structure itself is shared in-process for the simulation).
    """

    _tables: Dict[str, MappingTable] = field(default_factory=dict)

    def table(self, global_class: str) -> MappingTable:
        """Fetch (creating on demand) the table of *global_class*."""
        if global_class not in self._tables:
            self._tables[global_class] = MappingTable(global_class=global_class)
        return self._tables[global_class]

    def register(self, table: MappingTable) -> None:
        """Install a pre-built table (replacing any existing one)."""
        table.invalidate()
        self._tables[table.global_class] = table

    def __contains__(self, global_class: str) -> bool:
        return global_class in self._tables

    def tables(self) -> Iterator[MappingTable]:
        return iter(self._tables.values())

    def discard_db(self, db_name: str) -> int:
        """Excise one site from every table; returns LOids removed."""
        return sum(t.discard_db(db_name) for t in self._tables.values())

    def goid_of(self, global_class: str, loid: LOid) -> Optional[GOid]:
        return self.table(global_class).goid_of(loid)

    def assistants_of(
        self, global_class: str, loid: LOid
    ) -> List[LOid]:
        """Isomeric objects of *loid* in the other component databases."""
        return self.table(global_class).isomeric_objects(loid)

    def cache_counts(self) -> Tuple[int, int]:
        """(hits, misses) summed across every table's memo layer."""
        hits = misses = 0
        for table in self._tables.values():
            hits += table.stats.hits
            misses += table.stats.misses
        return hits, misses

    def cache_stats(self) -> CacheStats:
        """Aggregate cache traffic across every table's memo layer."""
        return CacheStats(*self.cache_counts())
