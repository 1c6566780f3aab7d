"""Materializing global classes: outerjoin over GOids.

The centralized strategy ships every object of the local root and branch
classes to the global processing site, then integrates the constituent
extents of each global class with an *outerjoin over the join attribute
GOid* (paper, step CA_G2 and Figure 6):

* isomeric objects (same GOid) merge into one integrated object; an
  object with missing data "gets the data from its isomeric objects";
* LOids stored in complex attributes are translated to GOids;
* every object appears in the output even when it has no isomeric partner
  (that is what makes the join *outer*);
* multi-valued global attributes collect all distinct contributed values.

Under faults the outerjoin may run over a *partial* materialization
(some export sites unreachable).  The centralized strategy then demotes
every answer row, attaching ``SiteDown`` condition atoms naming the
missing extents (:mod:`repro.conditions`); the re-certifier later
fetches only those extents, re-runs this integration on the completed
inputs, and promotes — without re-shipping the extents that arrived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import MappingError
from repro.integration.global_schema import GlobalSchema
from repro.integration.mapping import CacheStats, MappingCatalog
from repro.objectdb.columnar import ColumnarExtent
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.objects import IntegratedObject, LocalObject
from repro.objectdb.values import MultiValue, Value, is_null


@dataclass
class IntegrationStats:
    """Work performed by one class integration (for the cost model)."""

    objects_in: int = 0
    objects_out: int = 0
    comparisons: int = 0
    translations: int = 0

    def merge(self, other: "IntegrationStats") -> None:
        self.objects_in += other.objects_in
        self.objects_out += other.objects_out
        self.comparisons += other.comparisons
        self.translations += other.translations


class SiteExports(Mapping[str, Tuple[LocalObject, ...]]):
    """Typed per-site export sets of one global class.

    The integration layer used to take a plain ``Mapping[str, Iterable]``
    and paper over the missing-site case with
    ``exports.get(db_name, ())  # type: ignore[call-overload]`` — an
    untyped hole where a ``None`` or a consumed iterator could slip
    through.  This wrapper makes the contract real: values are
    materialized to tuples at construction (re-iterable, never mutated by
    the join), and :meth:`for_db` returns an empty typed tuple for a site
    that shipped nothing.
    """

    __slots__ = ("_by_db",)

    def __init__(
        self,
        exports: Optional[Mapping[str, Iterable[LocalObject]]] = None,
    ) -> None:
        self._by_db: Dict[str, Tuple[LocalObject, ...]] = {}
        if exports is not None:
            for db_name, objs in exports.items():
                self._by_db[db_name] = tuple(objs)

    @classmethod
    def coerce(
        cls, exports: Mapping[str, Iterable[LocalObject]]
    ) -> "SiteExports":
        """Wrap a plain mapping (identity when already wrapped)."""
        if isinstance(exports, cls):
            return exports
        return cls(exports)

    def for_db(self, db_name: str) -> Tuple[LocalObject, ...]:
        """The objects *db_name* shipped — an empty tuple for absent sites."""
        return self._by_db.get(db_name, ())

    def __getitem__(self, db_name: str) -> Tuple[LocalObject, ...]:
        return self._by_db[db_name]

    def __iter__(self):
        return iter(self._by_db)

    def __len__(self) -> int:
        return len(self._by_db)


class GlobalExtent:
    """Materialized global classes at the processing site."""

    def __init__(self) -> None:
        self._by_class: Dict[str, Dict[GOid, IntegratedObject]] = {}
        self._flat: Dict[GOid, IntegratedObject] = {}
        self._views: Dict[str, ColumnarExtent] = {}

    def install(self, class_name: str, objects: Dict[GOid, IntegratedObject]) -> None:
        self._by_class[class_name] = objects
        self._flat.update(objects)

    def extent(self, class_name: str) -> Dict[GOid, IntegratedObject]:
        return self._by_class.get(class_name, {})

    def view(self, class_name: str) -> ColumnarExtent:
        """One class as one more columnar extent, built on first use.

        Rows are in ascending GOid order: the order of the answer, and
        the order in which evaluation errors must surface.
        """
        view = self._views.get(class_name)
        if view is None:
            objects = self.extent(class_name)
            goids = sorted(objects, key=lambda g: g.value)
            view = self._views[class_name] = ColumnarExtent(
                class_name, goids, [objects[g] for g in goids], self.deref,
                version=None,
            )
        return view

    def deref(self, ref: Union[LOid, GOid]) -> Optional[IntegratedObject]:
        """Dereference a GOid (LOids never resolve in the global extent)."""
        if isinstance(ref, GOid):
            return self._flat.get(ref)
        return None

    def classes(self) -> Tuple[str, ...]:
        return tuple(self._by_class)

    def __len__(self) -> int:
        return len(self._flat)


def integrate_class(
    global_class: str,
    global_schema: GlobalSchema,
    catalog: MappingCatalog,
    exports: Mapping[str, Iterable[LocalObject]],
    stats: Optional[IntegrationStats] = None,
) -> Dict[GOid, IntegratedObject]:
    """Outerjoin the exported constituent extents of *global_class*.

    Args:
        exports: db name -> the local objects of the constituent class
            shipped from that site (already projected on query
            attributes); accepts a plain mapping or a
            :class:`SiteExports`.
        stats: optional accumulator for integration work.

    Merge policy per attribute (matching Figure 6):
        * multi-valued attributes collect all distinct non-null values;
        * otherwise the first non-null value wins, visiting contributors
          in the correspondence's constituent order (deterministic).

    Raises:
        MappingError: when an exported object has no GOid in the catalog.
    """
    stats = stats if stats is not None else IntegrationStats()
    table = catalog.table(global_class)
    cdef = global_schema.cls(global_class)
    ordered_dbs = global_schema.databases_of(global_class)
    site_exports = SiteExports.coerce(exports)

    grouped: Dict[GOid, List[LocalObject]] = {}
    for db_name in ordered_dbs:
        for obj in site_exports.for_db(db_name):
            stats.objects_in += 1
            stats.comparisons += 1  # hash probe on the join attribute
            goid = table.goid_of(obj.loid)
            if goid is None:
                raise MappingError(
                    f"exported object {obj.loid} of class {global_class!r} "
                    "has no GOid in the mapping catalog"
                )
            grouped.setdefault(goid, []).append(obj)

    # Per-attribute metadata, read once per class: (name, multi_valued,
    # is_complex, domain mapping table or None).  catalog.table() is
    # resolved once per complex attribute, not per (group, member).
    attr_meta = [
        (
            attr.name,
            attr.multi_valued,
            attr.is_complex,
            catalog.table(attr.domain)
            if attr.is_complex and attr.domain is not None
            else None,
        )
        for attr in cdef.attributes
    ]
    integrated: Dict[GOid, IntegratedObject] = {}
    for goid, contributors in grouped.items():
        values: Dict[str, Value] = {}
        for name, multi_valued, is_complex, domain_table in attr_meta:
            collected: List[Value] = []
            for obj in contributors:
                raw = obj.get(name)
                if is_null(raw):
                    continue
                members = (
                    list(raw) if isinstance(raw, MultiValue) else [raw]
                )
                for member in members:
                    if is_complex:
                        # Rewrite a complex-attribute LOid to the GOid
                        # of its entity.
                        if isinstance(member, GOid):
                            collected.append(member)
                            continue
                        if not isinstance(member, LOid):
                            raise MappingError(
                                "complex attribute holds non-reference "
                                f"value {member!r}"
                            )
                        if domain_table is None:
                            raise MappingError(
                                "complex attribute without a domain class"
                            )
                        stats.translations += 1
                        stats.comparisons += 1  # mapping-table probe
                        translated = domain_table.goid_of(member)
                        if translated is None:
                            # Dangling local reference: the referenced
                            # entity was never catalogued.  Treat as
                            # missing data rather than failing the whole
                            # integration.
                            continue
                        collected.append(translated)
                    else:
                        collected.append(member)
                if collected and not multi_valued:
                    break  # first non-null contributor wins
            if collected:
                values[name] = (
                    MultiValue(collected) if multi_valued else collected[0]
                )
        integrated[goid] = IntegratedObject(
            goid=goid,
            class_name=global_class,
            values=values,
            sources=tuple(obj.loid for obj in contributors),
        )
        stats.objects_out += 1
    return integrated


#: Merged shapes kept per federation version (see :func:`materialize`).
REUSED_SHAPES = 4


def materialize(
    global_classes: Iterable[str],
    global_schema: GlobalSchema,
    catalog: MappingCatalog,
    exports_by_class: Mapping[str, Mapping[str, Iterable[LocalObject]]],
    stats: Optional[IntegrationStats] = None,
    reuse: Optional[Tuple[Dict, object]] = None,
) -> GlobalExtent:
    """Integrate several global classes into one :class:`GlobalExtent`.

    The simulated global site integrates on every call, and *stats* and
    the catalog's probe counters say so.  This process need not: *reuse*
    is ``(merged, key)``, the caller's store of earlier merges
    (``DistributedSystem.merged_extents``) and a key that determines
    *exports_by_class*.  A repeated key gets the extent merged before,
    columnar views included, and is charged what merging it was; it
    never iterates *exports_by_class*, so lazy exports stay unbuilt.
    """
    merged, key = reuse if reuse is not None else ({}, None)
    kept = merged.get(key)
    if kept is not None:
        extent, charged, probes = kept
        for counters, probed in probes:
            counters.hits += probed.hits
            counters.misses += probed.misses
    else:
        before = {id(t): t.stats.snapshot() for t in catalog.tables()}
        extent, charged = GlobalExtent(), IntegrationStats()
        for class_name in global_classes:
            extent.install(class_name, integrate_class(
                class_name, global_schema, catalog,
                exports_by_class.get(class_name, {}), charged,
            ))
        probes = [
            (t.stats, t.stats.delta(before.get(id(t), CacheStats())))
            for t in catalog.tables()
        ]
        if len(merged) >= REUSED_SHAPES:
            merged.clear()
        merged[key] = (extent, charged, probes)
    if stats is not None:
        stats.merge(charged)
    return extent
