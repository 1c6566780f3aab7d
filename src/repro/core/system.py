"""The federation: component databases + integration layer + cost model.

:class:`DistributedSystem` wires everything a strategy needs:

* the component databases (one per site);
* the integrated global schema and the replicated GOid mapping catalog;
* the cost model and network configuration for the simulator;
* optionally, replicated object-signature catalogs (for the BL-S/PL-S
  variants).

Use :meth:`DistributedSystem.build` to stand a federation up from raw
databases plus class correspondences — it integrates the schemas and
discovers object isomerism.  Pre-computed mapping catalogs can be passed
instead (the paper assumes isomeric objects "have been determined").
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.faults.plan import FaultPlan

from repro.errors import SchemaError
from repro.integration.global_schema import (
    ClassCorrespondence,
    GlobalSchema,
    integrate_schemas,
)
from repro.integration.isomerism import build_catalog
from repro.integration.mapping import CacheStats, MappingCatalog
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.signatures import SignatureCatalog
from repro.sim.costs import CostModel, PAPER_COSTS
from repro.sim.taskgraph import FederationSim

#: Name of the global processing site in simulations.
GLOBAL_SITE = "GPS"


@dataclass
class DistributedSystem:
    """A running federation of heterogeneous object databases."""

    databases: Dict[str, ComponentDatabase]
    global_schema: GlobalSchema
    catalog: MappingCatalog
    cost_model: CostModel = PAPER_COSTS
    global_site: str = GLOBAL_SITE
    shared_network: bool = True
    signatures: Optional[SignatureCatalog] = None
    #: Bumped on every entity/schema mutation; keys the decomposition
    #: cache so stale local queries can never be served.
    schema_version: int = 0
    #: Federation evolution epoch: the number of evolution transitions
    #: (window opens/closes) applied.  Every query's Availability is
    #: stamped with the epoch it executed against; replaying a churned
    #: run means rebuilding the federation and stepping a fresh
    #: controller to the same epoch.
    schema_epoch: int = 0
    #: The attached :class:`~repro.evolution.controller
    #: .EvolutionController`, or None for a frozen federation.  The
    #: engine consults it per execution for flux annotations/demotion.
    evolution: Optional[object] = field(default=None, repr=False)
    _decompose_cache: Dict = field(default_factory=dict, repr=False)
    #: (range class, paths) -> QueryShape: see :meth:`query_shape`.
    _shape_cache: Dict = field(default_factory=dict, repr=False)
    _decompose_stats: CacheStats = field(
        default_factory=CacheStats, repr=False
    )
    #: Active cache-accounting scope (the executing session's name);
    #: set by the engine around each execution via :meth:`cache_scope`.
    _cache_scope: Optional[str] = field(default=None, repr=False)
    #: Which scope paid the miss for each decomposition cache entry.
    _decompose_owner: Dict = field(default_factory=dict, repr=False)
    #: Per-scope count of *shared* hits: decomposition lookups served
    #: from an entry a different scope populated.  This is the shared
    #: federation's contention/benefit signal — work one session paid
    #: for and another reused.
    _shared_hits: Dict[str, int] = field(default_factory=dict, repr=False)
    #: Lazily created planner state (see :mod:`repro.planner`): the
    #: per-site constraint catalog.  It is derived — it never changes
    #: answers, only how much work a planner-enabled execution schedules.
    _constraints: Optional[object] = field(default=None, repr=False)
    #: (versions, merges made at them): see :meth:`merged_extents`.
    _merged: Tuple = field(default=(None, None), repr=False)

    @classmethod
    def build(
        cls,
        databases: Sequence[ComponentDatabase],
        correspondences: Sequence[ClassCorrespondence],
        cost_model: CostModel = PAPER_COSTS,
        catalog: Optional[MappingCatalog] = None,
        shared_network: bool = True,
    ) -> "DistributedSystem":
        """Integrate schemas and (unless given) discover isomerism."""
        by_name = {db.name: db for db in databases}
        if len(by_name) != len(databases):
            raise SchemaError("duplicate component database names")
        schemas = {db.name: db.schema for db in databases}
        global_schema = integrate_schemas(schemas, correspondences)
        if catalog is None:
            catalog = build_catalog(
                {c.global_name: c.constituents for c in correspondences},
                by_name,
                {c.global_name: c.key_attribute for c in correspondences},
            )
        return cls(
            databases=by_name,
            global_schema=global_schema,
            catalog=catalog,
            cost_model=cost_model,
            shared_network=shared_network,
        )

    # --- accessors -------------------------------------------------------

    @property
    def site_names(self) -> Tuple[str, ...]:
        return tuple(self.databases)

    def db(self, name: str) -> ComponentDatabase:
        return self.databases[name]

    def simulator(self, fault_plan: Optional["FaultPlan"] = None) -> FederationSim:
        """A fresh activity-graph builder over this federation's sites."""
        return FederationSim(
            sites=self.site_names,
            global_site=self.global_site,
            cost_model=self.cost_model,
            shared_network=self.shared_network,
            fault_plan=fault_plan,
        )

    # --- hot-path caches -----------------------------------------------------

    def decompose(self, query):
        """Decompose *query* into local queries, memoized per schema version.

        Decomposition depends only on the query and the integrated
        schemas, so repeated executions of the same query reuse the
        cached :class:`~repro.core.decompose.DecomposedQuery` until
        :meth:`bump_schema_version` (any entity registration or schema
        mutation) invalidates it.
        """
        from repro.core.decompose import decompose as _decompose

        key = (query, self.schema_version)
        cached = self._decompose_cache.get(key)
        if cached is not None:
            self._decompose_stats.hits += 1
            scope = self._cache_scope
            if scope is not None and self._decompose_owner.get(key) not in (
                None, scope
            ):
                self._shared_hits[scope] = self._shared_hits.get(scope, 0) + 1
            return cached
        self._decompose_stats.misses += 1
        decomposed = _decompose(query, self.global_schema)
        self._decompose_cache[key] = decomposed
        if self._cache_scope is not None:
            self._decompose_owner[key] = self._cache_scope
        return decomposed

    def query_shape(self, query):
        """The :class:`~repro.core.decompose.QueryShape` of *query*: one
        per (range class, paths) until :meth:`bump_schema_version`, and
        not counted in :meth:`cache_stats`."""
        key = (query.range_class, query.all_paths())
        shape = self._shape_cache.get(key)
        if shape is None:
            from repro.core.decompose import QueryShape

            shape = self._shape_cache[key] = QueryShape(self, query)
        return shape

    def bump_schema_version(self) -> None:
        """Invalidate the decomposition cache after a mutation.

        The cache is federation-global and keyed ``(query,
        schema_version)``, so one bump invalidates *every* session's
        cached decompositions at once — a session can never be served a
        decomposition computed against a pre-mutation schema.
        """
        self.schema_version += 1
        self._decompose_cache.clear()
        self._shape_cache.clear()
        self._decompose_owner.clear()

    def bump_epoch(self) -> None:
        """Advance the evolution epoch (one transition applied).

        Implies :meth:`bump_schema_version`: an epoch boundary always
        invalidates cached decompositions across all sessions.
        """
        self.schema_epoch += 1
        self.bump_schema_version()

    def merged_extents(self) -> Dict:
        """The global site's merges at this federation version, by shape.

        What CA hands :func:`~repro.integration.outerjoin.materialize`
        to reuse.  What a merge reads moves only with
        :attr:`schema_version` or a site's ``data_version``: the store
        is dropped wholesale when either does, and until then the shape
        of the exports (classes, attributes, shipping sites) is the key.
        """
        versions = (self.schema_version, tuple(
            (name, db.data_version) for name, db in self.databases.items()
        ))
        if self._merged[0] != versions:
            self._merged = (versions, {})
        return self._merged[1]

    def cache_counts(self) -> Tuple[int, int]:
        """(hits, misses) of the mapping-index and decomposition caches."""
        hits, misses = self.catalog.cache_counts()
        stats = self._decompose_stats
        return hits + stats.hits, misses + stats.misses

    def cache_stats(self) -> CacheStats:
        """Combined mapping-index + decomposition cache traffic."""
        return CacheStats(*self.cache_counts())

    @contextmanager
    def cache_scope(self, name: Optional[str]):
        """Attribute cache traffic inside the block to scope *name*.

        The engine wraps every execution in the executing session's
        scope, so shared-cache contention accounting
        (:meth:`shared_hits_of`) knows which session populated an entry
        and which sessions later reused it.  Scopes nest (restores the
        previous scope on exit); ``None`` disables attribution.
        """
        previous = self._cache_scope
        self._cache_scope = name
        try:
            yield self
        finally:
            self._cache_scope = previous

    def shared_hits_of(self, name: str) -> int:
        """Decomposition hits *name* got on entries another scope built."""
        return self._shared_hits.get(name, 0)

    @property
    def shared_hits_total(self) -> int:
        """All cross-scope decomposition hits on this federation."""
        return sum(self._shared_hits.values())

    # --- planner state -------------------------------------------------------

    @property
    def constraints(self):
        """The per-site constraint catalog (created on first use).

        It reads each database's columnar extent, so it never goes
        stale — mutations are picked up on the next consult.
        """
        if self._constraints is None:
            from repro.planner.constraints import ConstraintCatalog

            self._constraints = ConstraintCatalog()
        return self._constraints

    # --- dynamic registration -----------------------------------------------

    def register_entity(
        self,
        global_class: str,
        copies: Mapping[str, Mapping[str, object]],
        goid: Optional["GOid"] = None,
    ) -> "GOid":
        """Insert one real-world entity with copies at several sites.

        Args:
            global_class: the global class the entity belongs to.
            copies: db name -> attribute values (global attribute names;
                each site stores the subset its constituent defines —
                heterogeneity by construction).  Complex attributes may
                be given as a :class:`~repro.objectdb.ids.GOid`, which is
                translated to the site's local copy of that entity (NULL
                when the site has none), or as a site-local LOid.
            goid: explicit global id; autogenerated when omitted.

        Returns:
            The entity's GOid (all copies registered in the catalog; the
            signature catalog, if built, is updated too).
        """
        from repro.objectdb.ids import GOid as _GOid
        from repro.objectdb.ids import LOid
        from repro.objectdb.objects import LocalObject
        from repro.objectdb.values import NULL

        if global_class not in self.global_schema:
            raise SchemaError(f"unknown global class {global_class!r}")
        if not copies:
            raise SchemaError("an entity needs at least one copy")
        table = self.catalog.table(global_class)
        if goid is None:
            # Probe for a free id: the table may already hold explicitly
            # registered goids ("g<cls>-rN"), so a bare counter collides.
            base = f"g{global_class.lower()}-r"
            candidate = len(table) + 1
            while table.loids_of(_GOid(f"{base}{candidate}")):
                candidate += 1
            goid = _GOid(f"{base}{candidate}")
        gdef = self.global_schema.cls(global_class)

        for db_name, values in copies.items():
            local_cls = self.global_schema.constituent_class(
                db_name, global_class
            )
            if local_cls is None:
                raise SchemaError(
                    f"{db_name!r} holds no constituent of {global_class!r}"
                )
            db = self.db(db_name)
            cdef = db.schema.cls(local_cls)
            stored = {}
            for name, value in values.items():
                if not gdef.has_attribute(name):
                    raise SchemaError(
                        f"{global_class!r} has no attribute {name!r}"
                    )
                if not cdef.has_attribute(name):
                    continue  # missing attribute at this site
                if isinstance(value, _GOid):
                    attr = gdef.attribute(name)
                    if attr.domain is None:
                        raise SchemaError(
                            f"{global_class}.{name} is primitive; cannot "
                            "hold a GOid"
                        )
                    local_ref = self.catalog.table(attr.domain).loid_in(
                        value, db_name
                    )
                    value = local_ref if local_ref is not None else NULL
                stored[name] = value
            loid = LOid(db_name, f"{local_cls.lower()}-r{goid.value}")
            obj = LocalObject(loid=loid, class_name=local_cls, values=stored)
            db.insert(obj, validate=True)
            table.add(goid, loid)
            if self.signatures is not None:
                self.signatures.index_object(obj)
        self.bump_schema_version()
        return goid

    # --- mutation hooks -------------------------------------------------

    def note_mutation(self, db_name: str, obj) -> None:
        """Propagate one in-place object mutation through every cache.

        The single hook mutating code must call after changing a stored
        object's values: it refreshes the owning database's derived
        state (secondary indexes, columnar extents — see
        :meth:`~repro.objectdb.database.ComponentDatabase.note_mutation`),
        re-signs the object in the signature catalog when one is built,
        and bumps the schema version so cached decompositions are
        dropped.  Without it, a built index keeps serving pre-mutation
        buckets (the stale-index bug) and signatures keep filtering on
        stale values.
        """
        self.db(db_name).note_mutation(obj.class_name)
        if self.signatures is not None:
            self.signatures.update_object(obj)
        self.bump_schema_version()

    # --- signatures ------------------------------------------------------

    def build_signatures(self) -> SignatureCatalog:
        """Index every stored object into a replicated signature catalog.

        Idempotent: repeated calls rebuild the catalog.  Required before
        running the BL-S/PL-S signature strategy variants.
        """
        catalog = SignatureCatalog()
        for db in self.databases.values():
            for class_name in db.schema.class_names:
                catalog.index_extent(db.extent(class_name).values())
        self.signatures = catalog
        return catalog

    def ensure_signatures(self) -> SignatureCatalog:
        """Build the signature catalog only if absent; return it.

        The explicit counterpart of the engine's on-demand build: call
        this up front to keep signature indexing out of query execution.
        """
        if self.signatures is None:
            return self.build_signatures()
        return self.signatures

    # --- query-shape helpers ------------------------------------------------

    def involved_attribute_count(self, query, global_class: str) -> int:
        """Number of this class's attributes a query projects or tests."""
        from repro.core.decompose import attributes_needed

        return len(attributes_needed(query, self.global_schema, global_class))
