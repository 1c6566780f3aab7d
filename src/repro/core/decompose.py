"""Decomposing a global query into per-site local queries.

For every component database holding a constituent of the query's root
class, the localized strategies produce a *local query* (paper, step
BL_G1): the original query rewritten against the local root class, with
the predicates that involve missing attributes of the site's constituent
classes removed (they are statically unsolvable there) and remembered as
:class:`~repro.objectdb.local_query.RemovedPredicate` so that the site can
still locate unsolved items for them.

The key static computation is :func:`missing_depth`: at which step of a
predicate's path expression a given site's schema runs out of data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.query import Conjunction, Path, Predicate, Query
from repro.errors import QueryError
from repro.integration.global_schema import GlobalSchema
from repro.objectdb.local_query import LocalQuery, RemovedPredicate


def missing_depth(
    global_schema: GlobalSchema,
    db_name: str,
    range_class: str,
    path: Path,
) -> Optional[int]:
    """First path step unavailable at *db_name*, or None if fully local.

    Walks the global classes visited by *path* from *range_class* and
    checks, for each step, that the site has a constituent of the visited
    class and that the constituent defines the step's attribute.

    Returns:
        The 0-based index of the first unavailable step, or ``None`` when
        the whole path can be evaluated from the site's own schema.

    Raises:
        QueryError: when the site has no constituent of *range_class* at
            all (such a site receives no local query in the first place).
    """
    visited_classes = global_schema.schema.classes_on_path(range_class, path.steps)
    for depth, step in enumerate(path.steps):
        global_cls = visited_classes[depth]
        local_cls_name = global_schema.constituent_class(db_name, global_cls)
        if local_cls_name is None:
            if depth == 0:
                raise QueryError(
                    f"database {db_name!r} has no constituent of "
                    f"{range_class!r}"
                )
            # The class itself is absent at this site; data ran out at the
            # step that would have referenced it.
            return depth - 1
        if step in global_schema.missing_attribute_names(db_name, global_cls):
            return depth
    return None


@dataclass
class DecomposedQuery:
    """The per-site local queries of one global query."""

    query: Query
    local_queries: Dict[str, LocalQuery] = field(default_factory=dict)

    @property
    def databases(self) -> Tuple[str, ...]:
        return tuple(self.local_queries)


def decompose(query: Query, global_schema: GlobalSchema) -> DecomposedQuery:
    """Produce the local query for every site holding the root class.

    The paper's step BL_G1 keeps predicates "unchanged at this step" and
    lets each component database drop what it cannot evaluate; we perform
    that split here, statically, since it depends only on schemas — the
    observable behaviour (which predicates are evaluated where) is
    identical.
    """
    query.validate(global_schema.schema)
    decomposed = DecomposedQuery(query=query)
    for db_name in global_schema.databases_of(query.range_class):
        local_root = global_schema.constituent_class(db_name, query.range_class)
        if local_root is None:  # pragma: no cover - databases_of guarantees it
            continue
        removed: List[RemovedPredicate] = []
        removed_set = set()
        local_where: List[Conjunction] = []
        removed_by_conjunct: List[Tuple[Predicate, ...]] = []
        for conjunction in query.where:
            kept: List[Predicate] = []
            dropped: List[Predicate] = []
            for predicate in conjunction:
                depth = missing_depth(
                    global_schema, db_name, query.range_class, predicate.path
                )
                if depth is None:
                    kept.append(predicate)
                else:
                    dropped.append(predicate)
                    if predicate not in removed_set:
                        removed_set.add(predicate)
                        removed.append(
                            RemovedPredicate(
                                predicate=predicate, missing_depth=depth
                            )
                        )
            local_where.append(tuple(kept))
            removed_by_conjunct.append(tuple(dropped))
        decomposed.local_queries[db_name] = LocalQuery(
            db_name=db_name,
            range_class=local_root,
            targets=query.targets,
            where=tuple(local_where),
            removed=tuple(removed),
            removed_by_conjunct=tuple(removed_by_conjunct),
        )
    return decomposed


def attributes_needed(
    query: Query, global_schema: GlobalSchema, global_class: str
) -> Tuple[str, ...]:
    """Attributes of *global_class* the query touches (for projection).

    Used by the centralized strategy's export step (CA_C1): objects are
    projected on the LOids and the attributes involved in the query.
    """
    needed: List[str] = []
    for path in query.all_paths():
        visited = global_schema.schema.classes_on_path(
            query.range_class, path.steps
        )
        for depth, step in enumerate(path.steps):
            if visited[depth] == global_class and step not in needed:
                needed.append(step)
    # The key attribute rides along: integration and result identity use it.
    key = global_schema.key_attribute(global_class)
    if key not in needed:
        needed.append(key)
    return tuple(needed)


def attributes_needed_by_class(
    query: Query, global_schema: GlobalSchema, classes: Iterable[str]
) -> Dict[str, Tuple[str, ...]]:
    """:func:`attributes_needed` of each of *classes*.

    The lists depend on the class only, so one execution computes them
    once and every site projects (or is sized) through them.
    """
    return {
        cls: attributes_needed(query, global_schema, cls) for cls in classes
    }


class QueryShape:
    """What executing a query needs that depends only on its shape (range
    class and paths) and the schemas: one per shape and schema version,
    kept by :meth:`~repro.core.system.DistributedSystem.query_shape`."""

    def __init__(self, system, query: Query) -> None:
        root, schema = query.range_class, system.global_schema.schema
        self._system, self._root = system, root
        #: The paper's branch classes (:meth:`Query.branch_classes`).
        self.branch_classes = query.branch_classes(schema)
        #: :func:`attributes_needed` of the root and each branch class.
        self.needed = attributes_needed_by_class(
            query, system.global_schema, (root,) + self.branch_classes
        )
        #: Every path of the query -> its resolved attribute chain.
        self.chains = {
            path: schema.resolve_path(root, path.steps)
            for path in query.all_paths()
        }
        self._sizes: Dict[str, Tuple[float, float]] = {}

    def site_size(self, db_name: str) -> Tuple[float, float]:
        """(root object bytes, average branch object bytes) at *db_name*,
        counting the needed attributes the site's classes store."""
        sizes = self._sizes.get(db_name)
        if sizes is None:
            system, needed = self._system, self.needed

            def stored(global_cls: str) -> int:
                local_cls = system.global_schema.constituent_class(
                    db_name, global_cls
                )
                if local_cls is None:
                    return len(needed[global_cls])
                cdef = system.db(db_name).schema.cls(local_cls)
                return sum(map(cdef.has_attribute, needed[global_cls]))

            cost, branch = system.cost_model, self.branch_classes
            sizes = self._sizes[db_name] = (
                cost.object_bytes(stored(self._root)),
                cost.object_bytes(sum(map(stored, branch)) / len(branch))
                if branch else 0.0,
            )
        return sizes

    def branch_average(self, sites: Iterable[str]) -> float:
        """The branch object size averaged over *sites* (0.0 for none)."""
        branch = [self.site_size(db_name)[1] for db_name in sites]
        return sum(branch) / len(branch) if branch else 0.0
