"""Completing target bindings at the global site (localized strategies).

CA materializes every global class before evaluating, so a target value
present at *any* copy of an entity always lands in the answer.  The
localized strategies build their answers from per-site local result
rows, and a site can only bind what its own schema and its own data let
it walk: a nested reference the site cannot follow, or a value stored
only at another site's copy, leaves the merged binding NULL where CA
returns data — the answers would certify the same entities while
disagreeing on the returned values.

This module is the localized strategies' missing last step: after
certification, the global processing site (which holds the replicated
GOid mapping tables) fetches the still-missing target values from the
sites that have them, mirroring the outerjoin merge policy of
:mod:`repro.integration.outerjoin` exactly —

* contributors are visited in the global class's constituent order;
* single-valued attributes take the first non-null contribution;
* multi-valued global attributes collect *all* distinct contributed
  values into a :class:`~repro.objectdb.values.MultiValue` (even when a
  single site contributed — CA wraps those too);
* complex-attribute LOids translate to GOids, dangling references read
  as missing.

Under a fault plan, fetches to unreachable sites are skipped (the
binding stays NULL and the execution is marked incomplete), preserving
the degraded-answer soundness contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.query import Query
from repro.core.results import ResultSet
from repro.core.system import DistributedSystem
from repro.faults.injector import ExecutionContext
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.schema import AttributeDef
from repro.objectdb.values import MultiValue, NULL, Value, is_null


@dataclass
class ResolutionStats:
    """Work performed by one binding-completion pass (for the sim)."""

    #: Result rows whose bindings the pass touched.
    entities_resolved: int = 0
    #: GOid mapping-table probes.
    mapping_lookups: int = 0
    #: site -> attribute fetches served by that site.
    fetches_by_site: Dict[str, int] = field(default_factory=dict)
    #: Sites whose copies could not be consulted (fault plan).
    skipped_sites: List[str] = field(default_factory=list)
    #: Attribute merges whose outcome an unreachable copy could still
    #: change (the value settled before any skip is *not* counted: the
    #: fault-free walk would have stopped at the same contributor).
    unresolved: int = 0

    @property
    def fetches(self) -> int:
        return sum(self.fetches_by_site.values())


def resolve_missing_bindings(
    system: DistributedSystem,
    query: Query,
    answer: ResultSet,
    ctx: ExecutionContext,
    stats: Optional[ResolutionStats] = None,
) -> ResolutionStats:
    """Fill the target bindings local evaluation could not produce.

    A binding is (re)computed through a federation-wide walk when it is
    still NULL after the per-site merge, or when the target's final
    attribute is multi-valued in the global schema (the local rows see
    only their own site's values; CA's answer is the union over all
    copies).  Values the sites already agreed on are left untouched.

    The answer is read as columns (:meth:`ResultSet.as_columns`), row by
    row: a certain list that is still columns is written in place and
    never turned into results.
    """
    stats = stats if stats is not None else ResolutionStats()
    if not len(answer):
        return stats  # nothing to walk, so no target is resolved either
    targets = answer.targets
    shape = system.query_shape(query)
    chains = [
        (i, target, shape.chains[target]) for i, target in enumerate(targets)
    ]
    repeated = len(set(targets)) < len(targets)
    for _, goids, values, rows in answer.as_columns():
        for r in range(len(goids)):
            touched = False
            for i, target, chain in chains:
                current = values[i][r]
                if not chain[-1].multi_valued and not is_null(current):
                    continue
                value = _global_walk(
                    system, goids[r], query.range_class, target.steps,
                    chain, ctx, stats,
                )
                if value != current:
                    values[i][r] = value
                    if repeated:  # a repeated target is one binding
                        for j, other in enumerate(targets):
                            if other == target:
                                values[j][r] = value
                    if rows is not None:
                        rows[r].bindings[target] = value
                    touched = True
            if touched:
                stats.entities_resolved += 1
    return stats


def _global_walk(
    system: DistributedSystem,
    goid: GOid,
    range_class: str,
    steps,
    chain: List[AttributeDef],
    ctx: ExecutionContext,
    stats: ResolutionStats,
) -> Value:
    """Walk a target path entity-by-entity across the whole federation."""
    current_goid = goid
    current_class = range_class
    for index, attr in enumerate(chain):
        merged = _merge_entity_attribute(
            system, current_class, current_goid, attr, ctx, stats
        )
        if index == len(chain) - 1:
            return merged
        if is_null(merged) or not isinstance(merged, GOid):
            return NULL
        current_goid = merged
        current_class = attr.domain  # type: ignore[assignment]
    return NULL  # pragma: no cover - chain is never empty


def _merge_entity_attribute(
    system: DistributedSystem,
    global_class: str,
    goid: GOid,
    attr: AttributeDef,
    ctx: ExecutionContext,
    stats: ResolutionStats,
) -> Value:
    """Merge one attribute across every copy of one entity.

    Mirrors :func:`repro.integration.outerjoin._merge_attribute`:
    constituent order, first-non-null for single-valued attributes, the
    distinct union for multi-valued ones, LOid->GOid translation with
    dangling references treated as missing.
    """
    table = system.catalog.table(global_class)
    stats.mapping_lookups += 1
    placements = table.placements(goid)
    collected: List[Value] = []
    skipped_here = False
    for db_name in system.global_schema.databases_of(global_class):
        loid = placements.get(db_name)
        if loid is None:
            continue
        if not ctx.reachable(system.global_site, db_name):
            if db_name not in stats.skipped_sites:
                stats.skipped_sites.append(db_name)
            skipped_here = True
            continue
        obj = system.db(db_name).get(loid)
        if obj is None:  # pragma: no cover - mapping implies presence
            continue
        stats.fetches_by_site[db_name] = (
            stats.fetches_by_site.get(db_name, 0) + 1
        )
        raw = obj.get(attr.name)
        if is_null(raw):
            continue
        members = list(raw) if isinstance(raw, MultiValue) else [raw]
        for member in members:
            if attr.is_complex:
                member = _translate(member, attr.domain, system, stats)
                if is_null(member):
                    continue
            collected.append(member)
        if collected and not attr.multi_valued:
            break  # first non-null contributor wins
    if skipped_here:
        # A skipped copy preceded (or prevented) the winning
        # contribution, so the merged value may differ from fault-free.
        stats.unresolved += 1
    if not collected:
        return NULL
    if attr.multi_valued:
        return MultiValue(collected)
    return collected[0]


def _translate(
    value: Union[Value, LOid, GOid],
    domain: Optional[str],
    system: DistributedSystem,
    stats: ResolutionStats,
) -> Value:
    """Rewrite a complex-attribute LOid to its entity's GOid."""
    if isinstance(value, GOid):
        return value
    if not isinstance(value, LOid) or domain is None:
        return NULL
    stats.mapping_lookups += 1
    goid = system.catalog.table(domain).goid_of(value)
    return NULL if goid is None else goid
