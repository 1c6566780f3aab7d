"""The epoch-versioned evolution controller.

An :class:`EvolutionController` drives one :class:`~repro.evolution.plan
.EvolutionPlan` against a live :class:`~repro.core.system
.DistributedSystem`.  Every event unfolds as **two transitions** on the
simulated clock:

* **open** (at ``event.at``) — the propagation window starts.  Attribute
  changes mutate the component schemas and re-integrate the global
  schema immediately; a leaving site becomes administratively
  unreachable (the engine refuses every contact to it without a retry
  ladder and merges a synthetic whole-execution outage into every
  in-flux query's fault plan); a join stays invisible.
* **close** (at ``open + propagation_lag_s * n_sites``) — the window
  ends: every site has learned of the change.  A departed site is
  excised from the schema, mapping tables and signature catalog; a
  joining site materializes (schema cloned from a donor, a seeded
  fraction of entities replicated); attribute changes become certified.

Each applied transition bumps the federation's ``schema_epoch`` (and
with it the ``schema_version`` that keys the decomposition cache, so no
session — current or concurrent — can ever be served a stale
decomposition).  The epoch count *is* the replay coordinate: rebuilding
a federation and stepping a fresh controller ``epoch`` times
reconstructs the exact state any query executed against, which is how
the traffic engine's serial verifier replays churned runs.

Queries that execute while any window is open are *straddling*: the
engine consults :meth:`in_flux_view` and applies the consistency
contract (see ``docs/EVOLUTION.md``) — degraded-but-sound answers,
never a wrong certain one.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import EvolutionError
from repro.evolution.events import (
    ATTR_ADD,
    ATTR_DROP,
    ATTR_RENAME,
    SITE_JOIN,
    SITE_LEAVE,
    EvolutionEvent,
)
from repro.evolution.plan import EvolutionPlan
from repro.integration.global_schema import (
    ClassCorrespondence,
    integrate_schemas,
)
from repro.objectdb.database import ComponentDatabase
from repro.objectdb.ids import LOid
from repro.objectdb.objects import LocalObject
from repro.objectdb.schema import (
    AttributeDef,
    ClassDef,
    ComponentSchema,
    primitive,
)
from repro.objectdb.values import NULL, is_null


@dataclass(frozen=True)
class Transition:
    """One applied open/close step, for logs and trace events."""

    phase: str  # "open" | "close"
    event: EvolutionEvent
    at: float
    #: The federation's schema epoch *after* this transition applied.
    epoch: int

    @property
    def label(self) -> str:
        return f"{self.event.label}:{self.phase}"


@dataclass(frozen=True)
class InFluxView:
    """What the engine needs to know about currently-open windows."""

    #: Labels of every open window (the ``epochs_straddled`` annotation).
    labels: Tuple[str, ...] = ()
    #: Sites whose formal leave is open but not yet closed.
    departed_sites: Tuple[str, ...] = ()
    #: Attribute names touched by open drop/rename windows — certain
    #: rows of queries referencing them are demoted to maybe.
    uncertified_attrs: Tuple[str, ...] = ()
    #: label -> the open event (for per-event demotion notes).
    open_events: Tuple[Tuple[str, EvolutionEvent], ...] = ()

    @property
    def active(self) -> bool:
        return bool(self.labels)


class EvolutionController:
    """Applies one plan's transitions to a federation, epoch by epoch."""

    def __init__(self, system, plan: EvolutionPlan) -> None:
        if plan.needs_resolution:
            raise EvolutionError(
                "evolution plan has unresolved auto targets; pass it "
                "through repro.evolution.seeding.safe_plan first"
            )
        self.system = system
        self.plan = plan
        #: Transitions applied so far == the federation's schema epoch
        #: advance attributable to evolution.
        self.applied = 0
        self.log: List[Transition] = []
        #: (label, site, learns_at) — the incremental site-by-site
        #: propagation schedule of every opened window (lag metrics).
        self.propagation: List[Tuple[str, str, float]] = []
        #: Pending opens, in (time, declaration order).
        self._opens: List[EvolutionEvent] = list(plan.ordered_events())
        #: Pending closes: heap of (time, seq, event).
        self._closes: List[Tuple[float, int, EvolutionEvent]] = []
        self._close_seq = 0
        #: label -> open event, for windows currently in flux.
        self._open_events: Dict[str, EvolutionEvent] = {}
        self._validate_targets()
        system.evolution = self

    # --- scheduling --------------------------------------------------------

    @property
    def pending(self) -> int:
        """Transitions not yet applied."""
        return len(self._opens) + len(self._closes)

    @property
    def done(self) -> bool:
        return self.pending == 0

    def next_time(self) -> Optional[float]:
        """Simulated time of the next transition (None when done)."""
        times = []
        if self._opens:
            times.append(self._opens[0].at)
        if self._closes:
            times.append(self._closes[0][0])
        return min(times) if times else None

    def step(self) -> Transition:
        """Apply the next transition (closes win time ties) and return it."""
        if self.done:
            raise EvolutionError("evolution plan fully applied; no next step")
        close_t = self._closes[0][0] if self._closes else None
        open_t = self._opens[0].at if self._opens else None
        if close_t is not None and (open_t is None or close_t <= open_t):
            at, _seq, event = heapq.heappop(self._closes)
            transition = self._close(event, at)
        else:
            event = self._opens.pop(0)
            transition = self._open(event)
        self.log.append(transition)
        return transition

    def run_all(self) -> List[Transition]:
        """Apply every remaining transition, in order."""
        steps: List[Transition] = []
        while not self.done:
            steps.append(self.step())
        return steps

    def step_to(self, epoch: int) -> None:
        """Apply transitions until ``applied == epoch`` (replay helper)."""
        if epoch < self.applied:
            raise EvolutionError(
                f"cannot step backwards: at epoch {self.applied}, "
                f"asked for {epoch}"
            )
        while self.applied < epoch:
            self.step()

    # --- the engine's view --------------------------------------------------

    def in_flux_view(self) -> InFluxView:
        """Snapshot of the currently-open propagation windows."""
        if not self._open_events:
            return InFluxView()
        labels = tuple(sorted(self._open_events))
        departed = tuple(sorted(
            event.site
            for event in self._open_events.values()
            if event.kind == SITE_LEAVE
        ))
        attrs: List[str] = []
        for event in self._open_events.values():
            attrs.extend(event.touched_attrs)
        return InFluxView(
            labels=labels,
            departed_sites=departed,
            uncertified_attrs=tuple(sorted(set(attrs))),
            open_events=tuple(
                (label, self._open_events[label]) for label in labels
            ),
        )

    def propagation_lag(self, label: str) -> float:
        """How long *label*'s window stayed (or will stay) open."""
        times = [t for lbl, _site, t in self.propagation if lbl == label]
        if not times:
            return 0.0
        event = None
        for transition in self.log:
            if transition.event.label == label:
                event = transition.event
                break
        start = event.at if event is not None else min(times)
        return max(times) - start

    # --- transitions --------------------------------------------------------

    def _open(self, event: EvolutionEvent) -> Transition:
        label = event.label
        if label in self._open_events:
            raise EvolutionError(f"window {label!r} already open")
        sites = sorted(self.system.databases)
        lag = self.plan.propagation_lag_s
        close_at = event.at + lag * max(1, len(sites))
        for index, site in enumerate(sites):
            self.propagation.append((label, site, event.at + lag * (index + 1)))
        self._close_seq += 1
        heapq.heappush(self._closes, (close_at, self._close_seq, event))
        self._open_events[label] = event

        if event.kind == SITE_LEAVE:
            # Administrative leave: the site is in in_flux_view's
            # departed_sites from now on, so the engine refuses it
            # without paying a single retry ladder.
            self._require_site(event.site)
        elif event.kind == ATTR_ADD:
            self._apply_attr_add(event)
        elif event.kind == ATTR_DROP:
            self._apply_attr_drop(event)
        elif event.kind == ATTR_RENAME:
            self._apply_attr_rename(event)
        # site_join: nothing happens at open — invisible until close.
        self._bump()
        return Transition(
            phase="open", event=event, at=event.at, epoch=self.applied
        )

    def _close(self, event: EvolutionEvent, at: float) -> Transition:
        label = event.label
        self._open_events.pop(label, None)
        if event.kind == SITE_LEAVE:
            self._apply_site_excision(event)
        elif event.kind == SITE_JOIN:
            self._apply_site_join(event)
        self._bump()
        return Transition(phase="close", event=event, at=at, epoch=self.applied)

    def _bump(self) -> None:
        self.applied += 1
        self.system.bump_epoch()

    # --- mutation: attribute events -----------------------------------------

    def _apply_attr_add(self, event: EvolutionEvent) -> None:
        db = self._require_site(event.site)
        local_cls = self._require_constituent(event.site, event.global_class)
        cdef = db.schema.cls(local_cls)
        if cdef.has_attribute(event.attr):
            raise EvolutionError(
                f"{event.label}: {event.site}.{local_cls} already defines "
                f"{event.attr!r}"
            )
        new_def = ClassDef.of(
            local_cls, tuple(cdef.attributes) + (primitive(event.attr),)
        )
        self._swap_class_def(db, new_def)
        # Existing objects simply lack the key; reads return NULL, which
        # is exactly the missing-data semantics the strategies expect.
        self._reintegrate()

    def _apply_attr_drop(self, event: EvolutionEvent) -> None:
        db = self._require_site(event.site)
        local_cls = self._require_constituent(event.site, event.global_class)
        cdef = db.schema.cls(local_cls)
        if not cdef.has_attribute(event.attr):
            raise EvolutionError(
                f"{event.label}: {event.site}.{local_cls} does not define "
                f"{event.attr!r}"
            )
        corr = self.system.global_schema.correspondence(event.global_class)
        if event.attr == corr.key_attribute:
            raise EvolutionError(
                f"{event.label}: cannot drop the correspondence key "
                f"attribute {event.attr!r}"
            )
        new_def = ClassDef.of(
            local_cls,
            tuple(a for a in cdef.attributes if a.name != event.attr),
        )
        self._swap_class_def(db, new_def)
        for obj in db.extent(local_cls).values():
            obj.values.pop(event.attr, None)
        db.drop_index(local_cls, event.attr)
        # In-place mutation: refresh the site's derived state (columnar
        # extents) and re-sign the touched objects instead of rebuilding
        # the whole signature catalog.
        db.note_mutation(local_cls)
        if self.system.signatures is not None:
            for obj in db.extent(local_cls).values():
                self.system.signatures.update_object(obj)
        self._reintegrate()

    def _apply_attr_rename(self, event: EvolutionEvent) -> None:
        global_schema = self.system.global_schema
        corr = global_schema.correspondence(event.global_class)
        if event.attr == corr.key_attribute:
            raise EvolutionError(
                f"{event.label}: cannot rename the correspondence key "
                f"attribute {event.attr!r}"
            )
        touched = 0
        for ref in corr.constituents:
            db = self.system.db(ref.db_name)
            cdef = db.schema.cls(ref.class_name)
            if not cdef.has_attribute(event.attr):
                continue
            if cdef.has_attribute(event.new_name):
                raise EvolutionError(
                    f"{event.label}: {ref.db_name}.{ref.class_name} already "
                    f"defines {event.new_name!r}"
                )
            renamed = tuple(
                AttributeDef(
                    name=event.new_name,
                    kind=a.kind,
                    domain=a.domain,
                    multi_valued=a.multi_valued,
                ) if a.name == event.attr else a
                for a in cdef.attributes
            )
            self._swap_class_def(db, ClassDef.of(ref.class_name, renamed))
            for obj in db.extent(ref.class_name).values():
                if event.attr in obj.values:
                    obj.values[event.new_name] = obj.values.pop(event.attr)
            kind = db.drop_index(ref.class_name, event.attr)
            if kind is not None:
                db.create_index(ref.class_name, event.new_name, kind)
            # The rename mutated every stored object in place; refresh
            # the site's derived state and re-sign the class (signature
            # codes hash the attribute *name*, so a rename changes them).
            db.note_mutation(ref.class_name)
            if self.system.signatures is not None:
                for obj in db.extent(ref.class_name).values():
                    self.system.signatures.update_object(obj)
            touched += 1
        if touched == 0:
            raise EvolutionError(
                f"{event.label}: no constituent of {event.global_class!r} "
                f"defines {event.attr!r}"
            )
        multi = corr.multi_valued_attributes
        if event.attr in multi:
            new_corr = ClassCorrespondence.of(
                corr.global_name,
                [(r.db_name, r.class_name) for r in corr.constituents],
                key_attribute=corr.key_attribute,
                multi_valued_attributes=sorted(
                    (multi - {event.attr}) | {event.new_name}
                ),
            )
            self._reintegrate({corr.global_name: new_corr})
        else:
            self._reintegrate()

    # --- mutation: membership events ----------------------------------------

    def _apply_site_excision(self, event: EvolutionEvent) -> None:
        site = event.site
        self._require_site(site)
        replacements: Dict[str, Optional[ClassCorrespondence]] = {}
        for name, corr in self._correspondences().items():
            remaining = [
                (r.db_name, r.class_name)
                for r in corr.constituents
                if r.db_name != site
            ]
            if not remaining:
                raise EvolutionError(
                    f"{event.label}: {name!r} would lose its last "
                    "constituent"
                )
            if len(remaining) != len(corr.constituents):
                replacements[name] = ClassCorrespondence.of(
                    name, remaining,
                    key_attribute=corr.key_attribute,
                    multi_valued_attributes=sorted(
                        corr.multi_valued_attributes
                    ),
                )
        del self.system.databases[site]
        for table in self.system.catalog.tables():
            table.discard_db(site)
        if self.system.signatures is not None:
            self.system.signatures.drop_site(site)
        self._reintegrate(replacements)

    def _apply_site_join(self, event: EvolutionEvent) -> None:
        site = event.site
        if site in self.system.databases:
            raise EvolutionError(f"{event.label}: site {site!r} already exists")
        donor_name = sorted(self.system.databases)[0]
        donor = self.system.db(donor_name)
        schema = ComponentSchema.of(
            site, [donor.schema.cls(n) for n in donor.schema.class_names]
        )
        new_db = ComponentDatabase(schema)
        self.system.databases[site] = new_db
        replacements: Dict[str, ClassCorrespondence] = {}
        for name, corr in self._correspondences().items():
            donor_cls = None
            for ref in corr.constituents:
                if ref.db_name == donor_name:
                    donor_cls = ref.class_name
                    break
            if donor_cls is None:
                continue
            replacements[name] = ClassCorrespondence.of(
                name,
                [(r.db_name, r.class_name) for r in corr.constituents]
                + [(site, donor_cls)],
                key_attribute=corr.key_attribute,
                multi_valued_attributes=sorted(corr.multi_valued_attributes),
            )
        self._clone_entities(event, donor_name, new_db, replacements)
        self._reintegrate(replacements)

    def _clone_entities(
        self,
        event: EvolutionEvent,
        donor_name: str,
        new_db: ComponentDatabase,
        replacements: Dict[str, ClassCorrespondence],
    ) -> None:
        """Replicate a seeded fraction of every class's entities.

        First pass inserts objects with merged primitive values (first
        non-null across existing copies, in sorted site order) and NULL
        complex references; the second pass wires references to the
        local copies that now exist — mirroring how the generator keeps
        stored references site-local.
        """
        rng = random.Random(f"evolve:{self.plan.seed}:join:{event.site}")
        site = event.site
        cloned: List[Tuple[str, object, LocalObject, ClassDef]] = []
        for name in sorted(replacements):
            corr = replacements[name]
            local_cls = None
            for ref in corr.constituents:
                if ref.db_name == site:
                    local_cls = ref.class_name
            if local_cls is None:
                continue
            cdef = new_db.schema.cls(local_cls)
            table = self.system.catalog.table(name)
            goids = sorted(table.goids(), key=lambda g: g.value)
            count = int(len(goids) * self.plan.clone_fraction)
            if not goids or count == 0:
                continue
            for goid in rng.sample(goids, count):
                values: Dict[str, object] = {}
                copies = sorted(table.loids_of(goid).items())
                for attr in cdef.attributes:
                    if attr.domain is not None:
                        values[attr.name] = NULL
                        continue
                    merged = NULL
                    for _db_name, loid in copies:
                        obj = self.system.db(loid.db).get(loid)
                        if obj is None:
                            continue
                        value = obj.values.get(attr.name, NULL)
                        if not is_null(value):
                            merged = value
                            break
                    values[attr.name] = merged
                loid = LOid(site, f"{local_cls.lower()}-j{goid.value}")
                obj = LocalObject(
                    loid=loid, class_name=local_cls, values=values
                )
                new_db.insert(obj, validate=False)
                table.add(goid, loid)
                cloned.append((name, goid, obj, cdef))
        # Second pass: point complex attributes at local copies.
        mutated_classes: Dict[str, None] = {}
        for name, goid, obj, cdef in cloned:
            for attr in cdef.attributes:
                if attr.domain is None:
                    continue
                ref_goid = self._referenced_goid(name, goid, attr.name)
                if ref_goid is None:
                    continue
                local = self.system.catalog.table(
                    self._domain_global(name, attr.name, donor_name)
                ).loid_in(ref_goid, site)
                if local is not None:
                    obj.values[attr.name] = local
                    mutated_classes.setdefault(obj.class_name)
        # The reference wiring mutated freshly-inserted objects in place.
        for class_name in mutated_classes:
            new_db.note_mutation(class_name)
        if self.system.signatures is not None:
            for _name, _goid, obj, _cdef in cloned:
                self.system.signatures.index_object(obj)

    def _referenced_goid(self, global_class, goid, attr_name):
        """The GOid some existing copy's *attr_name* reference points at."""
        table = self.system.catalog.table(global_class)
        for db_name, loid in sorted(table.loids_of(goid).items()):
            if db_name not in self.system.databases:
                continue
            obj = self.system.db(db_name).get(loid)
            if obj is None:
                continue
            value = obj.values.get(attr_name, NULL)
            if is_null(value) or not isinstance(value, LOid):
                continue
            ref_cls = self.system.db(db_name).get(value)
            if ref_cls is None:
                continue
            target_global = self.system.global_schema.global_class_of(
                db_name, ref_cls.class_name
            )
            if target_global is None:
                continue
            ref_goid = self.system.catalog.table(target_global).goid_of(value)
            if ref_goid is not None:
                return ref_goid
        return None

    def _domain_global(self, global_class, attr_name, donor_name):
        """Global class a complex attribute's domain integrates into."""
        gdef = self.system.global_schema.cls(global_class)
        attr = gdef.attribute(attr_name)
        return attr.domain

    # --- shared plumbing -----------------------------------------------------

    def _correspondences(self) -> Dict[str, ClassCorrespondence]:
        return dict(self.system.global_schema._correspondences)

    def _reintegrate(
        self,
        replacements: Optional[Dict[str, ClassCorrespondence]] = None,
    ) -> None:
        corrs = self._correspondences()
        if replacements:
            corrs.update(
                {k: v for k, v in replacements.items() if v is not None}
            )
        schemas = {
            name: db.schema for name, db in self.system.databases.items()
        }
        self.system.global_schema = integrate_schemas(
            schemas, list(corrs.values())
        )
        # Signatures are maintained incrementally at each mutation site
        # (update_object / index_object / drop_site), so re-integration
        # no longer rebuilds the whole catalog per transition.

    def _swap_class_def(self, db: ComponentDatabase, new_def: ClassDef) -> None:
        defs = [
            new_def if name == new_def.name else db.schema.cls(name)
            for name in db.schema.class_names
        ]
        db.schema = ComponentSchema.of(db.name, defs)

    def _require_site(self, site: str) -> ComponentDatabase:
        db = self.system.databases.get(site)
        if db is None:
            raise EvolutionError(f"unknown site {site!r}")
        return db

    def _require_constituent(self, site: str, global_class: str) -> str:
        local_cls = self.system.global_schema.constituent_class(
            site, global_class
        )
        if local_cls is None:
            raise EvolutionError(
                f"site {site!r} holds no constituent of {global_class!r}"
            )
        return local_cls

    def _validate_targets(self) -> None:
        """Cheap static validation of site events against the current roster.

        Attribute events are validated when they apply (earlier events
        may create the classes/sites they touch).
        """
        roster = set(self.system.databases)
        for event in self.plan.ordered_events():
            if event.kind == SITE_LEAVE:
                if event.site not in roster:
                    raise EvolutionError(
                        f"{event.label}: unknown site {event.site!r}"
                    )
                roster.discard(event.site)
                if not roster:
                    raise EvolutionError(
                        f"{event.label}: cannot remove the last site"
                    )
            elif event.kind == SITE_JOIN:
                if event.site in roster:
                    raise EvolutionError(
                        f"{event.label}: site {event.site!r} already exists"
                    )
                roster.add(event.site)
