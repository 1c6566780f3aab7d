"""Evolution events: the atoms of live federation change.

An :class:`EvolutionEvent` is one scheduled change to the federation —
a site joining or leaving, or a component-schema attribute being added,
dropped or renamed.  Events are declarative and seeded (like
:class:`~repro.faults.plan.FaultPlan` windows): the event says *what*
changes and *when* its propagation window opens on the simulated clock;
the :class:`~repro.evolution.controller.EvolutionController` decides how
the change rolls out site-by-site and when the window closes.

Semantics per kind (see ``docs/EVOLUTION.md`` for the full contract):

``site_join``
    A new component database joins, cloning a donor site's component
    schema and a seeded fraction of existing entities.  The join is
    *invisible until its window closes* — queries in flight keep seeing
    the pre-join federation.
``site_leave``
    A site formally departs.  The window opening makes the site
    unreachable (every contact refused without a retry ladder, plus a
    synthetic whole-execution outage); the window closing excises the
    site from the schema, the mapping tables and the signature catalog.
``attr_add`` / ``attr_drop`` / ``attr_rename``
    Component-schema changes at one site (add/drop) or across every
    defining site (rename), applied when the window opens and
    *certified* only once it closes — queries straddling the window get
    their affected certain rows demoted to maybe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.errors import EvolutionError

#: Event kinds.
SITE_JOIN = "site_join"
SITE_LEAVE = "site_leave"
ATTR_ADD = "attr_add"
ATTR_DROP = "attr_drop"
ATTR_RENAME = "attr_rename"

KINDS = (SITE_JOIN, SITE_LEAVE, ATTR_ADD, ATTR_DROP, ATTR_RENAME)

#: Kinds whose schema/data mutation applies when the window *opens*
#: (joins instead apply at the close — invisible until certified).
MUTATES_AT_OPEN = (ATTR_ADD, ATTR_DROP, ATTR_RENAME)


@dataclass(frozen=True)
class EvolutionEvent:
    """One scheduled federation change.

    Attributes:
        kind: one of :data:`KINDS`.
        at: simulated time the propagation window opens.
        site: the joining/leaving site, or the site whose component
            schema gains/loses an attribute (empty for ``attr_rename``,
            which applies at every defining site).
        global_class: the global class an attribute event touches.
        attr: the attribute being added/dropped/renamed.
        new_name: the post-rename attribute name (``attr_rename`` only).
    """

    kind: str
    at: float
    site: str = ""
    global_class: str = ""
    attr: str = ""
    new_name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise EvolutionError(
                f"unknown evolution event kind {self.kind!r} "
                f"(choose from {list(KINDS)})"
            )
        if self.at < 0:
            raise EvolutionError(
                f"{self.kind} event scheduled at negative time {self.at}"
            )
        if self.kind in (SITE_JOIN, SITE_LEAVE) and not self.site:
            raise EvolutionError(f"{self.kind} event needs a site name")
        if self.kind in (ATTR_ADD, ATTR_DROP):
            if not (self.site and self.global_class and self.attr):
                raise EvolutionError(
                    f"{self.kind} event needs site, global_class and attr"
                )
        if self.kind == ATTR_RENAME:
            if not (self.global_class and self.attr and self.new_name):
                raise EvolutionError(
                    "attr_rename event needs global_class, attr and new_name"
                )
            if self.new_name == self.attr:
                raise EvolutionError(
                    f"attr_rename of {self.attr!r} to itself is a no-op"
                )

    @property
    def label(self) -> str:
        """Compact identity used in notes, traces and annotations."""
        if self.kind == SITE_JOIN:
            return f"join:{self.site}"
        if self.kind == SITE_LEAVE:
            return f"leave:{self.site}"
        if self.kind == ATTR_ADD:
            return f"add:{self.site}.{self.global_class}.{self.attr}"
        if self.kind == ATTR_DROP:
            return f"drop:{self.site}.{self.global_class}.{self.attr}"
        return f"rename:{self.global_class}.{self.attr}>{self.new_name}"

    @property
    def touched_attrs(self) -> tuple:
        """Attribute names whose meaning is in flux during the window."""
        if self.kind == ATTR_DROP:
            return (self.attr,)
        if self.kind == ATTR_RENAME:
            return (self.attr, self.new_name)
        return ()

    def to_dict(self) -> Dict[str, object]:
        raw: Dict[str, object] = {"kind": self.kind, "at": self.at}
        for name in ("site", "global_class", "attr", "new_name"):
            value = getattr(self, name)
            if value:
                raw[name] = value
        return raw

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "EvolutionEvent":
        return cls(
            kind=str(raw["kind"]),
            at=float(raw["at"]),
            site=str(raw.get("site", "")),
            global_class=str(raw.get("global_class", "")),
            attr=str(raw.get("attr", "")),
            new_name=str(raw.get("new_name", "")),
        )
