"""The condition algebra: dischargeable provenance for degraded rows.

A *condition* states what must clear before a maybe/uncertified row can
be promoted.  Atoms name the four degradation causes of this system:

* :class:`NullAttr` — a predicate stayed UNKNOWN on genuine data (a
  NULL attribute somewhere in the federation).  No recovery discharges
  it: the fault-free baseline is maybe too ("sampling" missingness).
* :class:`SiteDown` — a site holding certification evidence (an extent
  CA needed, or a placement of the entity) was unreachable.
* :class:`UncheckedCopy` — an assistant copy's check could not be
  dispatched, so its verdict is missing.
* :class:`FluxEpoch` — the execution straddled an open evolution window
  touching a referenced attribute.

Conditions evaluate in 3VL against a live :class:`SystemState`:
``status()`` answers "is the blocking cause cleared *now*?" — TRUE when
discharge is possible (site reachable again, window closed), FALSE when
it never will be (a genuine null; a site formally excised from the
federation), UNKNOWN while still blocked.  The atoms attached to one
row form an implicit conjunction: the row can be fully re-certified
only when every atom's status is TRUE (:func:`And` / strong-Kleene
``all3``), which is exactly the monotone repair contract the
:class:`~repro.conditions.recertify.ReCertifier` enforces.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Tuple

from repro.core.tvl import TV, all3, any3
from repro.objectdb.ids import GOid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import DistributedSystem
    from repro.faults.injector import ExecutionContext

#: Missingness mechanisms (Bertossi, arXiv:2604.06520): MCAR-ish
#: sampling nulls vs systematic, recovery-dischargeable causes.
SAMPLING = "sampling"
SYSTEMATIC = "systematic"


@dataclass(frozen=True)
class SystemState:
    """A live view of the federation a condition evaluates against.

    *ctx* carries reachability (a context that injects no faults
    reaches every present site — the fully-healed view the re-certifier
    defaults to); *flux_labels* are the evolution windows currently
    open.
    """

    system: "DistributedSystem"
    ctx: "ExecutionContext"
    flux_labels: Tuple[str, ...] = ()
    epoch: int = 0

    @classmethod
    def current(
        cls,
        system: "DistributedSystem",
        ctx: "ExecutionContext",
    ) -> "SystemState":
        """Snapshot the federation as it stands right now."""
        evo = getattr(system, "evolution", None)
        labels: Tuple[str, ...] = ()
        if evo is not None:
            labels = tuple(evo.in_flux_view().labels)
        return cls(
            system=system,
            ctx=ctx,
            flux_labels=labels,
            epoch=getattr(system, "schema_epoch", 0),
        )

    def site_status(self, site: str) -> TV:
        """Whether a site-blocked cause is cleared (3VL).

        TRUE: the site is present and reachable — dischargeable now.
        FALSE: the site was formally excised from the federation — the
        evidence is gone for good.  UNKNOWN: present but unreachable.
        """
        if site not in self.system.databases:
            return TV.FALSE
        return (
            TV.TRUE
            if self.ctx.reachable(self.system.global_site, site)
            else TV.UNKNOWN
        )

    def flux_status(self, label: str) -> TV:
        """TRUE once the named evolution window has closed."""
        return TV.UNKNOWN if label in self.flux_labels else TV.TRUE


class Condition(abc.ABC):
    """A 3VL-evaluable discharge condition (atom or connective)."""

    @abc.abstractmethod
    def status(self, state: SystemState) -> TV:
        """Is the blocking cause cleared under *state*?"""

    @abc.abstractmethod
    def atoms(self) -> Iterator["Condition"]:
        """The leaf atoms of this condition, in order."""

    @abc.abstractmethod
    def sort_key(self) -> Tuple:
        """Deterministic ordering key (atoms sort stably in rows)."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Compact one-token rendering for explain/CLI output."""

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class NullAttr(Condition):
    """A predicate left UNKNOWN by a genuine NULL attribute.

    *site* is the component database whose local evaluation observed
    the null (empty when only the fused global merge saw it, as in
    CA's evaluation over the materialized extent); *attr* names the
    unsolved predicate.  Never dischargeable — the fault-free baseline
    carries the same UNKNOWN.
    """

    site: str
    goid: GOid
    attr: str

    def status(self, state: SystemState) -> TV:
        return TV.FALSE

    def atoms(self) -> Iterator[Condition]:
        yield self

    def sort_key(self) -> Tuple:
        return ("null", self.site, self.goid.value, self.attr)

    def describe(self) -> str:
        where = self.site or "*"
        return f"null[{where}:{self.goid.value}:{self.attr}]"


@dataclass(frozen=True)
class SiteDown(Condition):
    """A site holding certification evidence was unreachable.

    *window* is the outage interval observed at dispatch time, kept for
    provenance (discharge consults the live state, not the window).
    """

    site: str
    window: Tuple[float, float] = (0.0, 0.0)

    def status(self, state: SystemState) -> TV:
        return state.site_status(self.site)

    def atoms(self) -> Iterator[Condition]:
        yield self

    def sort_key(self) -> Tuple:
        return ("site-down", self.site, "", "")

    def describe(self) -> str:
        return f"site-down[{self.site}]"


@dataclass(frozen=True)
class UncheckedCopy(Condition):
    """An assistant copy whose check verdict is missing."""

    site: str
    goid: GOid

    def status(self, state: SystemState) -> TV:
        return state.site_status(self.site)

    def atoms(self) -> Iterator[Condition]:
        yield self

    def sort_key(self) -> Tuple:
        return ("unchecked", self.site, self.goid.value, "")

    def describe(self) -> str:
        return f"unchecked[{self.site}:{self.goid.value}]"


@dataclass(frozen=True)
class FluxEpoch(Condition):
    """The execution straddled an open evolution window.

    *epoch* pins the schema epoch the query ran at; *event* is the
    window's label (e.g. ``"drop:DB2.Student.email"``).
    """

    epoch: int
    event: str

    def status(self, state: SystemState) -> TV:
        return state.flux_status(self.event)

    def atoms(self) -> Iterator[Condition]:
        yield self

    def sort_key(self) -> Tuple:
        return ("flux", self.event, str(self.epoch), "")

    def describe(self) -> str:
        return f"flux[{self.event}@{self.epoch}]"


@dataclass(frozen=True)
class And(Condition):
    """Strong-Kleene conjunction: dischargeable when every part is."""

    parts: Tuple[Condition, ...]

    def status(self, state: SystemState) -> TV:
        return all3(part.status(state) for part in self.parts)

    def atoms(self) -> Iterator[Condition]:
        for part in self.parts:
            yield from part.atoms()

    def sort_key(self) -> Tuple:
        return ("and",) + tuple(p.sort_key() for p in self.parts)

    def describe(self) -> str:
        return "(" + " & ".join(p.describe() for p in self.parts) + ")"


@dataclass(frozen=True)
class Or(Condition):
    """Strong-Kleene disjunction: dischargeable when any part is."""

    parts: Tuple[Condition, ...]

    def status(self, state: SystemState) -> TV:
        return any3(part.status(state) for part in self.parts)

    def atoms(self) -> Iterator[Condition]:
        for part in self.parts:
            yield from part.atoms()

    def sort_key(self) -> Tuple:
        return ("or",) + tuple(p.sort_key() for p in self.parts)

    def describe(self) -> str:
        return "(" + " | ".join(p.describe() for p in self.parts) + ")"


def attach(row, *conditions: Condition) -> None:
    """Merge atoms into a row's condition conjunction (dedup, sorted).

    A row's ``conditions`` tuple is an implicit conjunction; attaching
    keeps it deduplicated and deterministically ordered regardless of
    the order degradation paths ran in.
    """
    merged = {c: None for c in row.conditions}
    for condition in conditions:
        merged.setdefault(condition, None)
    row.conditions = tuple(sorted(merged, key=lambda c: c.sort_key()))


def condition_sites(conditions: Iterable[Condition]) -> Tuple[str, ...]:
    """The sites named by site-blocked atoms, sorted (repair targets)."""
    sites = set()
    for condition in conditions:
        for atom in condition.atoms():
            if isinstance(atom, (SiteDown, UncheckedCopy)):
                sites.add(atom.site)
    return tuple(sorted(sites))


def mechanism(conditions: Iterable[Condition]) -> str:
    """Classify one row's missingness mechanism.

    A row blocked *only* by genuine nulls is sampling missingness
    (MCAR-ish: recovery never certifies it); any site/copy/flux atom
    makes it systematic (dischargeable once the federation heals).
    """
    for condition in conditions:
        for atom in condition.atoms():
            if not isinstance(atom, NullAttr):
                return SYSTEMATIC
    return SAMPLING


def rank_mechanisms(results) -> Tuple[int, int]:
    """(sampling, systematic) counts over a ResultSet's maybe rows."""
    sampling = systematic = 0
    for row in results.maybe:
        if mechanism(row.conditions) == SYSTEMATIC:
            systematic += 1
        else:
            sampling += 1
    return sampling, systematic
