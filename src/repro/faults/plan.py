"""Deterministic fault plans: who is down when, and how links degrade.

A :class:`FaultPlan` is a *declarative, seeded* description of the
failures one execution should experience:

* :class:`OutageWindow` — a site is down (crashed, partitioned away)
  during ``[start, start + duration)`` on the simulated clock and
  recovers at the window end;
* :class:`LinkFault` — a directed link carries a latency multiplier
  and/or a per-message loss probability (``"*"`` matches any endpoint).

The plan itself holds no randomness beyond its ``seed``: loss draws and
backoff jitter are derived from ``(plan seed, fault seed, link)`` by the
:class:`~repro.faults.injector.FaultInjector`, so the same plan + seed +
query always produces a byte-identical execution report.

Plans round-trip through JSON (``to_json``/``from_json``), parse from a
compact CLI spec (``from_spec``), and can be generated randomly for
chaos sweeps (``chaos``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import FaultPlanError


def require_finite(what: str, value: float, allow_inf: bool = False) -> None:
    """Raise :class:`FaultPlanError` unless *value* is finite (or, with
    *allow_inf*, ``+inf``): a NaN compares false with every bound, so
    range checks alone let it through."""
    if not (math.isfinite(value) or (allow_inf and value == math.inf)):
        raise FaultPlanError(f"{what} {value} is not finite")


@dataclass(frozen=True)
class OutageWindow:
    """One crash/recovery window of a site, in simulated seconds."""

    site: str
    start: float
    duration: float

    def __post_init__(self) -> None:
        if not self.site:
            raise FaultPlanError("outage window needs a site name")
        require_finite(f"outage of {self.site!r}: start", self.start)
        # An infinite duration is a site down for the rest of the run.
        require_finite(
            f"outage of {self.site!r}: duration", self.duration,
            allow_inf=True,
        )
        if self.start < 0:
            raise FaultPlanError(
                f"outage of {self.site!r} starts at negative time {self.start}"
            )
        if self.duration <= 0:
            raise FaultPlanError(
                f"outage of {self.site!r} has non-positive duration "
                f"{self.duration}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def covers(self, t: float) -> bool:
        return self.start <= t < self.end

    def to_dict(self) -> Dict[str, object]:
        return {"site": self.site, "start": self.start,
                "duration": self.duration}

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "OutageWindow":
        return cls(
            site=str(raw["site"]),
            start=float(raw["start"]),
            duration=float(raw["duration"]),
        )


@dataclass(frozen=True)
class LinkFault:
    """Degradation of the directed link ``src -> dst`` (``"*"`` = any)."""

    src: str = "*"
    dst: str = "*"
    latency_multiplier: float = 1.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        link = f"link {self.src}->{self.dst}"
        require_finite(f"{link}: latency multiplier", self.latency_multiplier)
        require_finite(f"{link}: loss probability", self.loss)
        if self.latency_multiplier < 1.0:
            raise FaultPlanError(
                f"link {self.src}->{self.dst}: latency multiplier "
                f"{self.latency_multiplier} < 1 would speed the link up"
            )
        if not 0.0 <= self.loss < 1.0:
            raise FaultPlanError(
                f"link {self.src}->{self.dst}: loss probability "
                f"{self.loss} outside [0, 1)"
            )

    def matches(self, src: str, dst: str) -> bool:
        return (self.src in ("*", src)) and (self.dst in ("*", dst))

    def to_dict(self) -> Dict[str, object]:
        return {
            "src": self.src,
            "dst": self.dst,
            "latency_multiplier": self.latency_multiplier,
            "loss": self.loss,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "LinkFault":
        return cls(
            src=str(raw.get("src", "*")),
            dst=str(raw.get("dst", "*")),
            latency_multiplier=float(raw.get("latency_multiplier", 1.0)),
            loss=float(raw.get("loss", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic failure scenario for one or more executions."""

    seed: int = 0
    outages: Tuple[OutageWindow, ...] = ()
    links: Tuple[LinkFault, ...] = ()

    @property
    def active(self) -> bool:
        """True when the plan injects anything at all (empty plan = off)."""
        return bool(self.outages) or any(
            l.latency_multiplier != 1.0 or l.loss > 0.0 for l in self.links
        )

    # --- site availability ------------------------------------------------

    def windows(self, site: str) -> Tuple[OutageWindow, ...]:
        return tuple(
            sorted((w for w in self.outages if w.site == site),
                   key=lambda w: w.start)
        )

    def is_down(self, site: str, t: float) -> bool:
        return any(w.covers(t) for w in self.outages if w.site == site)

    def next_up(self, site: str, t: float) -> float:
        """Earliest time >= *t* at which *site* is up (*t* if already up).

        Chained/overlapping windows are walked through: a site down in
        ``[0, 1)`` and ``[1, 2)`` is next up at ``2``.
        """
        up = t
        for window in self.windows(site):
            if window.covers(up):
                up = window.end
        return up

    def fault_windows(
        self, sites: Iterable[str]
    ) -> Tuple[Tuple[str, float, float], ...]:
        """(site, start, end) triples for *sites*, for trace export."""
        wanted = set(sites)
        return tuple(
            (w.site, w.start, w.end)
            for w in sorted(self.outages, key=lambda w: (w.site, w.start))
            if w.site in wanted
        )

    # --- link quality -----------------------------------------------------

    def link(self, src: str, dst: str) -> Tuple[float, float]:
        """(latency multiplier, loss probability) of the ``src->dst`` link.

        Several matching faults compose: multipliers multiply, losses
        combine as independent drop probabilities.
        """
        multiplier = 1.0
        survive = 1.0
        for fault in self.links:
            if fault.matches(src, dst):
                multiplier *= fault.latency_multiplier
                survive *= 1.0 - fault.loss
        return multiplier, 1.0 - survive

    def latency_multiplier(self, src: str, dst: str) -> float:
        return self.link(src, dst)[0]

    # --- construction -----------------------------------------------------

    @classmethod
    def single_site_loss(
        cls, site: str, seed: int = 0, start: float = 0.0,
        duration: float = 1e9,
    ) -> "FaultPlan":
        """The canonical chaos scenario: one site down (by default, for
        the whole execution)."""
        return cls(seed=seed,
                   outages=(OutageWindow(site, start, duration),))

    @classmethod
    def chaos(
        cls,
        sites: Sequence[str],
        rate: float,
        seed: int = 0,
        horizon: float = 2.0,
    ) -> "FaultPlan":
        """A random plan: each site suffers an outage with probability
        *rate*; window placement/length are drawn within *horizon*.

        Fully determined by ``(sites, rate, seed, horizon)`` — the chaos
        bench leans on this for run-to-run reproducibility.
        """
        if not 0.0 <= rate <= 1.0:
            raise FaultPlanError(f"fault rate {rate} outside [0, 1]")
        outages: List[OutageWindow] = []
        for site in sites:
            rng = random.Random(f"chaos:{seed}:{rate}:{site}")
            if rng.random() >= rate:
                continue
            start = rng.uniform(0.0, horizon * 0.5)
            duration = rng.uniform(horizon * 0.25, horizon)
            outages.append(OutageWindow(site, start, duration))
        return cls(seed=seed, outages=tuple(outages))

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse the compact CLI form.

        ``"DB2@0:1.5,DB3@0.2:0.5"`` — DB2 down from t=0 for 1.5 s and
        DB3 down from t=0.2 for 0.5 s.  Link faults use
        ``"link:SRC>DST:x<mult>:loss<p>"`` (either knob optional), e.g.
        ``"link:*>DB1:loss0.3"``.
        """
        outages: List[OutageWindow] = []
        links: List[LinkFault] = []
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if part.startswith("link:"):
                links.append(_parse_link(part))
                continue
            try:
                site, window = part.split("@", 1)
                start, duration = window.split(":", 1)
                outages.append(
                    OutageWindow(site.strip(), float(start), float(duration))
                )
            except ValueError as exc:
                raise FaultPlanError(
                    f"bad outage spec {part!r} (want SITE@START:DURATION)"
                ) from exc
        return cls(seed=seed, outages=tuple(outages), links=tuple(links))

    # --- (de)serialization ------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "outages": [w.to_dict() for w in self.outages],
            "links": [l.to_dict() for l in self.links],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "FaultPlan":
        return cls(
            seed=int(raw.get("seed", 0)),
            outages=tuple(
                OutageWindow.from_dict(w) for w in raw.get("outages", ())
            ),
            links=tuple(
                LinkFault.from_dict(l) for l in raw.get("links", ())
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise FaultPlanError("fault plan JSON must be an object")
        return cls.from_dict(raw)


def _parse_link(part: str) -> LinkFault:
    pieces = part.split(":")[1:]  # drop the "link" tag
    if not pieces:
        raise FaultPlanError(f"bad link spec {part!r}")
    try:
        src, dst = pieces[0].split(">", 1)
    except ValueError as exc:
        raise FaultPlanError(
            f"bad link spec {part!r} (want link:SRC>DST:...)"
        ) from exc
    multiplier = 1.0
    loss = 0.0
    for knob in pieces[1:]:
        try:
            if knob.startswith("x"):
                multiplier = float(knob[1:])
            elif knob.startswith("loss"):
                loss = float(knob[4:])
            else:
                raise ValueError(knob)
        except ValueError:
            raise FaultPlanError(
                f"bad link knob {knob!r} in {part!r}"
            ) from None
    return LinkFault(src.strip() or "*", dst.strip() or "*",
                     latency_multiplier=multiplier, loss=loss)


#: The do-nothing plan (``active`` is False; execution is unchanged).
EMPTY_PLAN = FaultPlan()
