"""Trace-fed planner feedback: observed stalls and queue delays.

AUTO's analytic model assumes the static Table 1 cost constants and a
fault-free network.  Real executions record what actually happened —
negotiation retry ladders (:class:`~repro.faults.injector.Negotiation`
waits) and device queueing (span ``queue_delay``).  A :class:`PlannerFeedback`
store folds those observations across a federation's executions so the
``feedback`` / ``full`` planner modes can replace the static
assumptions with measured per-site conditions:

* **entry stalls** — EWMA of the fault wait paid negotiating
  ``global -> site`` links.  Every strategy pays these once per queried
  site, so they shift all predictions consistently (and keep relative
  ranks honest when only some sites stall).
* **peer stalls** — EWMA of the fault wait on ``site -> site`` links.
  Only the localized strategies pay these (assistant-check exchanges);
  a storm on peer links is exactly the signal that should flip AUTO
  toward CA, which never touches them.
* **site slowdown** — ratio of span wall time to busy time per site
  (device queueing under concurrent traffic), applied as a work
  multiplier.
* **observed-unreachable sites** — entry links that have only ever
  failed, extending the plan-derived CA penalty to failures the static
  plan peek cannot see (e.g. partial loss below the 0.99 threshold).

Feedback never touches answers: it only reorders AUTO's prediction
ranking.  The difftest oracle's ``planner`` invariant proves every mode
answer-identical to ``static``.

All folding seeds each EWMA with its first sample, and zero-wait
synthetic negotiations (the refused contacts of a departed site) are
counted as failures but never dilute the stall EWMAs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Default EWMA smoothing factor for observed stalls/slowdowns.
FEEDBACK_ALPHA = 0.3

#: Cap on the slowdown multiplier handed to the analytic model.  The
#: raw wall/busy EWMA is kept un-capped in the store (it is a real
#: congestion measurement); the cap only bounds how hard one congested
#: execution can skew predictions.
SLOWDOWN_CAP = 8.0


@dataclass
class SiteObservation:
    """Accumulated observations about one destination site."""

    site: str
    #: EWMA of fault waits negotiating global -> site (seconds).
    entry_stall_ewma_s: float = 0.0
    entry_stall_samples: int = 0
    entry_successes: int = 0
    entry_failures: int = 0
    #: EWMA of fault waits negotiating peer -> site (seconds).
    peer_stall_ewma_s: float = 0.0
    peer_stall_samples: int = 0
    peer_successes: int = 0
    peer_failures: int = 0
    #: EWMA of span wall-time / busy-time at this site (>= 1.0).
    slowdown_ewma: float = 1.0
    slowdown_samples: int = 0

    def _fold(self, current: float, samples: int, value: float, alpha: float):
        if samples == 0:
            return value
        return current + alpha * (value - current)


class PlannerFeedback:
    """Cross-execution feedback store attached to a federation."""

    def __init__(self, alpha: float = FEEDBACK_ALPHA) -> None:
        self.alpha = alpha
        self._sites: Dict[str, SiteObservation] = {}
        #: Executions folded so far (0 means "no data: behave static").
        self.executions_observed = 0

    def site(self, name: str) -> SiteObservation:
        record = self._sites.get(name)
        if record is None:
            record = self._sites[name] = SiteObservation(site=name)
        return record

    # --- folding ------------------------------------------------------------

    def observe_execution(self, ctx, metrics, global_site: str) -> None:
        """Fold one finished execution's fault context + metrics.

        Called by the engine after every faulted execution (the fault
        context is where negotiations live);
        cheap — a handful of dict folds per contacted site.
        """
        self.executions_observed += 1
        for (src, dst), negotiation in sorted(ctx.injector._memo.items()):
            record = self.site(dst)
            entry = src == global_site
            if entry:
                if negotiation.ok:
                    record.entry_successes += 1
                else:
                    record.entry_failures += 1
            else:
                if negotiation.ok:
                    record.peer_successes += 1
                else:
                    record.peer_failures += 1
            wait = negotiation.wait_s
            if not negotiation.ok and wait <= 0.0:
                # A departed site's synthetic refusal: a real failure
                # signal, but folding its zero wait would dilute the
                # stall EWMA.
                continue
            if entry:
                record.entry_stall_ewma_s = record._fold(
                    record.entry_stall_ewma_s,
                    record.entry_stall_samples,
                    wait,
                    self.alpha,
                )
                record.entry_stall_samples += 1
            else:
                record.peer_stall_ewma_s = record._fold(
                    record.peer_stall_ewma_s,
                    record.peer_stall_samples,
                    wait,
                    self.alpha,
                )
                record.peer_stall_samples += 1
        if metrics is not None:
            self._fold_spans(metrics)

    def _fold_spans(self, metrics) -> None:
        wall: Dict[str, float] = {}
        busy: Dict[str, float] = {}
        for span in getattr(metrics, "spans", ()):
            duration = span.duration
            if duration <= 0.0:
                continue
            wall[span.site] = wall.get(span.site, 0.0) + duration
            busy[span.site] = busy.get(span.site, 0.0) + max(
                duration - span.queue_delay, 0.0
            )
        for site in sorted(wall):
            if busy.get(site, 0.0) <= 0.0:
                continue
            record = self.site(site)
            record.slowdown_ewma = record._fold(
                record.slowdown_ewma,
                record.slowdown_samples,
                wall[site] / busy[site],
                self.alpha,
            )
            record.slowdown_samples += 1

    # --- planner queries ----------------------------------------------------

    @property
    def has_data(self) -> bool:
        return self.executions_observed > 0

    def entry_stalls(self) -> Dict[str, float]:
        """Observed global->site stall seconds per site (EWMA)."""
        return {
            name: record.entry_stall_ewma_s
            for name, record in sorted(self._sites.items())
            if record.entry_stall_samples and record.entry_stall_ewma_s > 0.0
        }

    def peer_stalls(self) -> Dict[str, float]:
        """Observed peer->site stall seconds per site (EWMA)."""
        return {
            name: record.peer_stall_ewma_s
            for name, record in sorted(self._sites.items())
            if record.peer_stall_samples and record.peer_stall_ewma_s > 0.0
        }

    def site_multipliers(self) -> Dict[str, float]:
        """Observed per-site work slowdown (span wall/busy EWMA).

        Capped at :data:`SLOWDOWN_CAP` — see its docstring.
        """
        return {
            name: min(record.slowdown_ewma, SLOWDOWN_CAP)
            for name, record in sorted(self._sites.items())
            if record.slowdown_samples and record.slowdown_ewma > 1.0
        }

    def unreliable_sites(self) -> Tuple[str, ...]:
        """Sites whose entry link has only ever failed.

        These extend AUTO's plan-derived CA penalty: a centralized
        collection stalls on (and then loses) every such site's export,
        while the localized strategies degrade it to a partial answer.
        """
        return tuple(
            name
            for name, record in sorted(self._sites.items())
            if record.entry_failures and not record.entry_successes
        )

    def describe(self) -> str:
        """One deterministic line per observed site (tracing/debug)."""
        parts: List[str] = []
        for name, r in sorted(self._sites.items()):
            parts.append(
                f"{name}: entry={r.entry_stall_ewma_s:.6f}s"
                f"/{r.entry_stall_samples}"
                f" peer={r.peer_stall_ewma_s:.6f}s/{r.peer_stall_samples}"
                f" slowdown={r.slowdown_ewma:.4f}/{r.slowdown_samples}"
            )
        return "; ".join(parts) if parts else "no observations"
