"""The fault injector and the per-execution fault context.

:class:`FaultInjector` turns a declarative
:class:`~repro.faults.plan.FaultPlan` + :class:`~repro.faults.policy
.ExecutionPolicy` into concrete, deterministic *negotiations*: "does
contacting site B from site A succeed, after how many attempts, and how
long does the requester wait?".  Attempt times are computed analytically
(attempt *k* happens after the preceding timeouts and jittered backoffs),
so negotiation outcomes are known before the discrete-event simulation
runs; the taskgraph then schedules matching wait nodes so the waits are
also visible on the simulated clock.

Determinism: every random draw (message loss, backoff jitter) comes from
a generator seeded with ``(fault seed, plan seed, src, dst)``, so the
same plan + seed + query yields a byte-identical execution report, and
outcomes do not depend on the order in which links are negotiated.

:class:`ExecutionContext` wraps one execution's injector together with
the availability bookkeeping every strategy shares (sites contacted /
skipped / retried, messages lost, cumulative wait).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.options import ExecutionOptions
    from repro.resilience.health import SiteHealthRegistry
    from repro.sim.metrics import WorkCounters

from repro.core.results import COMPLETE, Availability
from repro.errors import ExecutionTimeout, UnavailableError
from repro.faults.plan import FaultPlan
from repro.faults.policy import DEGRADE, ExecutionPolicy

#: Attempt outcomes.
OK = "ok"
DOWN = "down"
LOST = "lost"
#: Synthetic outcome of a contact suppressed by an open circuit breaker
#: (no retry ladder is paid; the wait is zero by construction).
OPEN_CIRCUIT = "open-circuit"


@dataclass(frozen=True)
class Attempt:
    """One contact attempt: when it happened and how it went."""

    at: float
    outcome: str  # OK / DOWN / LOST
    wait_s: float = 0.0  # timeout + backoff charged when the attempt failed

    @property
    def failed(self) -> bool:
        return self.outcome != OK


@dataclass(frozen=True)
class Negotiation:
    """The deterministic outcome of contacting *dst* from *src*."""

    src: str
    dst: str
    ok: bool
    attempts: Tuple[Attempt, ...]

    @property
    def retries(self) -> int:
        """Attempts beyond the first (failed or eventually successful)."""
        return max(0, len(self.attempts) - 1)

    @functools.cached_property
    def failures(self) -> Tuple[Attempt, ...]:
        return tuple(a for a in self.attempts if a.failed)

    @property
    def wait_s(self) -> float:
        """Total requester wait spent on timeouts and backoffs."""
        return sum(a.wait_s for a in self.attempts)

    @property
    def reason(self) -> str:
        """Why the last failed attempt failed ('' when none failed)."""
        failed = self.failures
        return failed[-1].outcome if failed else ""


class FaultInjector:
    """Evaluates contact negotiations under one plan + policy + seed."""

    def __init__(
        self,
        plan: FaultPlan,
        policy: ExecutionPolicy = DEGRADE,
        seed: int = 0,
    ) -> None:
        self.plan = plan
        self.policy = policy
        self.seed = seed
        self._memo: Dict[Tuple[str, str], Negotiation] = {}

    def _rng(self, src: str, dst: str) -> random.Random:
        return random.Random(
            f"faults:{self.seed}:{self.plan.seed}:{src}->{dst}"
        )

    def negotiate(self, src: str, dst: str, at: float = 0.0) -> Negotiation:
        """Contact *dst* from *src*; memoized per link per execution.

        The memo models connection state: once a link is negotiated
        (up or given up on), later traffic on the same link reuses the
        outcome instead of re-paying the retry ladder.
        """
        key = (src, dst)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        policy = self.policy
        rng = self._rng(src, dst)
        _multiplier, loss = self.plan.link(src, dst)
        attempts: List[Attempt] = []
        t = at
        ok = False
        for attempt_no in range(policy.max_retries + 1):
            down = self.plan.is_down(dst, t)
            # Draw in a fixed order so outcomes stay reproducible even
            # when earlier attempts short-circuit.
            u_loss = rng.random()
            u_jitter = rng.random()
            lost = (not down) and loss > 0.0 and u_loss < loss
            if not down and not lost:
                attempts.append(Attempt(at=t, outcome=OK))
                ok = True
                break
            wait = policy.timeout_s
            if attempt_no < policy.max_retries:
                wait += policy.backoff_s(attempt_no, u_jitter)
            attempts.append(
                Attempt(at=t, outcome=DOWN if down else LOST, wait_s=wait)
            )
            t += wait
        negotiation = Negotiation(
            src=src, dst=dst, ok=ok, attempts=tuple(attempts)
        )
        self._memo[key] = negotiation
        return negotiation


#: What every contact of a fault-free execution negotiates to.  Shared:
#: nothing about a clean first attempt depends on the link.
_CLEAN = Negotiation(
    src="", dst="", ok=True, attempts=(Attempt(at=0.0, outcome=OK),)
)


class ExecutionContext:
    """The carrier of one execution: its options and its fault state.

    Every strategy run gets exactly one context, built from the frozen
    :class:`~repro.core.options.ExecutionOptions` it exposes as
    :attr:`options`.  Strategies call :meth:`contact` before talking to
    a site; the context accumulates what
    :class:`~repro.core.results.Availability` reports and enforces the
    policy's fail-fast and deadline semantics.

    When the options inject no faults the context is *inactive*: it
    allocates no injector and no breakers, every contact negotiates to
    one shared clean :class:`Negotiation`, nothing is recorded and
    :meth:`availability` is the default ``Availability()`` — so a
    fault-free execution is the faulted code path with a context that
    injects nothing.
    """

    def __init__(self, options: "ExecutionOptions") -> None:
        self.options = options
        #: Whether this execution injects faults at all.
        self.active = options.faults_active
        self.plan = options.fault_plan
        self.policy = options.policy
        self.injector = (
            FaultInjector(self.plan, self.policy, seed=options.fault_seed)
            if self.active else None
        )
        self.contacted: List[str] = []
        self.skipped: List[str] = []
        self.retried: Dict[str, int] = {}
        self.checks_skipped = 0
        self.messages_lost = 0
        self.wait_s = 0.0
        #: Totals for the work counters: every re-attempt and every
        #: timed-out attempt across all fresh negotiations.
        self.retries = 0
        self.timeouts = 0
        #: Links whose wait ladder was already scheduled as delay nodes
        #: (strategies consult this so a link's waits appear only once).
        self.scheduled_links: set = set()
        #: Replica failover: reroute checks over the global-site relay
        #: and demote rows only when every isomeric copy is unreachable.
        #: There is nothing to fail over from without faults.
        self.failover = self.active and options.failover
        #: Per-site breakers; None when failover is disabled, keeping
        #: the original contact path byte-identical.
        self.health: Optional["SiteHealthRegistry"] = None
        if self.failover:
            from repro.resilience.health import SiteHealthRegistry

            self.health = SiteHealthRegistry(seed=options.fault_seed)
        #: Check requests recovered by rerouting through the relay.
        self.checks_failed_over = 0
        #: Hedge races fired / won by the relay route.
        self.hedges = 0
        self.hedges_won = 0
        #: Queried sites whose whole block dropped (no local results).
        self.queried_sites_down: List[str] = []
        #: Binding-completion walks left unresolved by unreachable sites.
        self.fetches_unresolved = 0
        #: Whether the executing strategy maintains the recovery signals
        #: above (localized strategies with failover do; CA does not).
        self.recovery_tracked = False

    def contact(self, src: str, dst: str) -> Negotiation:
        """Negotiate the ``src -> dst`` link, with policy enforcement.

        An inactive context injects nothing: every link negotiates to
        the shared clean outcome and nothing is recorded.  With a health
        registry attached (failover mode), a fresh negotiation to an
        open-circuit site is suppressed: a synthetic zero-wait
        ``open-circuit`` negotiation is memoized instead of paying the
        retry ladder, and half-open probes go through the normal
        injector path.

        Raises:
            UnavailableError: the link is dead and the policy fails fast.
            ExecutionTimeout: the cumulative wait blew the deadline.
        """
        if self.injector is None:
            return _CLEAN
        fresh = (src, dst) not in self.injector._memo
        if fresh and self.health is not None and not self.health.allow(dst):
            negotiation = Negotiation(
                src=src,
                dst=dst,
                ok=False,
                attempts=(Attempt(at=0.0, outcome=OPEN_CIRCUIT),),
            )
            self.injector._memo[(src, dst)] = negotiation
            if dst not in self.skipped:
                self.skipped.append(dst)
        else:
            negotiation = self.injector.negotiate(src, dst)
            if fresh:
                self.wait_s += negotiation.wait_s
                self.retries += negotiation.retries
                self.timeouts += len(negotiation.failures)
                if negotiation.retries and negotiation.ok:
                    self.retried[dst] = (
                        self.retried.get(dst, 0) + negotiation.retries
                    )
                self.messages_lost += sum(
                    1 for a in negotiation.attempts if a.outcome == LOST
                )
                if negotiation.ok:
                    if dst not in self.contacted:
                        self.contacted.append(dst)
                elif dst not in self.skipped:
                    self.skipped.append(dst)
                if self.health is not None:
                    self.health.record(
                        dst, negotiation.ok, latency_s=negotiation.wait_s
                    )
        deadline = self.policy.deadline_s
        if deadline is not None and self.wait_s > deadline:
            raise ExecutionTimeout(self.wait_s, deadline)
        if not negotiation.ok and self.policy.fail_fast:
            raise UnavailableError(
                dst,
                attempts=len(negotiation.attempts),
                reason=negotiation.reason or DOWN,
            )
        return negotiation

    def note_skipped_check(self, count: int = 1) -> None:
        self.checks_skipped += count

    def note_queried_site_down(self, site: str) -> None:
        """A queried site's whole block dropped — unrecoverable loss."""
        if site not in self.queried_sites_down:
            self.queried_sites_down.append(site)

    def reachable(self, src: str, dst: str) -> bool:
        """Whether the ``src -> dst`` link negotiates successfully
        (policy enforcement included — fail-fast links raise instead)."""
        return self.contact(src, dst).ok

    def hedge_delay(self, src: str, dst: str) -> Optional[float]:
        """The effective (seeded, jittered) hedge delay for one link.

        None when the policy does not hedge.  The jitter draw depends
        only on (fault seed, plan seed, src, dst), so hedge decisions
        are byte-deterministic and order-independent.
        """
        base = self.policy.hedge_delay_s
        if base is None:
            return None
        u = random.Random(
            f"hedge:{self.options.fault_seed}:{self.plan.seed}:{src}->{dst}"
        ).random()
        return base * (1.0 + self.policy.jitter * u)

    def charge(self, work: "WorkCounters") -> None:
        """Fold this execution's fault totals into its work counters."""
        work.retries = self.retries
        work.timeouts = self.timeouts
        work.messages_lost = self.messages_lost
        work.checks_failed_over = self.checks_failed_over
        work.hedges = self.hedges

    def fault_windows(
        self, sites: Iterable[str]
    ) -> Tuple[Tuple[str, float, float], ...]:
        """The injected outage windows at *sites*, for trace export."""
        return self.plan.fault_windows(sites) if self.active else ()

    @property
    def complete(self) -> bool:
        return not self.skipped and self.checks_skipped == 0

    @property
    def fully_recovered(self) -> bool:
        """Whether failover rerouting neutralized every injected fault.

        True only when the executing strategy tracks recovery and no
        unrecoverable degradation remains: every queried site answered,
        every skipped check pair was settled by a live isomeric copy,
        and every binding-completion walk resolved.  A fully recovered
        answer is byte-identical to the fault-free baseline.
        """
        return (
            self.recovery_tracked
            and not self.queried_sites_down
            and self.checks_skipped == 0
            and self.fetches_unresolved == 0
        )

    def availability(self) -> Availability:
        """Snapshot the bookkeeping as a result annotation."""
        if not self.active:
            return COMPLETE
        return Availability(
            complete=self.complete,
            sites_contacted=tuple(sorted(self.contacted)),
            sites_skipped=tuple(sorted(self.skipped)),
            retries=tuple(sorted(self.retried.items())),
            checks_skipped=self.checks_skipped,
            messages_lost=self.messages_lost,
            fault_wait_s=self.wait_s,
            checks_failed_over=self.checks_failed_over,
            hedges=self.hedges,
            hedges_won=self.hedges_won,
            fully_recovered=self.fully_recovered,
            queried_sites_down=tuple(sorted(self.queried_sites_down)),
            breaker=(
                self.health.snapshot() if self.health is not None else ()
            ),
            contacts_suppressed=(
                self.health.suppressed_total
                if self.health is not None else 0
            ),
        )
