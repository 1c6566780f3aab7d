"""The strategy oracle: every invariant one fuzz case must satisfy.

The oracle owns no opinion about *what* the right answer is — CA's
fault-free answer anchors every comparison, exactly as the paper's
Section 4 treats CA as the reference the localized strategies must
reproduce.  What it checks:

``replicas``
    Before anything runs, the case's federation passes
    :func:`repro.integration.validate.check_federation` with no finding:
    isomeric copies never disagree on a single-valued primitive
    attribute (EXPERIMENTS.md deviation 4, the premise of every CA vs
    BL/PL comparison below), every object conforms to its class, every
    reference resolves and the GOid catalog covers every stored object.
``equivalence``
    Every registered strategy's fault-free answer strictly equals CA's
    (:func:`repro.core.results.same_answers`: kinds, projected bindings,
    unsolved-predicate sets).
``certify``
    Every ``certify`` call any run below makes — each localized
    execution's ``(local_results, verdicts)``, and each repair's — also
    goes through :func:`repro.difftest.reference.certify_reference`,
    the per-entity Certification Rule the pattern-batched kernel
    replaced.  The two must give an equal ``ResultSet`` (binding order
    included), equal ``conditions`` and equal ``CertificationStats``.
``local-eval``
    Every ``execute_local`` / ``collect_unsolved`` / ``check_assistants``
    call any run below makes at any site is also answered by the
    per-object evaluator in :mod:`repro.difftest.reference`.  The
    columnar kernel must give an equal result — rows field by field,
    unsolved bookkeeping, index probe and every meter — or raise the
    same exception type and message.
``global-eval``
    Every CA run below — fault, evolution and repair runs included —
    evaluates its materialized extent twice: on the columnar kernels
    (``centralized.evaluate_global``) and object by object
    (:func:`repro.difftest.reference.evaluate_global_extent`, the body
    production ran before).  Answers in GOid order, per-row
    ``conditions``, both meter totals and any exception must be equal.
    Every extent CA evaluates, reused or not, must also equal a fresh
    merge of the same exports, ``IntegrationStats`` and catalog probe
    counts included.  This invariant matters more than its two
    siblings: CA is the baseline every other comparison is made against.
``schedule``
    Every activity graph any run below schedules — fault, failover,
    repair and evolution runs included — is scheduled twice: by
    ``FederationSim.run``'s flat loop and, on a twin of the graph, by
    :func:`repro.difftest.reference.schedule_reference` on the generic
    event kernel (the body ``run`` had before).  Every node's ``ready``
    / ``start`` / ``finish``, the response time, every device's busy
    and wait time and any exception must be equal — bit for bit, ties
    at zero-cost barriers included; every simulated time this
    repository reports comes out of that loop.
``planner``
    For the :attr:`StrategyOracle.PLANNER_MATRIX` pairs, running with
    an adaptive planner mode (constraint pruning, trace feedback, or
    both) yields an answer strictly equal to ``static``'s — the
    soundness contract of ``repro.planner``.
``determinism``
    Rebuilding the case from its recipe and re-executing yields a
    byte-identical answer export.
``fault-equivalence`` / ``fault-soundness``
    Under the case's fault plan, executions that stayed complete must
    strictly equal the fault-free answer; degraded executions may only
    certify a subset of it (degradation never adds certainty).
``failover-*``
    Replica failover must be sound: a localized run under the plan
    certifies no entity the fault-free baseline does not
    (``failover-soundness``), and a run reporting ``fully_recovered``
    must equal the fault-free answer byte for byte
    (``failover-recovery``).
``repair-soundness`` / ``repair-monotonic`` (opt-in: ``recertify=True``)
    Every degraded fault execution, handed to ``engine.recertify``
    against the healed federation, must repair to that strategy's own
    fault-free answer byte for byte — through condition discharge
    alone, never a re-execution — and promotion must be monotone (no
    certified entity is demoted by repair).
``repair-chained`` (with them)
    The same under partial recovery: the degraded report is first
    repaired while a strict half of the case's fault plan (its outages
    only; its link faults only) is still active — so the resumed run
    routes, relays and skips under a live plan — and then fully.  (A
    half with nothing in it is the healed federation; that chain checks
    that repairing a repaired report changes nothing.)  The final
    answer must equal the fault-free one and no step may lose a certain
    entity.
``monotonicity``
    After registering one extra consistent assistant copy, no certain
    result is demoted, no previously-eliminated entity is certified,
    and the strategies still strictly agree.
``evolution-*``
    On cases with churn (``evolve`` kinds), each event's propagation
    window is stepped open and closed on a fresh federation.  A query
    executed *during* the window must satisfy the flux consistency
    contract — equal to the pre-epoch serial baseline, equal to the
    post-epoch one, or a certified subset of both (``evolution-flux``)
    — and carry the window's label in ``Availability.epochs_straddled``
    (``evolution-straddle``).  After every window closes, the
    strategies must still strictly agree (``evolution-agreement``).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.engine import GlobalQueryEngine
from repro.core.results import (
    ResultSet,
    _answer_key,
    answer_digest,
    certified_subset,
    same_answers,
)
from repro.core.strategies import DEFAULT_REGISTRY
from repro.core.system import DistributedSystem
from repro.difftest.cases import FuzzCase
from repro.difftest.reference import (
    shadowed_certify,
    shadowed_global_evaluation,
    shadowed_local_evaluation,
    shadowed_schedule,
)
from repro.integration.validate import check_federation
from repro.objectdb.ids import GOid
from repro.objectdb.values import is_null

#: Policy used for the fault suite (degrade to partial answers).
FAULT_POLICY = "degrade"


@dataclass(frozen=True)
class Violation:
    """One broken invariant on one case."""

    invariant: str
    label: str
    detail: str
    case: FuzzCase

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.label}: {self.detail}"


def case_digest(case: FuzzCase) -> str:
    """Content hash of a case's reference (CA) answer."""
    built = case.build()
    session = GlobalQueryEngine(built.system).session(name="difftest")
    return answer_digest(session.execute(built.query, "CA").results)


def _first_difference(left: ResultSet, right: ResultSet) -> str:
    """A one-line description of why two answers are not equal."""
    if left.targets != right.targets:
        return (
            f"target lists differ: {[str(t) for t in left.targets]} vs "
            f"{[str(t) for t in right.targets]}"
        )
    lk, rk = _answer_key(left), _answer_key(right)
    only_left = sorted(set(lk) - set(rk), key=lambda g: g.value)
    only_right = sorted(set(rk) - set(lk), key=lambda g: g.value)
    if only_left:
        return f"{len(only_left)} entities only on the left, e.g. {only_left[0]}"
    if only_right:
        return f"{len(only_right)} entities only on the right, e.g. {only_right[0]}"
    for goid in sorted(lk, key=lambda g: g.value):
        if lk[goid] != rk[goid]:
            return f"entity {goid} differs: {lk[goid]} vs {rk[goid]}"
    return "answers differ"


class StrategyOracle:
    """Runs every registered strategy on a case and checks invariants."""

    def __init__(
        self,
        registry=DEFAULT_REGISTRY,
        planner: str = "static",
        recertify: bool = False,
    ) -> None:
        self.registry = registry
        #: Base planner mode for every invariant run; the fuzz CLI's
        #: ``--planner`` flag pins another than ``static``, so the whole
        #: invariant suite also runs with pruning/feedback live.  The
        #: ``planner`` invariant below always compares ``static`` against
        #: the adaptive modes regardless of this base.
        self.planner = planner
        #: With ``recertify``, every degraded fault execution is handed
        #: to ``engine.recertify`` against the healed federation and the
        #: repaired answer must be byte-identical to that strategy's own
        #: fault-free baseline (``repair-soundness``), with monotone
        #: promotion (``repair-monotonic``).
        self.recertify = recertify

    @property
    def strategy_names(self) -> List[str]:
        return list(self.registry.names())

    # --- entry point -------------------------------------------------------

    def check(self, case: FuzzCase) -> List[Violation]:
        """All invariant violations of *case* (empty list = clean)."""
        certify: List[str] = []
        local_eval: List[str] = []
        global_eval: List[str] = []
        schedule: List[str] = []
        with shadowed_certify(certify), shadowed_local_evaluation(
            local_eval
        ), shadowed_global_evaluation(global_eval), shadowed_schedule(
            schedule
        ):
            violations = self._check_strategies(case)
        for invariant, differences in (
            ("certify", certify),
            ("local-eval", local_eval),
            ("global-eval", global_eval),
            ("schedule", schedule),
        ):
            violations.extend(
                Violation(invariant, case.label, difference, case)
                for difference in differences
            )
        return violations

    def _check_strategies(self, case: FuzzCase) -> List[Violation]:
        """Every invariant but the four that watch these runs."""
        built = case.build()
        violations = [
            Violation("replicas", case.label, str(finding), case)
            for finding in check_federation(built.system).findings
        ]
        engine = GlobalQueryEngine(built.system)
        engine.ensure_signatures()
        # One session per case: every oracle execution flows through it
        # with explicit ExecutionOptions.
        session = engine.session(name=f"difftest:{case.label}")
        session.options = session.options.with_(planner=self.planner)

        # Fault-free answers, one per strategy; CA anchors comparisons.
        answers: Dict[str, ResultSet] = {}
        for name in self.strategy_names:
            answers[name] = session.execute(built.query, name).results
        baseline = answers["CA"]
        for name, results in answers.items():
            if name != "CA" and not same_answers(baseline, results):
                violations.append(Violation(
                    "equivalence", case.label,
                    f"CA vs {name}: {_first_difference(baseline, results)}",
                    case,
                ))

        violations.extend(self._check_planner(case, session, built, answers))
        violations.extend(self._check_determinism(case, baseline))
        if built.fault_plan is not None:
            violations.extend(
                self._check_faults(case, session, built, baseline)
            )
            violations.extend(
                self._check_failover(case, session, built, baseline)
            )
            if self.recertify:
                violations.extend(
                    self._check_repair(case, session, built, answers)
                )
        if case.mutate:
            violations.extend(
                self._check_monotonicity(case, session, built, answers)
            )
        if built.evolution is not None:
            # Last: the suite mutates its own fresh federation copy.
            violations.extend(self._check_evolution(case))
        return violations

    # --- invariants --------------------------------------------------------

    #: (strategy, planner mode) pairs exercised by the planner invariant.
    #: BL and PL cover both localized phase orders under constraint
    #: pruning; AUTO covers the trace-fed pick; ``full`` composes both.
    #: CA is absent (it neither prunes nor predicts: nothing for a
    #: planner mode to change), and the signature variants share BL/PL's
    #: pruning seam, so the matrix stays at six extra executions a case.
    PLANNER_MATRIX = (
        ("BL", "constraints"),
        ("BL", "full"),
        ("PL", "constraints"),
        ("PL", "full"),
        ("AUTO", "feedback"),
        ("AUTO", "full"),
    )

    def _check_planner(self, case, session, built, answers) -> List[Violation]:
        """Every planner mode must be answer-identical to ``static``.

        The soundness contract of the constraint catalog (a prune fires
        only when the static path provably produces the same answer) and
        of trace feedback (it only reorders AUTO's prediction ranking,
        never touches evaluation).  Each matrix entry re-runs the
        strategy with the mode pinned and compares strictly against the
        strategy's base (static) answer.
        """
        violations = []
        static_options = session.options.with_(planner="static")
        for name, mode in self.PLANNER_MATRIX:
            if name not in self.strategy_names:
                continue
            base = answers[name]
            if session.options.planner != "static":
                base = session.execute(
                    built.query, name, options=static_options
                ).results
            adaptive = session.execute(
                built.query, name,
                options=session.options.with_(planner=mode),
            ).results
            if not same_answers(base, adaptive):
                violations.append(Violation(
                    "planner", case.label,
                    f"{name}: planner=static vs planner={mode}: "
                    f"{_first_difference(base, adaptive)}",
                    case,
                ))
        return violations

    def _check_determinism(self, case, baseline) -> List[Violation]:
        """The recipe must rebuild to a byte-identical answer."""
        rebuilt = case.build()
        session = GlobalQueryEngine(rebuilt.system).session(name="rebuild")
        again = session.execute(rebuilt.query, "CA").results
        left, right = answer_digest(baseline), answer_digest(again)
        if left != right:
            return [Violation(
                "determinism", case.label,
                f"rebuild changed the answer: {left} vs {right}",
                case,
            )]
        return []

    def _check_faults(self, case, session, built, baseline) -> List[Violation]:
        """Complete runs equal the baseline; degraded ones under-certify."""
        violations = []
        fault_options = session.options.with_(
            fault_plan=built.fault_plan,
            policy=FAULT_POLICY,
            fault_seed=case.fault_seed,
        )
        for name in self.strategy_names:
            report = session.execute(
                built.query, name, options=fault_options
            )
            results = report.results
            if report.availability.complete:
                if not same_answers(baseline, results):
                    violations.append(Violation(
                        "fault-equivalence", case.label,
                        f"{name} stayed complete under the plan but "
                        f"changed its answer: "
                        f"{_first_difference(baseline, results)}",
                        case,
                    ))
            elif not certified_subset(results, baseline):
                extra = sorted(
                    {r.goid for r in results.certain}
                    - {r.goid for r in baseline.certain},
                    key=lambda g: g.value,
                )
                violations.append(Violation(
                    "fault-soundness", case.label,
                    f"{name} (degraded) certified {len(extra)} entities "
                    f"the complete answer does not, e.g. {extra[0]}",
                    case,
                ))
        return violations

    #: Strategies exercised by the failover invariants.  Failover lives
    #: in the shared localized machinery; BL and PL cover both phase
    #: orders without re-running the (expensive) signature variants.
    FAILOVER_STRATEGIES = ("BL", "PL")

    def _check_failover(self, case, session, built, baseline) -> List[Violation]:
        """Failover is sound and recovery-exact."""
        violations = []
        fault_options = session.options.with_(
            fault_plan=built.fault_plan,
            policy=FAULT_POLICY,
            fault_seed=case.fault_seed,
        )
        for name in self.FAILOVER_STRATEGIES:
            if name not in self.strategy_names:
                continue
            on = session.execute(built.query, name, options=fault_options)
            if not certified_subset(on.results, baseline):
                extra = sorted(
                    {r.goid for r in on.results.certain}
                    - {r.goid for r in baseline.certain},
                    key=lambda g: g.value,
                )
                violations.append(Violation(
                    "failover-soundness", case.label,
                    f"{name} under the plan certified {len(extra)} "
                    f"entities the fault-free answer does not, "
                    f"e.g. {extra[0]}",
                    case,
                ))
            if on.availability.fully_recovered and not same_answers(
                baseline, on.results
            ):
                violations.append(Violation(
                    "failover-recovery", case.label,
                    f"{name} claimed full recovery but differs from the "
                    f"fault-free answer: "
                    f"{_first_difference(baseline, on.results)}",
                    case,
                ))
        return violations

    #: Strategies exercised by the repair invariants — the global path
    #: (CA: re-export + re-materialize), both localized phase orders
    #: (BL/PL: healed-site re-query, skipped-check re-dispatch, chase
    #: re-seed) and their signature variants, which a repair resumes by
    #: name like the others.
    REPAIR_STRATEGIES = ("CA", "BL", "PL", "BL-S", "PL-S")

    def _check_repair(self, case, session, built, answers) -> List[Violation]:
        """Degraded answers repair to the fault-free baseline.

        Each strategy runs under the case's fault plan; every execution
        that degraded hands its report to ``recertify`` against the
        *healed* federation (no fault plan — every site answers).
        Repair must reconstruct the strategy's own fault-free answer
        byte for byte through condition discharge alone — no full
        re-execution happens — and promotion must be monotone: no
        entity the degraded run certified loses its certainty.  Then the
        same report is repaired in two steps, the first under each
        strict half of the plan (``repair-chained``).
        """
        violations = []
        plan = built.fault_plan
        fault_options = session.options.with_(
            fault_plan=plan,
            policy=FAULT_POLICY,
            fault_seed=case.fault_seed,
        )
        halves = [
            half for half in (
                dataclasses.replace(plan, links=()),
                dataclasses.replace(plan, outages=()),
            )
            if half != plan
        ]
        for name in self.REPAIR_STRATEGIES:
            if name not in self.strategy_names:
                continue
            report = session.execute(
                built.query, name, options=fault_options
            )
            if report.availability.complete:
                continue
            violations.extend(self._repair_in_steps(
                case, session, name, report, answers[name], [None],
                "repair-soundness", "repair-monotonic",
            ))
            for half in halves:
                violations.extend(self._repair_in_steps(
                    case, session, name, report, answers[name],
                    [fault_options.with_(fault_plan=half), None],
                    "repair-chained", "repair-chained",
                ))
        return violations

    def _repair_in_steps(
        self, case, session, name, report, baseline, steps, soundness,
        monotonic,
    ) -> List[Violation]:
        """Repair *report* under each options value of *steps* in turn
        (``None`` = healed); the last must land on *baseline*."""
        violations, demotions = [], []
        for options in steps:
            try:
                repaired = session.recertify(report, options=options)
            except Exception as exc:  # noqa: BLE001 - any raise is a finding
                violations.append(Violation(
                    soundness, case.label,
                    f"{name}: recertify raised "
                    f"{type(exc).__name__}: {exc}",
                    case,
                ))
                return violations
            lost = sorted(
                {r.goid for r in report.results.certain}
                - {r.goid for r in repaired.results.certain},
                key=lambda g: g.value,
            )
            if lost:
                demotions.append(Violation(
                    monotonic, case.label,
                    f"{name}: repair demoted {len(lost)} certain "
                    f"result(s), e.g. {lost[0]}",
                    case,
                ))
            report = repaired
        left = answer_digest(baseline)
        right = answer_digest(report.results)
        if left != right:
            violations.append(Violation(
                soundness, case.label,
                f"{name}: repaired answer differs from the "
                f"fault-free baseline ({left} vs {right}): "
                f"{_first_difference(baseline, report.results)}",
                case,
            ))
        return violations + demotions

    def _check_monotonicity(self, case, session, built, answers) -> List[Violation]:
        """One extra consistent copy must only ever *add* certainty."""
        baseline = answers["CA"]
        goid = _register_assistant_copy(
            built.system, built.query.range_class, baseline,
            random.Random(f"difftest:mutate:{case.seed}"),
        )
        if goid is None:
            return []  # every entity already has copies everywhere
        after: Dict[str, ResultSet] = {}
        for name in self.strategy_names:
            after[name] = session.execute(built.query, name).results
        violations = []
        for name, results in after.items():
            if name != "CA" and not same_answers(after["CA"], results):
                violations.append(Violation(
                    "monotonicity", case.label,
                    f"after adding a copy of {goid}, CA vs {name}: "
                    f"{_first_difference(after['CA'], results)}",
                    case,
                ))
        certain_before = {r.goid for r in baseline.certain}
        maybe_before = {r.goid for r in baseline.maybe}
        certain_after = {r.goid for r in after["CA"].certain}
        demoted = sorted(
            certain_before - certain_after, key=lambda g: g.value
        )
        if demoted:
            violations.append(Violation(
                "monotonicity", case.label,
                f"adding a copy of {goid} demoted {len(demoted)} certain "
                f"result(s), e.g. {demoted[0]}",
                case,
            ))
        resurrected = sorted(
            certain_after - (certain_before | maybe_before),
            key=lambda g: g.value,
        )
        if resurrected:
            violations.append(Violation(
                "monotonicity", case.label,
                f"adding a copy of {goid} certified {len(resurrected)} "
                f"previously-eliminated entit(ies), e.g. {resurrected[0]}",
                case,
            ))
        return violations

    #: Strategies exercised by the evolution invariants.  The flux
    #: contract lives in the engine, shared by every strategy; CA, BL
    #: and PL cover the global and both localized phase orders.
    EVOLUTION_STRATEGIES = ("CA", "BL", "PL")

    def _check_evolution(self, case) -> List[Violation]:
        """Every propagation window honors the flux consistency contract.

        Runs on a *fresh* build (the controller mutates the federation
        in place).  For each event: snapshot pre-epoch answers, open the
        window, execute in flux, close it, snapshot post-epoch answers.
        The flux answer must equal pre, equal post, or certify a subset
        of both; it must carry the window label in
        ``epochs_straddled``; and the strategies must agree post-close.
        """
        from repro.evolution.controller import EvolutionController

        fresh = case.build()
        if fresh.evolution is None:  # pragma: no cover - caller checked
            return []
        controller = EvolutionController(fresh.system, fresh.evolution)
        session = GlobalQueryEngine(fresh.system).session(
            name=f"difftest-evo:{case.label}"
        )
        names = [
            n for n in self.EVOLUTION_STRATEGIES if n in self.strategy_names
        ]
        violations: List[Violation] = []
        while not controller.done:
            pre = {
                name: session.execute(fresh.query, name).results
                for name in names
            }
            opened = controller.step()
            if opened.phase != "open":  # pragma: no cover - paired plans
                continue
            label = opened.event.label
            flux_reports = {
                name: session.execute(fresh.query, name) for name in names
            }
            closed = controller.step()
            # safe_plan spaces events so windows never overlap; without
            # that guarantee a true post-epoch baseline is unavailable.
            paired = (
                closed.phase == "close" and closed.event.label == label
            )
            for name in names:
                straddled = flux_reports[name].availability.epochs_straddled
                if label not in straddled:
                    violations.append(Violation(
                        "evolution-straddle", case.label,
                        f"{name} executed inside {label}'s window but "
                        f"annotated epochs_straddled={list(straddled)}",
                        case,
                    ))
            if not paired:  # pragma: no cover - paired plans
                continue
            post = {
                name: session.execute(fresh.query, name).results
                for name in names
            }
            for name in names:
                flux = flux_reports[name].results
                sound = (
                    same_answers(flux, pre[name])
                    or same_answers(flux, post[name])
                    or (
                        certified_subset(flux, pre[name])
                        and certified_subset(flux, post[name])
                    )
                )
                if not sound:
                    violations.append(Violation(
                        "evolution-flux", case.label,
                        f"{name} inside {label}'s window matches neither "
                        f"epoch: vs pre "
                        f"{_first_difference(flux, pre[name])}; vs post "
                        f"{_first_difference(flux, post[name])}",
                        case,
                    ))
            for name in names:
                if name != "CA" and not same_answers(
                    post["CA"], post[name]
                ):
                    violations.append(Violation(
                        "evolution-agreement", case.label,
                        f"after {label} closed, CA vs {name}: "
                        f"{_first_difference(post['CA'], post[name])}",
                        case,
                    ))
        return violations


def _register_assistant_copy(
    system: DistributedSystem,
    range_class: str,
    baseline: ResultSet,
    rng: random.Random,
) -> Optional[GOid]:
    """Clone one root entity to a site it is absent from.

    The new copy carries the entity's merged (consistent) values —
    complex references are handed over as GOids, which
    :meth:`DistributedSystem.register_entity` translates to the target
    site's local copies.  Prefers entities that are maybe results, where
    the extra assistant can actually move the answer.
    """
    table = system.catalog.table(range_class)
    all_dbs = set(system.global_schema.databases_of(range_class))
    maybe_goids = {r.goid for r in baseline.maybe}

    def candidates(pool):
        out = []
        for goid in sorted(pool, key=lambda g: g.value):
            placements = table.loids_of(goid)
            if placements and set(placements) != all_dbs:
                out.append(goid)
        return out

    pool = candidates(maybe_goids) or candidates(table.goids())
    if not pool:
        return None
    goid = rng.choice(pool)
    placements = table.loids_of(goid)
    target_db = rng.choice(sorted(all_dbs - set(placements)))

    # Merge the existing copies' values (first non-null in constituent
    # order — the outerjoin policy), translating references to GOids.
    gdef = system.global_schema.cls(range_class)
    merged: Dict[str, object] = {}
    for attr in gdef.attributes:
        for db_name in system.global_schema.databases_of(range_class):
            loid = placements.get(db_name)
            if loid is None:
                continue
            obj = system.db(db_name).get(loid)
            if obj is None:
                continue
            value = obj.get(attr.name)
            if is_null(value):
                continue
            if attr.is_complex and attr.domain is not None:
                ref_goid = system.catalog.table(attr.domain).goid_of(value)
                if ref_goid is None:
                    continue
                value = ref_goid
            merged[attr.name] = value
            break
    system.register_entity(range_class, {target_db: merged}, goid=goid)
    return goid
