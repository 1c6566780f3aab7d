"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``       — run the paper's Q1 on the school federation (all
  strategies) and print answers + simulated costs;
* ``query``      — run an arbitrary SQL/X query against the school
  federation with a chosen strategy (optionally exporting the trace);
* ``explain``    — run a query once and print its full execution report
  (answer, phase times, utilization, Gantt timeline);
* ``strategies`` — list the registered strategies and their metadata;
* ``study``      — regenerate the paper's performance study
  (Figures 9-11) as tables;
* ``compare``    — generate a synthetic Table 2 federation and compare
  all five strategies on it (optionally exporting every trace);
* ``tables``     — print Tables 1 and 2;
* ``fuzz``       — run the differential correctness harness (seeded
  federation fuzzer + cross-strategy oracle), or replay committed
  case files with ``--replay``;
* ``traffic``    — drive a deterministic concurrent workload (N
  workers, weighted query mix, admission control) against a synthetic
  federation and report throughput + latency percentiles; ``--evolve``
  runs membership/schema churn on the same simulated clock;
* ``evolve``     — step an evolution plan through a synthetic
  federation transition by transition, re-executing the workload query
  at every epoch to show the consistency contract in action;
* ``recertify``  — run a query degraded under a fault plan, print the
  discharge conditions its maybe rows carry, then repair the answer
  incrementally against the healed federation (no re-execution).

Every query-running command executes through an
:class:`~repro.core.session.EngineSession` configured with one
:class:`~repro.core.options.ExecutionOptions` value built from the
execution flags (``--faults``, ``--fault-seed``, ``--policy``,
``--planner``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import List, Optional

from repro.bench.experiments import figure9, figure10, figure11
from repro.bench.reporting import dump_traces, format_table, series_table
from repro.core.engine import GlobalQueryEngine
from repro.core.options import PLANNER_MODES, ExecutionOptions
from repro.core.results import answer_digest
from repro.core.strategies import DEFAULT_REGISTRY
from repro.errors import ReproError
from repro.faults import POLICIES, FaultPlan
from repro.sim.costs import table1_rows
from repro.workload.generator import generate
from repro.workload.paper_example import Q1_TEXT, build_school_federation
from repro.workload.params import sample_params, table2_rows

#: Names accepted by --strategy (everything in the registry).
QUERY_STRATEGIES = tuple(DEFAULT_REGISTRY.names())
#: The concrete strategies (the adaptive selector delegates to these).
STRATEGY_CHOICES = tuple(n for n in QUERY_STRATEGIES if n != "AUTO")


def _cmd_demo(_args: argparse.Namespace) -> int:
    engine = GlobalQueryEngine(build_school_federation())
    print(f"Q1: {Q1_TEXT}\n")
    for name in ("CA", "BL", "PL"):
        outcome = engine.execute(Q1_TEXT, name)
        print(
            f"{name}: certain={outcome.results.certain_rows()} "
            f"maybe={outcome.results.maybe_rows()} "
            f"total={outcome.total_time * 1000:.2f}ms "
            f"response={outcome.response_time * 1000:.2f}ms"
        )
    return 0


def _load_fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """Build the plan from --faults: a JSON file path or an inline spec
    (``"DB2@0:1.5,link:*>DB1:loss0.3"``)."""
    raw = args.faults
    if not raw:
        return None
    seed = args.fault_seed
    if os.path.exists(raw):
        with open(raw) as handle:
            plan = FaultPlan.from_json(handle.read())
        # The CLI seed wins over the file's when given explicitly.
        if seed:
            plan = FaultPlan(
                seed=seed, outages=plan.outages, links=plan.links
            )
        return plan
    return FaultPlan.from_spec(raw, seed=seed)


def _add_planner_arg(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--planner", default="static", choices=PLANNER_MODES,
        help="adaptive-planning mode: feedback (AUTO consults observed "
             "stalls/queue delays), constraints (prune sites "
             "and checks via the per-site constraint catalog), full "
             "(both); answers are identical in every mode",
    )


def _execution_option_flags() -> argparse.ArgumentParser:
    """The ``ExecutionOptions`` flags, as an argparse parent parser.

    Every query-running subcommand takes ``parents=[...]`` of it, so
    :func:`_cli_options` finds each attribute on any of their namespaces.
    """
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--faults", default="",
        help="fault plan: a JSON file path or an inline spec like "
             "'DB2@0:1.5,link:*>DB1:loss0.3'",
    )
    flags.add_argument(
        "--fault-seed", type=int, default=0, dest="fault_seed",
        help="seed for loss draws and backoff jitter",
    )
    flags.add_argument(
        "--policy", default="degrade", metavar="SPEC",
        help="fault-handling policy: a preset "
             f"({', '.join(sorted(POLICIES))}) optionally followed by "
             "inline overrides, e.g. 'degrade:timeout=0.5,retries=3' "
             "(default: degrade to partial answers)",
    )
    _add_planner_arg(flags)
    return flags


def _cli_options(args: argparse.Namespace) -> ExecutionOptions:
    """One ExecutionOptions value from the execution-option flags."""
    return ExecutionOptions(
        fault_plan=_load_fault_plan(args),
        policy=args.policy,
        fault_seed=args.fault_seed,
        planner=args.planner,
    )


def _cli_session(system, args: argparse.Namespace):
    """The CLI's session over a fresh engine on *system*."""
    return GlobalQueryEngine(system).session(
        name="cli", options=_cli_options(args)
    )


def _cmd_query(args: argparse.Namespace) -> int:
    session = _cli_session(build_school_federation(), args)
    report = session.execute(args.sql, strategy=args.strategy)
    print(f"strategy: {args.strategy}")
    availability = report.availability.summary()
    if availability != "complete":
        print(f"degraded: {availability}")
    print(f"certain:  {report.results.certain_rows()}")
    print(f"maybe:    {report.results.maybe_rows()}")
    for maybe in report.results.maybe:
        unsolved = ", ".join(str(p) for p in maybe.unsolved)
        print(f"  {maybe.goid}: unsolved {unsolved}")
        for note in maybe.notes:
            print(f"  {maybe.goid}: {note}")
    if args.trace:
        with open(args.trace, "w") as handle:
            handle.write(report.trace.to_chrome_json())
        print(f"trace:    {args.trace} (load in chrome://tracing or Perfetto)")
    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            handle.write(report.trace.to_jsonl())
        print(f"jsonl:    {args.jsonl}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    session = _cli_session(build_school_federation(), args)
    report = session.execute(args.sql, strategy=args.strategy)
    print(report.explain(width=args.width))
    if args.trace:
        with open(args.trace, "w") as handle:
            handle.write(report.trace.to_chrome_json())
        print(f"\ntrace written to {args.trace}")
    return 0


def _cmd_strategies(_args: argparse.Namespace) -> int:
    print(DEFAULT_REGISTRY.table())
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    figures = {
        "9": (figure9, "Figure 9 — objects per constituent class"),
        "10": (figure10, "Figure 10 — component databases"),
        "11": (figure11, "Figure 11 — local predicate selectivity"),
    }
    wanted = args.figures.split(",") if args.figures else list(figures)
    for key in wanted:
        if key not in figures:
            print(f"unknown figure {key!r}; choose from 9,10,11",
                  file=sys.stderr)
            return 2
        build, title = figures[key]
        series = build(samples=args.samples)
        print(f"\n{title} (n={args.samples} samples/point)")
        print("(a) total execution time")
        print(series_table(series, "total"))
        print("(b) response time")
        print(series_table(series, "response"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    params = sample_params(rng)
    params.seed = args.seed
    workload = generate(params, scale=args.scale)
    session = _cli_session(workload.system, args)
    print(f"query: {workload.query}")
    outcomes = session.compare(
        workload.query,
        strategies=list(STRATEGY_CHOICES),
    )
    print(f"answer: {outcomes['CA'].results.summary()}\n")
    headers = ["strategy", "total (s)", "response (s)", "net bytes", "checked"]
    with_faults = bool(args.faults)
    if with_faults:
        headers.append("availability")
    rows = []
    for name in STRATEGY_CHOICES:
        row = [
            name,
            f"{outcomes[name].total_time:.3f}",
            f"{outcomes[name].response_time:.3f}",
            str(outcomes[name].metrics.work.bytes_network),
            str(outcomes[name].metrics.work.assistants_checked),
        ]
        if with_faults:
            row.append(outcomes[name].availability.summary())
        rows.append(row)
    print(format_table(headers, rows))
    if args.trace_dir:
        written = dump_traces(outcomes, args.trace_dir)
        print(f"\ntraces written to {args.trace_dir}:")
        for path in written:
            print(f"  {path}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    # Imported lazily: the harness pulls in the whole strategy stack.
    from repro.difftest import StrategyOracle, replay_cases, run_fuzz

    # --planner pins every invariant run to an adaptive mode (the
    # planner invariant still cross-checks against static).
    oracle = StrategyOracle(planner=args.planner, recertify=args.recertify)
    if args.replay:
        violations = replay_cases(args.replay, oracle=oracle)
    else:
        violations = run_fuzz(
            args.seed, args.cases, out_dir=args.out or None, oracle=oracle
        )
    return 1 if violations else 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.traffic import AdmissionControl, TrafficEngine, default_mix

    def build_workload():
        rng = random.Random(args.seed)
        params = sample_params(rng)
        params.seed = args.seed
        return generate(params, scale=args.scale)

    workload = build_workload()
    mix = default_mix(workload)
    evolution = None
    if args.evolve:
        from repro.evolution import EvolutionPlan, resolve_auto
        from repro.evolution.seeding import mix_referenced_attributes

        plan = EvolutionPlan.from_spec(
            args.evolve, seed=args.seed, propagation_lag_s=args.evolve_lag
        )
        evolution = resolve_auto(
            plan, workload.system, workload.query,
            extra_referenced=mix_referenced_attributes(mix),
        )
    engine = TrafficEngine(
        workload.system,
        mix,
        workers=args.workers,
        queries=args.queries,
        seed=args.seed,
        strategy=args.strategy,
        options=_cli_options(args),
        admission=AdmissionControl(
            max_in_flight=args.max_in_flight,
            queue_depth=args.queue_depth,
        ),
        evolution=evolution,
        system_factory=lambda: build_workload().system,
    )
    report = engine.run(verify=args.verify)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"mix: {report.mix} over {workload.query}")
        if report.evolution:
            print(
                f"evolution: {report.evolution} — "
                f"{report.evo_transitions} transitions, final epoch "
                f"{report.final_epoch}, {report.queries_straddled} "
                f"queries straddled, mean propagation lag "
                f"{report.propagation_lag_mean_s:.3f}s"
            )
        print(report.summary())
        print(
            f"gate: {report.gate_queued} queued "
            f"({report.gate_wait_s:.3f}s waiting), "
            f"{report.gate_rejected} shed"
        )
        print(
            f"caches: {report.cache_hits} hits / "
            f"{report.cache_misses} misses, "
            f"{report.shared_hits} cross-worker"
        )
        if args.verify:
            print(
                f"verified: {report.verified} answers vs serial, "
                f"{len(report.violations)} violations"
            )
        for violation in report.violations:
            print(f"  VIOLATION: {violation}")
    return 1 if report.violations else 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    """Step an evolution plan epoch by epoch, re-querying at each one."""
    from repro.evolution import (
        EvolutionController,
        EvolutionPlan,
        resolve_auto,
    )

    rng = random.Random(args.seed)
    params = sample_params(rng)
    params.seed = args.seed
    workload = generate(params, scale=args.scale)
    plan = resolve_auto(
        EvolutionPlan.from_spec(
            args.spec, seed=args.seed, propagation_lag_s=args.lag
        ),
        workload.system,
        workload.query,
    )
    if not plan.active:
        print(
            "no feasible evolution events for this federation",
            file=sys.stderr,
        )
        return 2
    session = _cli_session(workload.system, args)
    controller = EvolutionController(workload.system, plan)
    print(f"query: {workload.query}")
    print(f"plan:  {plan.describe()} (lag {plan.propagation_lag_s}s/site)")

    def show(prefix: str) -> None:
        report = session.execute(workload.query, strategy=args.strategy)
        print(
            f"  {prefix} epoch={report.availability.schema_epoch} "
            f"answer={report.results.summary()} "
            f"digest={answer_digest(report.results)} "
            f"[{report.availability.summary()}]"
        )

    print(f"sites: {', '.join(sorted(workload.system.databases))}")
    show("baseline")
    while not controller.done:
        transition = controller.step()
        print(
            f"t={transition.at:.2f} {transition.label} -> epoch "
            f"{transition.epoch}, sites "
            f"{', '.join(sorted(workload.system.databases))}"
        )
        show("now")
    labels = [e.label for e in plan.ordered_events()]
    lags = ", ".join(
        f"{label}={controller.propagation_lag(label):.3f}s"
        for label in labels
    )
    print(f"propagation: {lags}")
    return 0


def _cmd_recertify(args: argparse.Namespace) -> int:
    """Degrade a query under a fault plan, then repair it in place."""
    session = _cli_session(build_school_federation(), args)
    if not session.options.faults_active:
        print(
            "error: recertify needs --faults (something must degrade "
            "before it can be repaired)",
            file=sys.stderr,
        )
        return 2
    report = session.execute(args.sql, strategy=args.strategy)
    print(f"degraded: {report.summary()}")
    conditional = report.conditions_summary()
    if conditional:
        print(f"          {conditional}")
    for row in report.results.maybe:
        if row.conditions:
            atoms = " AND ".join(str(c) for c in row.conditions)
            print(f"  {row.goid}: {atoms}")
    from repro.conditions import RepairError

    try:
        repaired = session.recertify(report)
    except RepairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"repaired: {repaired.summary()}")
    if repaired.repair_summary is not None:
        print(f"          {repaired.repair_summary.describe()}")
    residual = [row for row in repaired.results.maybe if row.conditions]
    for row in residual:
        atoms = " AND ".join(str(c) for c in row.conditions)
        print(f"  {row.goid}: {atoms}")
    return 0


def _cmd_tables(_args: argparse.Namespace) -> int:
    print("Table 1 — system parameters")
    print(format_table(["parameter", "description", "setting"], table1_rows()))
    print("\nTable 2 — database and query parameters")
    print(format_table(
        ["parameter", "description", "default setting"], table2_rows()
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Koh & Chen (ICDCS 1996) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = [_execution_option_flags()]

    sub.add_parser("demo", help="run Q1 on the school federation")

    query = sub.add_parser(
        "query", parents=options, help="run SQL/X on the school federation"
    )
    query.add_argument("sql", help="SQL/X query text")
    query.add_argument(
        "--strategy", default="BL", choices=QUERY_STRATEGIES
    )
    query.add_argument(
        "--trace", default="", help="write a Chrome-trace JSON here"
    )
    query.add_argument(
        "--jsonl", default="", help="write a JSONL event log here"
    )

    explain = sub.add_parser(
        "explain", parents=options,
        help="run a query once and print its execution report",
    )
    explain.add_argument("sql", nargs="?", default=Q1_TEXT,
                         help="SQL/X query text (default: the paper's Q1)")
    explain.add_argument(
        "--strategy", default="PL", choices=QUERY_STRATEGIES
    )
    explain.add_argument("--width", type=int, default=48)
    explain.add_argument(
        "--trace", default="", help="also write a Chrome-trace JSON here"
    )

    sub.add_parser("strategies", help="list registered strategies")

    study = sub.add_parser("study", help="regenerate Figures 9-11")
    study.add_argument("--samples", type=int, default=100)
    study.add_argument(
        "--figures", default="", help="comma-separated subset, e.g. 9,11"
    )

    compare = sub.add_parser(
        "compare", parents=options,
        help="compare strategies on a synthetic federation",
    )
    compare.add_argument("--seed", type=int, default=2026)
    compare.add_argument("--scale", type=float, default=0.05)
    compare.add_argument(
        "--trace-dir", default="",
        help="write each strategy's Chrome-trace JSON into this directory",
    )

    sub.add_parser("tables", help="print Tables 1 and 2")

    traffic = sub.add_parser(
        "traffic", parents=options,
        help="drive a deterministic concurrent workload against a "
             "synthetic federation",
    )
    traffic.add_argument("--workers", type=int, default=8)
    traffic.add_argument(
        "--queries", type=int, default=50, help="queries per worker"
    )
    traffic.add_argument("--seed", type=int, default=1996)
    traffic.add_argument("--scale", type=float, default=0.03)
    traffic.add_argument(
        "--strategy", default="BL", choices=QUERY_STRATEGIES
    )
    traffic.add_argument(
        "--max-in-flight", type=int, default=8, dest="max_in_flight",
        help="admission gate capacity (concurrent executions)",
    )
    traffic.add_argument(
        "--queue-depth", type=int, default=32, dest="queue_depth",
        help="waiting submissions beyond which new ones are shed",
    )
    traffic.add_argument(
        "--verify", action=argparse.BooleanOptionalAction, default=True,
        help="re-execute each distinct query serially and require "
             "byte-identical answers (--no-verify to skip)",
    )
    traffic.add_argument(
        "--json", action="store_true",
        help="print the full report as deterministic JSON",
    )
    traffic.add_argument(
        "--evolve", default="",
        help="evolution plan spec run on the traffic clock, e.g. "
             "'leave@5,join@40,rename@80' (bare kinds auto-resolve to "
             "query-safe targets; see docs/EVOLUTION.md)",
    )
    traffic.add_argument(
        "--evolve-lag", type=float, default=0.05, dest="evolve_lag",
        help="per-site propagation lag in simulated seconds (a window "
             "over N sites stays open N*lag)",
    )

    evolve = sub.add_parser(
        "evolve", parents=options,
        help="step an evolution plan through a synthetic federation, "
             "re-querying at every epoch",
    )
    evolve.add_argument("--seed", type=int, default=1996)
    evolve.add_argument("--scale", type=float, default=0.03)
    evolve.add_argument(
        "--spec", default="leave@1,join@2,rename@3,add@4,drop@5",
        help="evolution plan spec (KIND[:TARGET]@TIME, comma-joined; "
             "bare kinds auto-resolve to query-safe targets)",
    )
    evolve.add_argument(
        "--lag", type=float, default=0.05,
        help="per-site propagation lag in simulated seconds",
    )
    evolve.add_argument(
        "--strategy", default="BL", choices=QUERY_STRATEGIES
    )

    fuzz = sub.add_parser(
        "fuzz", help="differential-test the strategies on random "
                     "federations (or --replay committed cases)"
    )
    fuzz.add_argument("--seed", type=int, default=1996)
    fuzz.add_argument("--cases", type=int, default=25)
    fuzz.add_argument(
        "--replay", nargs="+", default=[], metavar="PATH",
        help="re-check committed case files (or directories of them) "
             "instead of fuzzing",
    )
    fuzz.add_argument(
        "--out", default="",
        help="directory for shrunk JSON case files on violations",
    )
    fuzz.add_argument(
        "--recertify", action="store_true",
        help="also check the repair invariants: every degraded fault "
             "execution must repair to the fault-free baseline via "
             "engine.recertify on the healed federation",
    )
    _add_planner_arg(fuzz)

    recert = sub.add_parser(
        "recertify", parents=options,
        help="run a query degraded under a fault plan, then repair the "
             "answer incrementally against the healed federation",
    )
    recert.add_argument("sql", nargs="?", default=Q1_TEXT,
                        help="SQL/X query text (default: the paper's Q1)")
    recert.add_argument(
        "--strategy", default="BL", choices=QUERY_STRATEGIES
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "query": _cmd_query,
        "explain": _cmd_explain,
        "strategies": _cmd_strategies,
        "study": _cmd_study,
        "compare": _cmd_compare,
        "tables": _cmd_tables,
        "fuzz": _cmd_fuzz,
        "traffic": _cmd_traffic,
        "evolve": _cmd_evolve,
        "recertify": _cmd_recertify,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
