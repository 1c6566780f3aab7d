"""Ablation: quality of adaptive (model-driven) strategy selection.

Over a batch of generated federations, compare the AUTO strategy's
prediction against ground truth (run all three strategies on the DES and
observe the actual best).  The regret — extra time paid when AUTO picks
a non-optimal strategy — must stay small: the model need not rank
near-ties correctly, only avoid expensive mistakes.  Beside AUTO the
table scores the fixed policies always-CA, always-BL and always-PL, so
AUTO is measured against the best single strategy, not only against
hindsight.

Seeds 1–400.  An earlier 10-seed window (81–90) scored AUTO at 8/10,
exactly always-BL's 8/10: it could not tell the model from never
choosing at all.
"""

from bench_common import make_workload, run_once, write_result

from repro.bench.reporting import format_table
from repro.core.engine import GlobalQueryEngine
from repro.core.strategies import AdaptiveStrategy

SEEDS = tuple(range(1, 401))
STRATEGIES = ("CA", "BL", "PL")


def run_batch():
    rows = []
    for seed in SEEDS:
        workload = make_workload(seed=seed, scale=0.04)
        engine = GlobalQueryEngine(workload.system)
        actual = {
            name: engine.execute(workload.query, name).response_time
            for name in STRATEGIES
        }
        report = engine.execute(
            workload.query, AdaptiveStrategy(objective="response")
        )
        choice = report.metrics.strategy.removeprefix("AUTO->")
        rows.append((seed, choice, actual))
    return rows


def score(runs, pick):
    """(hits, summed regret) of the policy *pick(choice)* over *runs*."""
    hits = 0
    regret = 0.0
    for _seed, choice, actual in runs:
        picked = pick(choice)
        best = min(actual.values())
        hits += actual[picked] == best
        regret += actual[picked] - best
    return hits, regret


def test_adaptive_selection_quality(benchmark):
    runs = run_once(benchmark, run_batch)

    policies = {"AUTO": lambda choice: choice}
    for name in STRATEGIES:
        policies[f"always-{name}"] = lambda _choice, name=name: name
    scores = {label: score(runs, pick) for label, pick in policies.items()}
    total_best = sum(min(actual.values()) for _seed, _choice, actual in runs)

    summary = format_table(
        ["policy", "hits", "regret sum (s)"],
        [[label, f"{hits}/{len(runs)}", f"{regret:.2f}"]
         for label, (hits, regret) in scores.items()],
    )
    misses = []
    for seed, choice, actual in runs:
        best = min(actual, key=actual.get)
        if actual[choice] != actual[best]:
            misses.append(
                [str(seed), choice, best,
                 f"{actual[choice]:.3f}", f"{actual[best]:.3f}",
                 f"{actual[choice] - actual[best]:.3f}"]
            )
    text = (
        f"seeds {SEEDS[0]}-{SEEDS[-1]}; best-in-hindsight sum "
        f"{total_best:.2f} s\n\n" + summary
        + "\n\nseeds where AUTO missed:\n"
        + format_table(
            ["seed", "AUTO chose", "actual best", "chosen resp(s)",
             "best resp(s)", "regret(s)"],
            misses,
        )
    )
    write_result("ablation_adaptive", text)

    hits, total_regret = scores["AUTO"]
    # The model must rank correctly on a majority...
    assert hits >= len(runs) // 2
    # ...and, more importantly, cheap mistakes only: summed regret under
    # 15% of the summed optimum.
    assert total_regret <= 0.15 * total_best
    # ...and choosing must pay: no worse than never choosing (always-BL,
    # the best fixed policy).
    assert total_regret <= scores["always-BL"][1]
