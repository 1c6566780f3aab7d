"""Differential correctness harness: fuzzer, oracle, shrinker, runner.

The paper's central correctness claim is that CA, BL and PL are
*answer-equivalent* — they differ only in cost (Section 4).  This
package turns that claim into an executable property: a seeded
:class:`FederationFuzzer` generates random-but-deterministic federations
and conjunctive queries from the Table 2 parameter space, and a
:class:`StrategyOracle` runs every registered strategy on each case,
asserting

* strict answer equality (same entities, same kinds, same projected
  bindings, same unsolved-predicate sets — :func:`repro.core.results
  .same_answers`);
* execution determinism (same seed, byte-identical export);
* fault soundness (complete runs under a plan equal the fault-free
  answer; degraded runs certify only a subset of it);
* monotonicity (adding an assistant copy never demotes a certain
  result, and never certifies an entity the pre-mutation answer had
  eliminated).

Failures shrink to minimal JSON case files (:mod:`repro.difftest
.shrink`) that tests and ``python -m repro fuzz --replay`` reload.
"""

from repro.difftest.cases import BuiltCase, FuzzCase
from repro.difftest.fuzzer import FederationFuzzer
from repro.difftest.oracle import StrategyOracle, Violation
from repro.difftest.runner import replay_cases, run_fuzz
from repro.difftest.shrink import shrink_case

__all__ = [
    "BuiltCase",
    "FederationFuzzer",
    "FuzzCase",
    "StrategyOracle",
    "Violation",
    "replay_cases",
    "run_fuzz",
    "shrink_case",
]
