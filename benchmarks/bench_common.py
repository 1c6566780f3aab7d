"""Shared benchmark helpers (importable without conftest name clashes).

Set ``REPRO_SAMPLES`` to control how many Table 2 parameter sets each
figure sweep averages (the paper uses 500; the default of 150 keeps a
full benchmark run under a couple of minutes).  Every figure bench
writes its reproduced rows to ``benchmarks/results/<name>.txt``.

The benches with a committed ``results/BENCH_<name>.json`` baseline
share their command line and its checking here: a script declares which
rows of its result the baseline pins, as *sections* of ``(kind, rows
key, key fields, checked fields)``, and hands its result to
:func:`finish`.  A rows key or a checked field may be dotted
(``"failover.rows"``, ``"evolution.plan"``) to reach into a nested dict.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

#: Parameter sets averaged per x-axis setting (paper: 500).
SAMPLES = int(os.environ.get("REPRO_SAMPLES", "150"))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_result(name: str, text: str) -> pathlib.Path:
    """Persist one experiment's reproduced rows for inspection."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def run_once(benchmark, fn):
    """Benchmark *fn* with a single timed round (sweeps are long)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def make_workload(seed: int, scale: float = 0.03, **kwargs):
    """One generated workload, deterministic in *seed*."""
    import random

    from repro.workload.generator import generate
    from repro.workload.params import sample_params

    rng = random.Random(seed)
    params = sample_params(rng, **kwargs)
    params.seed = seed
    return generate(params, scale=scale)


# --- baseline-checked benches ------------------------------------------------


def answer_fingerprint(results) -> str:
    """Stable fingerprint of an answer (certain + maybe rows): the
    ``answer_digest`` the committed baselines record.  It hashes
    ``to_json()``, not the ``to_dicts()`` that
    :func:`repro.core.results.answer_digest` hashes, so the two differ."""
    payload = json.dumps(results.to_json(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def add_baseline_args(parser) -> None:
    """The ``--json`` / ``--check`` pair of a baseline-checked bench."""
    parser.add_argument("--json", default="", dest="json_path",
                        help="write the machine-readable result here")
    parser.add_argument("--check", default="", dest="check_path",
                        help="fail when deterministic fields differ from "
                             "this committed baseline JSON")


def _get(record, dotted: str):
    for part in dotted.split("."):
        record = record[part]
    return record


def baseline_diffs(result: dict, baseline: dict, sections) -> list:
    """Checked-field differences of *result* from *baseline*.

    Each section ``(kind, rows key, key fields, checked fields)`` pairs
    the rows of both by their key fields and compares the checked ones.
    A row the baseline lacks is skipped: the ``--quick`` sweeps are
    subsets of the full sweeps the baselines hold.
    """
    diffs = []
    for kind, rows_key, key_fields, checked in sections:
        base_by_key = {
            tuple(row[k] for k in key_fields): row
            for row in _get(baseline, rows_key)
        }
        for row in _get(result, rows_key):
            key = tuple(row[k] for k in key_fields)
            base = base_by_key.get(key)
            if base is None:
                continue
            for field in checked:
                old, new = _get(base, field), _get(row, field)
                if new != old:
                    diffs.append(
                        f"{kind} {'/'.join(map(str, key))}.{field}: "
                        f"{old} -> {new}"
                    )
    return diffs


def finish(name: str, result: dict, text: str, args, sections) -> int:
    """Report one bench run; returns its exit status.

    Prints *text* and writes it to ``results/<name>.txt``, writes
    *result* to ``--json`` when given, and with ``--check`` compares it
    with that baseline over *sections* (see :func:`baseline_diffs`).
    """
    print(text)
    write_result(name, text)
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\njson written to {args.json_path}")
    if args.check_path:
        with open(args.check_path) as handle:
            diffs = baseline_diffs(result, json.load(handle), sections)
        if diffs:
            print(f"\nBASELINE REGRESSION vs {args.check_path}:")
            for diff in diffs:
                print(f"  {diff}")
            return 1
        print(f"\nbaseline check OK vs {args.check_path}")
    return 0
