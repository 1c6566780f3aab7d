"""Shared benchmark helpers (importable without conftest name clashes).

Set ``REPRO_SAMPLES`` to control how many Table 2 parameter sets each
figure sweep averages (the paper uses 500; the default of 150 keeps a
full benchmark run under a couple of minutes).  Every figure bench
writes its reproduced rows to ``benchmarks/results/<name>.txt``; a
baseline-checked bench writes its table there only from a full run
without ``--check`` (see :func:`finish`).

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


def _by_key(kind: str, side: str, rows, key_fields, diffs: list) -> dict:
    """*rows* by their key fields; a key held twice is a diff."""
    by_key = {}
    for row in rows:
        key = tuple(row[k] for k in key_fields)
        if key in by_key:
            diffs.append(
                f"{kind} {'/'.join(map(str, key))}: key repeated in {side}"
            )
        by_key[key] = row
    return by_key


def baseline_diffs(result: dict, baseline: dict, sections) -> list:
    """Checked-field differences of *result* from *baseline*.

    Each section ``(kind, rows key, key fields, checked fields)`` pairs
    the rows of both by their key fields and compares the checked ones.
    A row the baseline lacks is skipped: the ``--quick`` sweeps are
    subsets of the full sweeps the baselines hold.  A key held by two
    rows on either side, and a section where no row pairs up, are diffs
    too: either would let a regression pass unchecked.
    """
    diffs: list = []
    for kind, rows_key, key_fields, checked in sections:
        base_by_key = _by_key(
            kind, "the baseline", _get(baseline, rows_key), key_fields, diffs
        )
        rows = _by_key(
            kind, "the result", _get(result, rows_key), key_fields, diffs
        )
        matched = 0
        for key, row in rows.items():
            base = base_by_key.get(key)
            if base is None:
                continue
            matched += 1
            for field in checked:
                old, new = _get(base, field), _get(row, field)
                if new != old:
                    diffs.append(
                        f"{kind} {'/'.join(map(str, key))}.{field}: "
                        f"{old} -> {new}"
                    )
        if not matched:
            diffs.append(f"{kind}: no row pairs with a baseline row")
    return diffs


def finish(name: str, result: dict, text: str, args, sections) -> int:
    """Report one bench run; returns its exit status.

    Prints *text*, writes *result* to ``--json`` when given, and with
    ``--check`` compares it with that baseline over *sections* (see
    :func:`baseline_diffs`).  Only a full run without ``--check`` writes
    *text* to ``results/<name>.txt``: the committed tables are the full
    sweeps, and a ``--quick`` or checking run must leave them as they are.
    """
    print(text)
    if not (getattr(args, "quick", False) or args.check_path):
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
