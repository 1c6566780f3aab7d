#!/usr/bin/env python3
"""Wall-clock benchmark of the federation engine under traffic.

    python3 benchmarks/wall/run.py [--workload NAME] [--seed N]
        [--seconds S] [--traced | --trace 0|1] [--out FILE]
    python3 benchmarks/wall/run.py --agree A.json B.json

Runs every workload (or the named one), each in a fresh child
interpreter with ``PYTHONHASHSEED=0``, prints every metric by name with
its unit, verifies the answers and writes the result JSON.  With one
workload named, the last line of standard output is the driver's JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "results" / "run-latest.json"
SCHEMA = "BENCH_wall/v1"
CHILD_TIMEOUT_S = 170

#: Compared exactly by --agree when both files used one traffic seed:
#: they repeat bit for bit on one commit and guard the "byte-identical
#: meter totals" contract of every wall-clock optimisation.
EXACT = ("sim_total_s_mean", "sim_response_s_mean")

sys.path.insert(0, str(HERE))

from workloads import BY_NAME, DEFAULT_SEED, WORKLOADS  # noqa: E402


def _benchmark_spec() -> Dict[str, object]:
    return json.loads(BENCHMARK_JSON.read_text())


# --- child: one workload in this interpreter ----------------------------------

def _child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import harness

    try:
        cell = harness.measure(
            BY_NAME[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except harness.PinMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(cell))
    return 0


# --- parent -------------------------------------------------------------------

def _git_commit() -> str:
    """HEAD of this checkout, read from its own ``.git`` only."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "pythonhashseed": "0",
    }


def _run_child(name: str, args: argparse.Namespace) -> Dict[str, object]:
    """Measure one workload in a fresh interpreter; returns its cell."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(
        command, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _print_cell(cell: Dict[str, object]) -> None:
    print(
        f"== {cell['workload']}: seed {cell['seed']}, "
        f"{cell['queries_per_pass']} queries/pass, {cell['passes']} timed "
        f"passes, {cell.get('samples', 0)} latency samples "
        f"({cell.get('samples_beyond_p95', 0)} beyond p95), "
        f"{cell['failed']} of {cell['attempted']} failed, "
        f"answers {str(cell['answers_digest'])[:16]}"
    )
    for section in ("end_to_end", "per_layer"):
        for name, metric in cell.get(section, {}).items():
            print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}")
    for error in cell["errors"]:
        print(f"  ERROR: {error}")


def _unused_layers(cells: Dict[str, Dict[str, object]]) -> List[str]:
    """Declared layers that recorded no call on any workload."""
    calls: Dict[str, float] = {}
    for cell in cells.values():
        for name, metric in cell.get("per_layer", {}).items():
            if name.endswith(".calls_per_query"):
                calls[name] = calls.get(name, 0.0) + metric["value"]
    return sorted(name for name, total in calls.items() if total == 0)


def _measure(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    cells = {}
    for name in names:
        cells[name] = _run_child(name, args)
        _print_cell(cells[name])
    errors = [
        f"{name}: {error.splitlines()[-1]}"
        for name, cell in cells.items() for error in cell["errors"]
    ]
    if args.trace and not args.workload:
        errors.extend(
            f"layer metric {name} is 0 on every workload"
            for name in _unused_layers(cells)
        )
    out = pathlib.Path(args.out) if args.out else DEFAULT_OUT
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "schema": SCHEMA,
        "environment": _environment(),
        "traffic_seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "errors": errors,
        "workloads": cells,
    }, indent=1) + "\n")
    print(f"wrote {out}")
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    correct = not errors and all(c["correct"] for c in cells.values())
    if args.workload:
        cell = cells[args.workload]
        section = "per_layer" if args.trace else "end_to_end"
        wanted = {m["name"] for m in _benchmark_spec()[section]}
        print(json.dumps({
            "correct": correct,
            "attempted": cell["attempted"],
            "failed": cell["failed"],
            "metrics": {
                name: metric for name, metric in cell.get(section, {}).items()
                if name in wanted
            },
        }))
    return 0 if correct else 1


# --- --agree ------------------------------------------------------------------

def _agree(path_a: str, path_b: str) -> int:
    """Compare two result files metric by metric; non-zero outside bounds."""
    from stats import worsening

    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    declared = {m["name"]: m for m in _benchmark_spec()["end_to_end"]}
    same_seed = a["traffic_seed"] == b["traffic_seed"]
    bad = 0
    print(f"{'workload':<12} {'metric':<22} {'A (base)':>14} {'B':>14} "
          f"{'B/A':>8} {'bound':>7}  verdict")
    for name in a["workloads"]:
        cell_a, cell_b = a["workloads"][name], b["workloads"].get(name)
        if cell_b is None:
            print(f"{name:<12} missing from {path_b}")
            bad += 1
            continue
        for metric, value in cell_a["end_to_end"].items():
            va, vb = value["value"], cell_b["end_to_end"][metric]["value"]
            # failed_share has no bound to declare: any increase fails.
            spec = declared.get(metric, {"better": "lower", "bound": 0.0})
            bound = 1e-9 if metric in EXACT else spec["bound"]
            worse = worsening(va, vb, spec["better"])
            if metric in EXACT and not same_seed:
                verdict = "skipped (seeds differ)"
            elif (abs(worse) if metric in EXACT else worse) > bound:
                verdict = "OUTSIDE"
                bad += 1
            else:
                verdict = "ok"
            ratio = f"{vb / va:8.4f}" if va else f"{'-':>8}"
            print(f"{name:<12} {metric:<22} {va:>14.6g} {vb:>14.6g} "
                  f"{ratio} {bound:>7.2g}  {verdict}")
        if same_seed:
            same = cell_a["answers_digest"] == cell_b["answers_digest"]
            bad += not same
            print(f"{name:<12} {'answers_digest':<22} "
                  f"{cell_a['answers_digest'][:14]:>14} "
                  f"{cell_b['answers_digest'][:14]:>14} {'':>8} {'exact':>7}  "
                  f"{'ok' if same else 'OUTSIDE'}")
    print(f"{bad} outside bounds" if bad else "all within bounds")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="traffic seed (default: the pinned one)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure at least this long per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--out", default="",
                        help=f"result file (default {DEFAULT_OUT.name})")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.agree:
        return _agree(*args.agree)
    if args.workload and args.workload not in BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(BY_NAME)}")
    if args.seconds is None:
        args.seconds = float(_benchmark_spec()["run_seconds"])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC}", file=sys.stderr)
        return 2
    return _child(args) if args.child else _measure(args)


if __name__ == "__main__":
    sys.exit(main())
