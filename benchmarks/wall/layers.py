"""Layer probes: declared once, installed from outside, only when tracing.

``LAYERS`` maps a layer (named after this repo's modules) to the coarse
public entry points a span is put around — nothing per-row.  A target is
``"module:Qualified.name"``.  :func:`installed` resolves every target
first and raises :class:`ProbeError` if one is gone, then

* for a module-level function, rebinds *every* module-level alias of it
  across ``sys.modules['repro.*']`` (``certify`` is ``from``-imported
  into ``core.strategies.localized`` and ``conditions.recertify``);
* for a method, sets the wrapper on the named class (a subclass that
  inherits the method gets its own entry, removed again on exit),

and restores all of it on exit.  An untraced run never imports this
module, so a rename inside ``repro`` cannot disturb the end-to-end
numbers; a traced run fails loudly instead.

Self time = span duration − time covered by child spans.  Count hooks
run *after* a span's clock stops and are recorded as a sibling span of
the pseudo-layer ``probe``, so their cost is charged to no layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pathlib
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import stats

LAYERS: Dict[str, Tuple[str, ...]] = {
    "traffic": ("repro.traffic.driver:TrafficEngine.run",),
    "engine": ("repro.core.session:EngineSession.execute",),
    "decompose": ("repro.core.system:DistributedSystem.decompose",),
    "strategies": (
        "repro.core.strategies:CentralizedStrategy.execute",
        "repro.core.strategies:BasicLocalizedStrategy.execute",
        "repro.core.strategies:ParallelLocalizedStrategy.execute",
    ),
    "objectdb.execute_local": (
        "repro.objectdb.database:ComponentDatabase.execute_local",
    ),
    "objectdb.collect_unsolved": (
        "repro.objectdb.database:ComponentDatabase.collect_unsolved",
    ),
    "objectdb.check_assistants": (
        "repro.objectdb.database:ComponentDatabase.check_assistants",
    ),
    "sim": ("repro.sim.taskgraph:FederationSim.run",),
    "certification": ("repro.core.certification:certify",),
    "binding_resolution": (
        "repro.core.binding_resolution:resolve_missing_bindings",
    ),
    "outerjoin": ("repro.integration.outerjoin:materialize",),
    "export": ("repro.difftest.oracle:answer_digest",),
    "evolution": ("repro.evolution.controller:EvolutionController.step",),
    # Timed standalone (see time_sqlx): templates bypass the parser.
    "sqlx": ("repro.sqlx.parser:parse_query",),
}

#: Call counters with no span (too fine, or nested inside one layer).
COUNTERS: Dict[str, str] = {
    "decompose.misses": "repro.core.decompose:decompose",
    "objectdb.columnar_builds": "repro.objectdb.columnar:ColumnarExtent.__init__",
}

LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS)
PROBE = len(LAYER_NAMES)  # pseudo-layer of the count hooks
#: Orchestration layers: their self time is glue, not a leaf's work.
ORCHESTRATION = ("traffic", "engine", "strategies")

_SPAN_METRICS = (
    ("self_ms_per_query", "ms", "lower"),
    ("share", "ratio", "lower"),
    ("calls_per_query", "1/query", "lower"),
)
_COUNT_METRICS = (
    ("decompose.hit_rate", "ratio", "higher"),
    ("objectdb.columnar_builds", "count", "lower"),
    ("strategies.messages_per_query", "1/query", "lower"),
    ("strategies.checks_per_query", "1/query", "lower"),
    ("certification.rows_per_query", "1/query", "lower"),
    ("certification.resolved_ratio", "ratio", "higher"),
    ("export.rows_per_query", "1/query", "lower"),
    ("faults.degraded_share", "ratio", "lower"),
    ("faults.retries_per_query", "1/query", "lower"),
    ("faults.checks_failed_over_per_query", "1/query", "lower"),
    ("conditions.attached_per_query", "1/query", "lower"),
    ("evolution.transitions", "count", "higher"),
    ("evolution.straddled_share", "ratio", "lower"),
    ("traffic.shed", "count", "lower"),
    ("setup.generate_s", "s", "lower"),
    ("setup.cold_pass_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)


def declared() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [
        (f"{layer}.{suffix}", unit, better)
        for layer in LAYER_NAMES
        for suffix, unit, better in _SPAN_METRICS
    ]
    out.extend(_COUNT_METRICS)
    return out


class ProbeError(Exception):
    """A declared probe target does not exist (renamed or removed)."""


class Recorder:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        #: (layer index, parent span id, start, end); id = position.
        self.spans: List[Optional[stats.Span]] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {name: 0 for name in COUNTERS}
        self.counts.update(
            {"certify.rows": 0, "certify.maybe": 0, "certify.resolved": 0,
             "export.rows": 0}
        )
        #: span id -> id of the ``engine`` span of the same request, for
        #: spans recorded outside it (``export`` runs after ``execute``
        #: returned, possibly after the other worker's next query).
        self.request: Dict[int, int] = {}
        self._answers: Dict[int, int] = {}

    # --- count hooks: (span id, args, kwargs, result) -----------------------

    def after_engine(self, sid, args, kwargs, report) -> None:
        self._answers[id(report.results)] = sid

    def after_export(self, sid, args, kwargs, digest) -> None:
        results = args[0]
        self.counts["export.rows"] += len(results)
        owner = self._answers.pop(id(results), None)
        if owner is not None:
            self.request[sid] = owner

    def after_certify(self, sid, args, kwargs, answer) -> None:
        """Rows entering ``certify``, and how many maybes it resolved.

        A local-maybe row is *resolved* when its entity leaves certain
        or eliminated, i.e. is not among the answer's maybe rows.
        """
        query, _schema, catalog, local_results = args[:4]
        goid_of = catalog.table(query.range_class).goid_of
        still_maybe = {row.goid for row in answer.maybe}
        rows = maybe = resolved = 0
        for result in local_results.values():
            rows += len(result.rows)
            for row in result.rows:
                if row.is_maybe:
                    maybe += 1
                    if goid_of(row.loid) not in still_maybe:
                        resolved += 1
        counts = self.counts
        counts["certify.rows"] += rows
        counts["certify.maybe"] += maybe
        counts["certify.resolved"] += resolved


_HOOKS = {
    "engine": "after_engine",
    "export": "after_export",
    "certification": "after_certify",
}


def _span_wrapper(fn: Callable, layer: int, recorder: Recorder, after) -> Callable:
    spans, stack, clock = recorder.spans, recorder.stack, time.perf_counter

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        sid = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            spans[sid] = (layer, parent, start, end)
        if after is not None:
            after(sid, args, kwargs, result)
            spans.append((PROBE, parent, end, clock()))
        return result

    return probe


def _count_wrapper(fn: Callable, name: str, recorder: Recorder) -> Callable:
    counts = recorder.counts

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def resolve(target: str) -> Tuple[object, str, Callable]:
    """``"module:Owner.attr"`` -> (owner object, attribute name, callable)."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for step in path:
            owner = getattr(owner, step)
        fn = getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise ProbeError(f"probe target {target!r} is missing: {exc}") from exc
    if not callable(fn):
        raise ProbeError(f"probe target {target!r} is not callable")
    return owner, attr, fn


def _bindings(owner, attr: str, fn: Callable) -> List[Tuple[object, str]]:
    """Every place *fn* is bound: the class, or all ``repro`` aliases."""
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for alias, value in list(vars(module).items()):
            if value is fn:
                found.append((module, alias))
    return found


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Install every declared probe; restore ``repro`` exactly on exit."""
    plan = []  # (owner, attr, fn, wrapper factory)
    for index, (layer, targets) in enumerate(LAYERS.items()):
        hook = _HOOKS.get(layer)
        after = getattr(recorder, hook) if hook else None
        for target in targets:
            owner, attr, fn = resolve(target)
            plan.append((owner, attr, fn, functools.partial(
                _span_wrapper, layer=index, recorder=recorder, after=after
            )))
    for name, target in COUNTERS.items():
        owner, attr, fn = resolve(target)
        plan.append((owner, attr, fn, functools.partial(
            _count_wrapper, name=name, recorder=recorder
        )))
    undo: List[Tuple[object, str, bool, object]] = []
    try:
        for owner, attr, fn, wrap in plan:
            wrapper = wrap(fn)
            for holder, alias in _bindings(owner, attr, fn):
                own = alias in vars(holder)
                undo.append((holder, alias, own, vars(holder).get(alias)))
                setattr(holder, alias, wrapper)
        yield
    finally:
        for holder, alias, own, previous in reversed(undo):
            if own:
                setattr(holder, alias, previous)
            else:
                delattr(holder, alias)


def time_sqlx(traffic) -> None:
    """Parse ``str(query)`` of the pass's distinct bound queries.

    Call inside :func:`installed`: the ``sqlx`` probe records one
    parentless span per parse.  Templates bind ``Query`` objects
    directly, so the pass itself never parses; this is what the SQL/X
    front end would add (about 65 us against a 650 us point query).
    """
    import repro.sqlx.parser as parser

    texts = {
        str(bound.query)
        for worker in range(traffic.workers)
        for bound in traffic.replay_worker(worker)
    }
    for text in sorted(texts):
        parser.parse_query(text)


def metrics(recorder: Recorder, probed, untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of the traced pass *probed* (a ``PassResult``)."""
    spans = recorder.spans
    if any(span is None for span in spans) or recorder.stack:
        raise ProbeError("a span was left open when the traced pass ended")
    seconds, calls = stats.layer_totals(spans, len(LAYER_NAMES) + 1)
    queries = probed.queries
    wall = probed.wall_s
    out: Dict[str, float] = {}
    for index, layer in enumerate(LAYER_NAMES):
        out[f"{layer}.self_ms_per_query"] = 1000.0 * seconds[index] / queries
        out[f"{layer}.share"] = seconds[index] / wall
        out[f"{layer}.calls_per_query"] = calls[index] / queries
    counts, seen = recorder.counts, probed.counts
    report = probed.report
    lookups = calls[LAYER_NAMES.index("decompose")]
    out["decompose.hit_rate"] = (
        1.0 - counts["decompose.misses"] / lookups if lookups else 0.0
    )
    out["objectdb.columnar_builds"] = counts["objectdb.columnar_builds"]
    out["strategies.messages_per_query"] = seen["messages"] / queries
    out["strategies.checks_per_query"] = seen["checks"] / queries
    out["certification.rows_per_query"] = counts["certify.rows"] / queries
    out["certification.resolved_ratio"] = (
        counts["certify.resolved"] / counts["certify.maybe"]
        if counts["certify.maybe"] else 0.0
    )
    out["export.rows_per_query"] = counts["export.rows"] / queries
    out["faults.degraded_share"] = seen["degraded"] / queries
    out["faults.retries_per_query"] = seen["retries"] / queries
    out["faults.checks_failed_over_per_query"] = (
        seen["checks_failed_over"] / queries
    )
    out["conditions.attached_per_query"] = seen["conditions"] / queries
    out["evolution.transitions"] = report.evo_transitions
    out["evolution.straddled_share"] = report.queries_straddled / queries
    out["traffic.shed"] = report.shed
    out["trace.coverage"] = sum(
        out[f"{layer}.share"]
        for layer in LAYER_NAMES
        if layer not in ORCHESTRATION and layer != "sqlx"
    )
    out["trace.overhead_share"] = wall / untraced_wall_s - 1.0
    return out


def design_errors(strategy: str, per_layer: Dict[str, float]) -> List[str]:
    """The two predictions that follow from the code, as hard checks.

    CA evaluates centrally: it never certifies and never checks
    assistants, and it alone materializes the outerjoin.
    """
    centralized = strategy == "CA"
    errors = []
    outerjoin = per_layer["outerjoin.calls_per_query"]
    if centralized:
        for name in ("certification.calls_per_query",
                     "strategies.checks_per_query"):
            if per_layer[name] != 0:
                errors.append(f"{name} = {per_layer[name]} under CA, expected 0")
        if outerjoin == 0:
            errors.append("outerjoin recorded no calls under CA")
    elif outerjoin != 0:
        errors.append(
            f"outerjoin.calls_per_query = {outerjoin} under {strategy}, "
            "expected 0"
        )
    return errors


def write_trace(
    path: pathlib.Path, recorder: Recorder, workload: str, seed: int
) -> None:
    """Write the spans kept in memory (times in us from the first span)."""
    spans = recorder.spans
    origin = spans[0][2] if spans else 0.0
    engine = LAYER_NAMES.index("engine")
    request: Dict[int, int] = dict(recorder.request)
    rows = []
    for sid, (layer, parent, start, end) in enumerate(spans):
        if layer == engine:
            request[sid] = sid
        elif sid not in request and parent in request:
            request[sid] = request[parent]
        rows.append([
            sid, parent, layer,
            round((start - origin) * 1e6, 3), round((end - origin) * 1e6, 3),
            request.get(sid, -1),
        ])
    path.write_text(json.dumps({
        "schema": "BENCH_wall.trace/v1",
        "workload": workload,
        "seed": seed,
        "layers": list(LAYER_NAMES) + ["probe"],
        "columns": ["id", "parent", "layer", "start_us", "end_us", "request"],
        "spans": rows,
    }, separators=(",", ":")))
