"""Adaptive strategy selection: the analytic model as a query optimizer.

The paper compares CA/BL/PL offline; a deployed federation would *pick*
one per query.  :class:`AdaptiveStrategy` does exactly that:

1. extract a Table 2-style parameter set from the live federation and
   query (extent sizes, locally defined predicate attributes, sampled
   null ratios);
2. evaluate CA, BL and PL with the analytic model under the federation's
   own cost model and network configuration;
3. delegate execution to the predicted winner (objective: response time
   by default, or total execution time).

The pick reads only the federation and the execution's own fault plan,
so it never depends on what ran before it.  The prediction stays a
heuristic — the model works on expectations — but it can never return a
wrong *answer* (all strategies, in every planner mode, are
answer-equivalent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analytic.model import AnalyticModel
from repro.core.query import Query
from repro.core.strategies.base import Strategy, StrategyResult
from repro.core.system import DistributedSystem
from repro.errors import QueryError
from repro.faults.injector import ExecutionContext
from repro.objectdb.values import is_null
from repro.workload.params import ClassParams, DbClassParams, WorkloadParams

#: Objects sampled per extent when estimating null ratios.
NULL_SAMPLE_SIZE = 50

#: Upper bound the analytic model accepts for a missing-value ratio.
#: Ratios above it are clamped — and the clamp is *surfaced* via
#: :class:`NullRatioSample.clamped` / ``extract_params_ex`` notes rather
#: than applied silently.
NULL_RATIO_CAP = 0.95


@dataclass(frozen=True)
class NullRatioSample:
    """Outcome of one null-ratio estimation over an extent.

    Attributes:
        ratio: the clamped ratio the analytic model consumes.
        raw_ratio: the measured ratio before the
            :data:`NULL_RATIO_CAP` clamp.
        clamped: whether ``raw_ratio`` exceeded the cap.
        objects_sampled: how many distinct objects the stride visited.
    """

    ratio: float
    raw_ratio: float
    clamped: bool
    objects_sampled: int


def extract_params(system: DistributedSystem, query: Query) -> WorkloadParams:
    """Derive a parameter set describing *query* over *system*."""
    params, _notes = extract_params_ex(system, query)
    return params


def extract_params_ex(
    system: DistributedSystem, query: Query
) -> Tuple[WorkloadParams, Tuple[str, ...]]:
    """Like :func:`extract_params`, plus estimation notes.

    The analytic model thinks in class chains; the extraction walks the
    query's visited classes in order (root first) and measures, per
    site: extent size, how many of the class's predicate attributes the
    constituent defines, and a sampled null ratio on those attributes.
    The second return value lists anything the estimator had to fudge —
    currently one note per extent whose measured null ratio exceeded
    :data:`NULL_RATIO_CAP` and was clamped.
    """
    schema = system.global_schema
    query.validate(schema.schema)
    chain: List[str] = [query.range_class]
    for cls in query.branch_classes(schema.schema):
        chain.append(cls)

    # Predicates per class: a predicate belongs to the class its final
    # attribute lives on.
    preds_by_class: Dict[str, List[str]] = {name: [] for name in chain}
    for predicate in query.all_predicates():
        visited = schema.schema.classes_on_path(
            query.range_class, predicate.path.steps
        )
        final_class = visited[-1]
        if final_class in preds_by_class:
            preds_by_class[final_class].append(predicate.path.last)

    db_names = tuple(system.databases)
    classes: List[ClassParams] = []
    notes: List[str] = []
    for class_name in chain:
        pred_attrs = preds_by_class[class_name]
        per_db: Dict[str, DbClassParams] = {}
        for db_name in db_names:
            local_cls = schema.constituent_class(db_name, class_name)
            if local_cls is None:
                per_db[db_name] = DbClassParams(
                    n_objects=0, n_local_pred_attrs=0,
                    n_target_attrs=0, r_missing=0.0,
                )
                continue
            db = system.db(db_name)
            cdef = db.schema.cls(local_cls)
            defined = [a for a in pred_attrs if cdef.has_attribute(a)]
            sample = _sampled_null_ratio(db, local_cls, defined)
            if sample.clamped:
                notes.append(
                    f"null-ratio clamp: {db_name}.{local_cls} "
                    f"raw={sample.raw_ratio:.3f} -> {NULL_RATIO_CAP}"
                )
            per_db[db_name] = DbClassParams(
                n_objects=db.count(local_cls),
                n_local_pred_attrs=len(defined),
                n_target_attrs=1,
                r_missing=sample.ratio,
            )
        classes.append(
            ClassParams(
                n_predicates=max(len(pred_attrs), 0),
                r_referenced=1.0,
                per_db=per_db,
            )
        )
    return WorkloadParams(db_names=db_names, classes=classes), tuple(notes)


def _sampled_null_ratio(
    db, class_name: str, attributes: List[str]
) -> NullRatioSample:
    """Estimate the null fraction among *attributes* over an extent.

    Samples a deterministic stride across the *whole* extent — index
    ``(i * n) // sample_n`` for ``i`` in ``range(sample_n)`` — instead
    of the first ``NULL_SAMPLE_SIZE`` objects.  First-N sampling read
    the extent in insertion order, so a null-skewed tail (e.g. a bulk
    import of partially-populated objects appended after a clean seed)
    was invisible and AUTO picked strategies against a phantom
    fully-populated federation.
    """
    if not attributes:
        return NullRatioSample(0.0, 0.0, False, 0)
    objects = list(db.extent(class_name).values())
    n = len(objects)
    if n == 0:
        return NullRatioSample(0.0, 0.0, False, 0)
    sample_n = min(n, NULL_SAMPLE_SIZE)
    seen = 0
    nulls = 0
    sampled = 0
    for i in range(sample_n):
        obj = objects[(i * n) // sample_n]
        sampled += 1
        for attr in attributes:
            seen += 1
            if is_null(obj.get(attr)):
                nulls += 1
    raw = nulls / seen
    return NullRatioSample(min(raw, NULL_RATIO_CAP), raw, raw > NULL_RATIO_CAP, sampled)


@dataclass(frozen=True)
class Prediction:
    """What one :meth:`AdaptiveStrategy.predict` call concluded.

    Attributes:
        predictions: strategy name -> predicted seconds for the
            strategy's objective (CA already penalized).
        unreachable: sites the fault plan makes unreachable at dispatch.
        notes: estimation notes (e.g. null-ratio clamps).
    """

    predictions: Dict[str, float]
    unreachable: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()


class AdaptiveStrategy(Strategy):
    """Pick CA/BL/PL per query with the analytic model, then execute."""

    name = "AUTO"

    def __init__(self, objective: str = "response") -> None:
        if objective not in ("response", "total"):
            raise QueryError(
                f"objective must be 'response' or 'total', not {objective!r}"
            )
        self.objective = objective

    @staticmethod
    def _unreachable_sites(
        system: DistributedSystem, ctx: ExecutionContext
    ) -> Tuple[str, ...]:
        """Sites the fault plan makes unreachable at dispatch time.

        Read from the *plan* only (down at t=0, or a link from the
        global site whose composed loss makes delivery hopeless):
        probing via ``ctx.contact`` here would consume negotiation
        outcomes before the delegate runs and corrupt the execution's
        availability bookkeeping.
        """
        if not ctx.active:
            return ()
        down: List[str] = []
        for site in system.site_names:
            if ctx.plan.is_down(site, 0.0):
                down.append(site)
                continue
            _, loss = ctx.plan.link(system.global_site, site)
            if loss >= 0.99:
                down.append(site)
        return tuple(down)

    def predict(
        self,
        system: DistributedSystem,
        query: Query,
        ctx: ExecutionContext,
    ) -> Prediction:
        """Analytic per-strategy predictions for the chosen objective.

        Signature variants join the ranking when the federation has
        already built its signature catalog (their indexing cost is then
        sunk).  Under a fault plan, CA's prediction is penalized per
        unreachable site: centralized collection stalls on the retry
        ladder of every dead export, while the localized strategies
        degrade that site to a partial answer and move on.
        """
        params, notes = extract_params_ex(system, query)
        model = AnalyticModel(
            params,
            cost_model=system.cost_model,
            shared_network=system.shared_network,
        )
        outcomes = model.evaluate_all(
            include_signatures=system.signatures is not None
        )
        if self.objective == "response":
            predictions = {n: o.response_time for n, o in outcomes.items()}
        else:
            predictions = {n: o.total_time for n, o in outcomes.items()}
        unreachable = self._unreachable_sites(system, ctx)
        if unreachable and "CA" in predictions:
            predictions["CA"] *= 1e3 * len(unreachable)
        return Prediction(predictions, unreachable, notes)

    def execute(
        self,
        system: DistributedSystem,
        query: Query,
        ctx: ExecutionContext,
        resume=None,
    ) -> StrategyResult:
        from repro.core.strategies.registry import resolve
        from repro.obs.spans import TraceEvent

        if resume is not None:
            # The degraded run chose already; a repair resumes its pick.
            return resolve(resume.strategy).execute(system, query, ctx, resume)
        predicted = self.predict(system, query, ctx)
        predictions = predicted.predictions
        choice = min(predictions, key=predictions.get)
        # The delegate runs under the very same context, so every
        # option of this execution reaches it.
        result = resolve(choice).execute(system, query, ctx)
        result.metrics.strategy = f"AUTO->{choice}"
        result.metrics.add_event(TraceEvent.of(
            "auto.predict",
            choice=choice,
            objective=self.objective,
            planner=ctx.options.planner,
            unreachable=",".join(predicted.unreachable) or "none",
            notes="; ".join(predicted.notes) or "none",
            **{f"predicted_{name}_s": f"{value:.6f}"
               for name, value in sorted(predictions.items())},
        ))
        # Misprediction accounting: compare the chosen strategy's actual
        # cost against every prediction.  rank_of_actual == 1 means the
        # measured outcome still beat all rival *predictions*; anything
        # higher flags a pick the model would regret in hindsight.
        if self.objective == "response":
            actual = result.metrics.response_time
        else:
            actual = result.metrics.total_time
        rank_of_actual = 1 + sum(
            1 for name, value in predictions.items()
            if name != choice and value < actual
        )
        result.metrics.add_event(TraceEvent.of(
            "auto.outcome",
            choice=choice,
            predicted_s=f"{predictions[choice]:.6f}",
            actual_s=f"{actual:.6f}",
            rank_of_actual=str(rank_of_actual),
            mispredicted=str(rank_of_actual > 1).lower(),
        ))
        return result
