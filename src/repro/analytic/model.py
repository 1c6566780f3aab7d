"""Parameter-driven (analytic) simulation of the three strategies.

The paper's own performance study never materializes databases: it draws
Table 2 parameter sets and estimates total execution time and response
time from expected object counts and the Table 1 costs.  This module
reproduces that methodology.  For each strategy it computes the expected
work at every site — objects scanned, predicates evaluated, mapping
lookups, assistants dispatched and checked, bytes shipped — and schedules
the same activity-graph topology the concrete strategies build, on the
same :class:`~repro.sim.taskgraph.FederationSim`.  Total time and
response time therefore come out of one consistent cost model, and the
analytic predictions can be cross-validated against concrete executions
(see ``benchmarks/bench_ablation_model_vs_des.py``).

Modelling choices (documented deviations are calibration, not shape):

* every strategy-relevant count is an expectation (continuous, not
  sampled);
* reference chains are walkable per hop with probability ``REACH``
  (matching the generator's co-location bias);
* an unanswerable unsolved predicate leaves a maybe result, an assistant
  verdict resolves it; chase rounds are second-order and ignored;
* each object has ``0.1 * (N_db - 1)`` assistants on average, the
  placement model behind Table 2's ``R_iso = 1 - 0.9^(N_db-1)`` law;
* assistant retrievals are random fetches and pay the seek overhead
  (``CostModel.disk_seek_s``), while extent scans are sequential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.sim.costs import CostModel, PAPER_COSTS
from repro.sim.metrics import WorkCounters
from repro.sim.taskgraph import (
    FederationSim,
    PHASE_I,
    PHASE_O,
    PHASE_P,
    PHASE_SCAN,
)
from repro.workload.params import WorkloadParams

#: Per-hop probability that a reference chain step is locally walkable
#: (mirrors the generator's CO_LOCATION_BIAS).
REACH = 0.85

#: Name of the simulated global processing site.
GLOBAL_SITE = "GPS"


@dataclass
class SiteLoad:
    """Expected per-site work of one localized strategy execution."""

    scan_bytes: float = 0.0
    eval_comparisons: float = 0.0
    probe_comparisons: float = 0.0      # PL's missing-data probes
    mapping_lookups: float = 0.0
    survivors: float = 0.0
    maybe_rows: float = 0.0
    result_bytes: float = 0.0
    checks_dispatched: float = 0.0      # assistants this site asks others about
    eval_extra_bytes: float = 0.0       # PL's marginal evaluation reads


@dataclass
class AnalyticOutcome:
    """Expected metrics of one strategy on one parameter set."""

    strategy: str
    total_time: float
    response_time: float
    work: WorkCounters = field(default_factory=WorkCounters)


class AnalyticModel:
    """Expected-cost evaluation of CA/BL/PL for a Table 2 parameter set."""

    def __init__(
        self,
        params: WorkloadParams,
        cost_model: CostModel = PAPER_COSTS,
        shared_network: bool = True,
        root_selectivity: Optional[float] = None,
    ) -> None:
        self.params = params
        self.cost = cost_model
        self.shared_network = shared_network
        #: Optional override of the local predicates' selectivity on the
        #: root class (the paper's Figure 11 sweeps it).
        self.root_selectivity = root_selectivity

    # --- shared shape quantities ------------------------------------------

    def _attrs_involved(self, k: int, db_name: Optional[str] = None) -> float:
        """Attributes of class k the query touches at one site.

        A site stores (and exports) only the predicate attributes its own
        constituent defines — N_pa^{i,k} of them — plus the key, one
        target, and the reference.  With ``db_name=None`` the N_db
        average is used (for work executed at assistants' sites).
        """
        cls = self.params.classes[k]
        if db_name is None:
            pred_attrs = sum(
                cls.per_db[db].n_local_pred_attrs for db in self.params.db_names
            ) / len(self.params.db_names)
        else:
            pred_attrs = float(cls.per_db[db_name].n_local_pred_attrs)
        n = 1.0 + 1.0 + pred_attrs  # key + t0 + local predicate attributes
        if k < self.params.n_classes - 1:
            n += 1.0  # ref
        return n

    def _object_bytes(self, k: int, db_name: Optional[str] = None) -> float:
        return self.cost.object_bytes(self._attrs_involved(k, db_name))

    def _branch_bytes(self) -> float:
        if self.params.n_classes <= 1:
            return 0.0
        sizes = [self._object_bytes(k) for k in range(1, self.params.n_classes)]
        return sum(sizes) / len(sizes)

    def _reach(self, k: int) -> float:
        return REACH ** k

    def _local_combined_selectivity(self, db_name: str, k: int) -> float:
        sel = self.params.classes[k].local_selectivity(db_name)
        if k == 0 and self.root_selectivity is not None:
            n_pa = self.params.classes[0].per_db[db_name].n_local_pred_attrs
            if n_pa > 0:
                sel = self.root_selectivity
        return sel

    def _null_prob(self, db_name: str, k: int) -> float:
        return self.params.classes[k].per_db[db_name].r_missing

    def _survive_prob(self, db_name: str) -> float:
        """P(no local predicate FALSE) for one root object at db_name."""
        prob = 1.0
        for k, cls in enumerate(self.params.classes):
            q = cls.per_db[db_name].n_local_pred_attrs
            if q == 0:
                continue
            sel_combined = self._local_combined_selectivity(db_name, k)
            per_pred = sel_combined ** (1.0 / q)
            m = self._null_prob(db_name, k)
            false_prob = self._reach(k) * (1.0 - m) * (1.0 - per_pred)
            prob *= (1.0 - false_prob) ** q
        return prob

    def _certain_prob(self, db_name: str) -> float:
        """P(every predicate TRUE locally) for one root object."""
        prob = 1.0
        for k, cls in enumerate(self.params.classes):
            q = cls.per_db[db_name].n_local_pred_attrs
            if cls.n_predicates > q:
                return 0.0  # removed predicates keep every row maybe
            if q == 0:
                continue
            sel_combined = self._local_combined_selectivity(db_name, k)
            per_pred = sel_combined ** (1.0 / q)
            m = self._null_prob(db_name, k)
            prob *= (self._reach(k) * (1.0 - m) * per_pred) ** q
        return prob

    def _item_rate(self, db_name: str, k: int) -> float:
        """Expected unsolved items on class k per root object (k >= 1)."""
        cls = self.params.classes[k]
        removed = cls.n_predicates - cls.per_db[db_name].n_local_pred_attrs
        local = cls.per_db[db_name].n_local_pred_attrs
        m = self._null_prob(db_name, k)
        rate = 0.0
        if removed > 0:
            rate += 1.0
        elif local > 0:
            rate += min(1.0, local * m)
        return rate * self._reach(k)

    def _root_unsolved_rate(self, db_name: str) -> float:
        """Expected unsolved predicates sitting on the root object."""
        cls = self.params.classes[0]
        removed = cls.n_predicates - cls.per_db[db_name].n_local_pred_attrs
        local = cls.per_db[db_name].n_local_pred_attrs
        rate = float(removed) + local * self._null_prob(db_name, 0)
        # Blocked references also park nested predicates on the root.
        for k in range(1, self.params.n_classes):
            nested = self.params.classes[k].n_predicates
            rate += nested * (1.0 - self._reach(k))
        return rate

    def _answer_fraction(self, k: int) -> float:
        """Fraction of assistants whose site can advance a class-k check."""
        cls = self.params.classes[k]
        if cls.n_predicates == 0:
            return 0.0
        total = sum(
            cls.per_db[db].n_local_pred_attrs for db in self.params.db_names
        )
        frac = total / (len(self.params.db_names) * cls.n_predicates)
        return max(frac, 1.0 / len(self.params.db_names))

    def _assistants_per_object(self) -> float:
        """Expected isomeric copies of one object at other sites.

        Table 2's R_iso law corresponds to per-site replica probability
        0.1 (see the generator), so an object has ``0.1 * (N_db - 1)``
        assistants on average — the count that "will increase as the
        number of component databases increases" (Section 4.2).
        """
        return 0.1 * (self.params.n_dbs - 1)

    def _branch_read_bytes(self, db_name: str, probe_only: bool) -> float:
        """Expected branch-object disk bytes of one site's pass.

        Reads are capped at each branch extent's size: walks revisit
        objects, but a buffered extent is read from disk once (the same
        one-pass charge CA's export pays).
        """
        n_root = self.params.classes[0].per_db[db_name].n_objects
        total = 0.0
        for k in range(1, self.params.n_classes):
            cls = self.params.classes[k]
            if probe_only:
                walks = float(cls.n_predicates)
            else:
                walks = cls.per_db[db_name].n_local_pred_attrs + 1.0  # + target
            reads = min(
                n_root * walks * self._reach(k),
                float(cls.per_db[db_name].n_objects),
            )
            total += reads * self._object_bytes(k, db_name)
        return total

    # --- strategies -----------------------------------------------------------

    def evaluate(self, strategy: str) -> AnalyticOutcome:
        """Expected metrics for one strategy.

        Knows "CA", "BL", "PL" and the signature variants "BL-S"/"PL-S"
        (assistant checks pre-filtered by replicated signatures: only the
        R_ss fraction passes and is transferred/checked; the rest resolve
        locally at one signature comparison each — Table 2's R_ss).
        """
        strategy = strategy.upper()
        if strategy == "CA":
            return self._evaluate_ca()
        if strategy in ("BL", "PL"):
            return self._evaluate_localized(strategy)
        if strategy in ("BL-S", "PL-S"):
            return self._evaluate_localized(strategy[:2], use_signatures=True)
        raise ValueError(
            f"analytic model knows CA/BL/PL/BL-S/PL-S, not {strategy!r}"
        )

    def evaluate_all(
        self, include_signatures: bool = False
    ) -> Dict[str, AnalyticOutcome]:
        """Expected metrics for every strategy the model can rank.

        ``include_signatures`` adds BL-S/PL-S — only meaningful when the
        federation has actually built its signature catalogs, so callers
        (the adaptive selector) gate it on that.
        """
        names = ("CA", "BL", "PL")
        if include_signatures:
            names = names + ("BL-S", "PL-S")
        return {name: self.evaluate(name) for name in names}

    def _signature_pass_rate(self) -> float:
        """Average fraction of assistants the signature filter passes.

        Table 2 models the signature filter's selectivity as R_ss^{i,k};
        we average it over the sites and classes that actually produce
        unsolved predicates.
        """
        rates = []
        for k, cls in enumerate(self.params.classes):
            for db_name in self.params.db_names:
                if cls.unsolved_count(db_name) > 0:
                    rates.append(cls.signature_selectivity(db_name))
        return sum(rates) / len(rates) if rates else 1.0

    def _fed(self) -> FederationSim:
        return FederationSim(
            sites=self.params.db_names,
            global_site=GLOBAL_SITE,
            cost_model=self.cost,
            shared_network=self.shared_network,
        )

    def _evaluate_ca(self) -> AnalyticOutcome:
        fed = self._fed()
        work = WorkCounters()
        ship_nodes = []
        total_objects = 0.0
        for db_name in self.params.db_names:
            site_bytes = 0.0
            site_objects = 0.0
            for k, cls in enumerate(self.params.classes):
                n = cls.per_db[db_name].n_objects
                site_objects += n
                site_bytes += n * self._object_bytes(k, db_name)
            total_objects += site_objects
            work.objects_scanned += int(site_objects)
            work.objects_shipped += int(site_objects)
            work.bytes_disk += int(site_bytes)
            work.bytes_network += int(site_bytes)
            scan = fed.disk(db_name, site_bytes, "scan", PHASE_SCAN)
            project = fed.cpu(
                db_name, site_objects, "project", PHASE_SCAN, [scan]
            )
            ship_nodes.append(
                fed.transfer(db_name, GLOBAL_SITE, site_bytes, "ship", [project])
            )
        # Outerjoin: one hash probe per shipped object + one mapping-table
        # probe per stored reference.
        references = sum(
            cls.per_db[db].n_objects
            for k, cls in enumerate(self.params.classes)
            if k < self.params.n_classes - 1
            for db in self.params.db_names
        )
        join_cmp = total_objects + references
        # Root entities after integration.
        copies = self.params.r_iso * 2.0 + (1.0 - self.params.r_iso)
        root_entities = (
            sum(
                self.params.classes[0].per_db[db].n_objects
                for db in self.params.db_names
            )
            / copies
        )
        eval_cmp = root_entities * max(1, self.params.total_predicates())
        work.comparisons += int(join_cmp + eval_cmp)
        integrate = fed.cpu(
            GLOBAL_SITE, join_cmp, "outerjoin", PHASE_I, ship_nodes
        )
        fed.cpu(GLOBAL_SITE, eval_cmp, "evaluate", PHASE_P, [integrate])
        outcome = fed.run()
        return AnalyticOutcome(
            strategy="CA",
            total_time=outcome.total_time,
            response_time=outcome.response_time,
            work=work,
        )

    def _site_load(self, db_name: str, strategy: str) -> SiteLoad:
        load = SiteLoad()
        cls0 = self.params.classes[0]
        n = cls0.per_db[db_name].n_objects
        root_bytes = self._object_bytes(0, db_name)

        eval_read_bytes = self._branch_read_bytes(db_name, probe_only=False)
        local_preds = sum(
            self.params.classes[k].per_db[db_name].n_local_pred_attrs
            for k in range(self.params.n_classes)
        )
        load.eval_comparisons = n * max(local_preds, 1)
        load.survivors = n * self._survive_prob(db_name)
        certain = n * self._certain_prob(db_name)
        load.maybe_rows = max(load.survivors - certain, 0.0)

        assistants = self._assistants_per_object()
        if strategy == "BL":
            load.scan_bytes = n * root_bytes + eval_read_bytes
            base = load.maybe_rows
        else:  # PL
            probe_read_bytes = self._branch_read_bytes(db_name, probe_only=True)
            load.scan_bytes = n * root_bytes + probe_read_bytes
            load.eval_extra_bytes = max(eval_read_bytes - probe_read_bytes, 0.0)
            load.probe_comparisons = n * max(self.params.total_predicates(), 1)
            base = n  # every object's missing data is probed

        checks = 0.0
        lookups = 0.0
        for k in range(1, self.params.n_classes):
            rate = self._item_rate(db_name, k)
            items = base * rate
            lookups += items * (1.0 + assistants)
            checks += items * assistants * self._answer_fraction(k)
        load.mapping_lookups = lookups
        load.checks_dispatched = checks

        # Result shipment: every surviving row ships bindings; maybe rows
        # add unsolved metadata.
        targets = self.params.n_classes + 1
        unsolved_meta = self._root_unsolved_rate(db_name) + sum(
            self._item_rate(db_name, k) for k in range(1, self.params.n_classes)
        )
        load.result_bytes = load.survivors * self.cost.row_bytes(targets) + (
            load.maybe_rows * unsolved_meta * self.cost.attribute_bytes
        )
        return load

    def _evaluate_localized(
        self, strategy: str, use_signatures: bool = False
    ) -> AnalyticOutcome:
        fed = self._fed()
        work = WorkCounters()
        certify_deps = []
        branch_bytes = self._branch_bytes()
        n_dbs = self.params.n_dbs
        sig_pass = self._signature_pass_rate() if use_signatures else 1.0
        unsolved_per_check = max(
            1.0,
            sum(
                max(
                    self.params.classes[k].n_predicates
                    - self.params.classes[k].per_db[db].n_local_pred_attrs
                    for db in self.params.db_names
                )
                for k in range(1, self.params.n_classes)
            )
            / max(1, self.params.n_classes - 1),
        ) if self.params.n_classes > 1 else 1.0

        total_survivors = 0.0
        incoming_checks: Dict[str, float] = {db: 0.0 for db in self.params.db_names}
        loads: Dict[str, SiteLoad] = {}
        for db_name in self.params.db_names:
            load = self._site_load(db_name, strategy)
            if use_signatures:
                # Pre-filter assistants against replicated signatures:
                # one comparison per candidate; only R_ss pass and ship.
                sig_comparisons = load.checks_dispatched
                load.mapping_lookups += sig_comparisons
                work.signature_comparisons += int(sig_comparisons)
                load.checks_dispatched *= sig_pass
            loads[db_name] = load
            total_survivors += load.survivors
            if n_dbs > 1:
                share = load.checks_dispatched / (n_dbs - 1)
                for other in self.params.db_names:
                    if other != db_name:
                        incoming_checks[other] += share

        for db_name in self.params.db_names:
            load = loads[db_name]
            work.objects_scanned += int(
                self.params.classes[0].per_db[db_name].n_objects
            )
            work.bytes_disk += int(load.scan_bytes + load.eval_extra_bytes)
            work.comparisons += int(
                load.eval_comparisons
                + load.probe_comparisons
                + load.mapping_lookups
            )
            work.assistants_looked_up += int(load.checks_dispatched)

            if strategy == "BL":
                scan = fed.disk(
                    db_name, load.scan_bytes, "BL_C1 scan", PHASE_SCAN
                )
                evaluate = fed.cpu(
                    db_name, load.eval_comparisons, "BL_C1 eval",
                    PHASE_P, [scan],
                )
                dispatch = fed.cpu(
                    db_name, load.mapping_lookups, "BL_C2 lookup",
                    PHASE_O, [evaluate],
                )
                ship_from = dispatch
            else:
                scan = fed.disk(
                    db_name, load.scan_bytes, "PL_C1 scan", PHASE_SCAN
                )
                dispatch = fed.cpu(
                    db_name,
                    load.probe_comparisons + load.mapping_lookups,
                    "PL_C1 lookup",
                    PHASE_O,
                    [scan],
                )
                eval_read = fed.disk(
                    db_name, load.eval_extra_bytes, "PL_C2 read",
                    PHASE_SCAN, [dispatch],
                )
                ship_from = fed.cpu(
                    db_name, load.eval_comparisons, "PL_C2 eval",
                    PHASE_P, [eval_read],
                )

            work.bytes_network += int(load.result_bytes)
            certify_deps.append(
                fed.transfer(
                    db_name, GLOBAL_SITE, load.result_bytes, "results",
                    [ship_from],
                )
            )

            # One aggregated check exchange per peer site.
            if n_dbs > 1 and load.checks_dispatched > 0:
                share = load.checks_dispatched / (n_dbs - 1)
                for other in self.params.db_names:
                    if other == db_name:
                        continue
                    request_bytes = self.cost.check_request_bytes(
                        max(1, int(math.ceil(share))), int(unsolved_per_check)
                    )
                    reply_bytes = self.cost.check_reply_bytes(
                        max(1, int(math.ceil(share)))
                    )
                    work.bytes_network += request_bytes + reply_bytes
                    work.assistants_checked += int(share)
                    check_cmp = share * unsolved_per_check
                    work.comparisons += int(check_cmp)
                    check_bytes = share * branch_bytes
                    work.bytes_disk += int(check_bytes)
                    send = fed.transfer(
                        db_name, other, request_bytes, "check-req",
                        [dispatch],
                    )
                    read = fed.disk(
                        other, check_bytes, "check read", PHASE_O,
                        [send], seeks=share,
                    )
                    evaluated = fed.cpu(
                        other, check_cmp, "check eval", PHASE_O, [read]
                    )
                    certify_deps.append(
                        fed.transfer(
                            other, GLOBAL_SITE, reply_bytes, "check-reply",
                            [evaluated],
                        )
                    )

        certify_cmp = total_survivors * max(1, self.params.total_predicates())
        work.comparisons += int(certify_cmp)
        fed.cpu(GLOBAL_SITE, certify_cmp, "certify", PHASE_I, certify_deps)
        outcome = fed.run()
        return AnalyticOutcome(
            strategy=strategy,
            total_time=outcome.total_time,
            response_time=outcome.response_time,
            work=work,
        )
