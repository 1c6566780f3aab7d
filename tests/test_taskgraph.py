"""Unit tests for activity-graph scheduling over the simulated federation."""

import pytest

from helpers import SCHEDULER_MUTATIONS, add_nodes, wrong_scheduler
from repro.difftest.schedule import schedule_violation
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan, OutageWindow
from repro.sim.costs import CostModel
from repro.sim.taskgraph import (
    FederationSim,
    PHASE_I,
    PHASE_O,
    PHASE_P,
    PHASE_SCAN,
    PHASE_XFER,
)

#: Simple costs for readable arithmetic: 1 s/byte disk, 1 s/byte net,
#: 1 s/comparison cpu, no seek.
UNIT = CostModel(
    disk_s_per_byte=1.0,
    net_s_per_byte=1.0,
    cpu_s_per_comparison=1.0,
    disk_seek_s=0.0,
)


def fed(**kwargs):
    return FederationSim(["A", "B"], global_site="G", cost_model=UNIT, **kwargs)


class TestBasics:
    def test_single_activity(self):
        f = fed()
        f.cpu("A", comparisons=5)
        outcome = f.run()
        assert outcome.total_time == 5
        assert outcome.response_time == 5

    def test_chain_adds_up(self):
        f = fed()
        a = f.disk("A", nbytes=3)
        b = f.cpu("A", comparisons=4, deps=[a])
        f.transfer("A", "G", nbytes=2, deps=[b])
        outcome = f.run()
        assert outcome.total_time == 9
        assert outcome.response_time == 9

    def test_parallel_sites_overlap(self):
        f = fed()
        f.cpu("A", comparisons=5)
        f.cpu("B", comparisons=5)
        outcome = f.run()
        assert outcome.total_time == 10
        assert outcome.response_time == 5

    def test_same_site_serializes(self):
        f = fed()
        f.cpu("A", comparisons=5)
        f.cpu("A", comparisons=5)
        outcome = f.run()
        assert outcome.response_time == 10

    def test_cpu_and_disk_are_distinct_devices(self):
        f = fed()
        f.cpu("A", comparisons=5)
        f.disk("A", nbytes=5)
        outcome = f.run()
        assert outcome.response_time == 5

    def test_barrier_is_free(self):
        f = fed()
        a = f.cpu("A", comparisons=1)
        b = f.cpu("B", comparisons=2)
        bar = f.barrier([a, b])
        f.cpu("G", comparisons=3, deps=[bar])
        outcome = f.run()
        assert outcome.response_time == 5


class TestNetworkContention:
    def test_shared_channel_serializes(self):
        f = fed(shared_network=True)
        f.transfer("A", "G", nbytes=4)
        f.transfer("B", "G", nbytes=4)
        outcome = f.run()
        assert outcome.response_time == 8

    def test_private_channels_overlap(self):
        f = fed(shared_network=False)
        f.transfer("A", "G", nbytes=4)
        f.transfer("B", "G", nbytes=4)
        outcome = f.run()
        assert outcome.response_time == 4

    def test_total_time_ignores_contention(self):
        for shared in (True, False):
            f = fed(shared_network=shared)
            f.transfer("A", "G", nbytes=4)
            f.transfer("B", "G", nbytes=4)
            assert f.run().total_time == 8


class TestAccounting:
    def test_phase_breakdown(self):
        f = fed()
        scan = f.disk("A", nbytes=2, phase=PHASE_SCAN)
        evaluate = f.cpu("A", comparisons=3, phase=PHASE_P, deps=[scan])
        ship = f.transfer("A", "G", nbytes=4, deps=[evaluate])
        f.cpu("G", comparisons=5, phase=PHASE_I, deps=[ship])
        outcome = f.run()
        assert outcome.phase_time[PHASE_SCAN] == 2
        assert outcome.phase_time[PHASE_P] == 3
        assert outcome.phase_time[PHASE_XFER] == 4
        assert outcome.phase_time[PHASE_I] == 5

    def test_bytes_transferred(self):
        f = fed()
        f.transfer("A", "G", nbytes=7)
        assert f.run().bytes_transferred == 7

    def test_site_busy(self):
        f = fed()
        f.cpu("A", comparisons=2)
        f.disk("A", nbytes=3)
        f.cpu("B", comparisons=4)
        outcome = f.run()
        assert outcome.site_busy["A"] == 5
        assert outcome.site_busy["B"] == 4

    def test_seeks_add_time(self):
        model = CostModel(disk_s_per_byte=0.0, disk_seek_s=2.0)
        f = FederationSim(["A"], global_site="G", cost_model=model)
        f.disk("A", nbytes=100, seeks=3)
        assert f.run().total_time == pytest.approx(6.0)


class TestValidation:
    def test_unknown_site_rejected(self):
        f = fed()
        with pytest.raises(SimulationError):
            f.cpu("Z", comparisons=1)

    def test_negative_duration_rejected(self):
        f = fed()
        with pytest.raises(SimulationError):
            f.cpu("A", comparisons=-1)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, seconds):
        """A NaN duration used to pass ``seconds < 0``, poison the heap
        order and return a schedule with a dependent starting before its
        dependency finished (``total_time`` nan, no error)."""
        f = fed()
        for add in (
            lambda: f.cpu("A", comparisons=seconds),
            lambda: f.disk("A", nbytes=seconds),
            lambda: f.delay("A", seconds),
        ):
            with pytest.raises(SimulationError, match="non-finite duration"):
                add()
        f.cpu("A", comparisons=1)
        assert f.run().total_time == 1

    def test_run_twice_rejected(self):
        f = fed()
        f.cpu("A", comparisons=1)
        f.run()
        with pytest.raises(SimulationError):
            f.run()

    def test_add_after_run_rejected(self):
        f = fed()
        f.cpu("A", comparisons=1)
        f.run()
        with pytest.raises(SimulationError):
            f.cpu("A", comparisons=1)

    def test_global_site_always_present(self):
        f = FederationSim(["A"], global_site="G", cost_model=UNIT)
        assert "G" in f.sites


class TestOutages:
    """A site device inherits its site's outage windows; a network
    channel does not — whatever the site is called."""

    @pytest.mark.parametrize("shared_network", [True, False])
    @pytest.mark.parametrize("site", ["DB1", "netlab"])
    def test_a_down_site_does_not_work(self, site, shared_network):
        f = FederationSim(
            [site, "B"], global_site="G", cost_model=UNIT,
            shared_network=shared_network,
            fault_plan=FaultPlan(outages=(OutageWindow(site, 0, 5),)),
        )
        work = f.cpu(site, comparisons=1)
        scan = f.disk(site, nbytes=1)
        elsewhere = f.transfer("B", "G", nbytes=2)
        ship = f.transfer(site, "G", nbytes=3, deps=[work])
        outcome = f.run()
        assert (work.start, scan.start) == (5.0, 5.0)
        # The channel itself is never down: other sites use it meanwhile,
        # and the down site's own transfer only waits for its endpoint.
        assert elsewhere.start == 0.0
        assert ship.start == 6.0
        assert outcome.bytes_transferred == 5
        assert outcome.site_busy == {site: 2.0}
        assert outcome.resource_wait[f"{site}:cpu"] == 5.0


def _g_down_for(seconds):
    return FaultPlan(outages=(OutageWindow("G", 0, seconds),))


# One graph per clause of the scheduling contract (the taskgraph module
# docstring): (kind, site, duration, dependencies) per node, the fault
# plan, and every node's start.  Each is scheduled differently by the
# wrong scheduler of the same name in ``helpers.SCHEDULER_MUTATIONS``.
HOP_ORDER_GRAPHS = {
    "released-before-drained-grant": (
        [
            ("barrier", "G", 0, []),
            ("barrier", "G", 0, []),
            ("delay", "A", 0, [0]),
            ("cpu", "G", 0, [0, 1, 2]),
            ("cpu", "G", 2, [1]),
            ("barrier", "G", 0, [0, 2, 3]),
        ],
        None,
        [0.0, 0.0, 0.0, 2.0, 0.0, 2.0],
    ),
    "fifo-before-due-heap": (
        [
            ("delay", "A", 0, []),
            ("transfer", "G", 0, []),
            ("transfer", "A", 2, [0]),
            ("transfer", "A", 2, [1]),
        ],
        _g_down_for(2),
        [0.0, 2.0, 2.0, 4.0],
    ),
    "zero-duration-to-heap": (
        [
            ("delay", "A", 0, []),
            ("cpu", "A", 0, []),
            ("delay", "A", 0, [0]),
            ("cpu", "G", 1, [2]),
            ("cpu", "G", 2, [1]),
        ],
        None,
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ),
    "no-released-hop": (
        [
            ("transfer", "A", 1, []),
            ("barrier", "G", 0, []),
            ("delay", "A", 1, [1]),
            ("transfer", "G", 1, [0, 2]),
            ("transfer", "G", 1, [0]),
        ],
        None,
        [0.0, 0.0, 0.0, 1.0, 2.0],
    ),
    "lifo-device": (
        [("cpu", "G", 0, []), ("cpu", "G", 1, []), ("cpu", "G", 0, [0, 1])],
        _g_down_for(1),
        [1.0, 1.0, 2.0],
    ),
}


def hop_order_graph(name):
    spec, plan, _starts = HOP_ORDER_GRAPHS[name]
    return add_nodes(
        fed(fault_plan=plan),
        [(kind, site, "G", seconds, deps) for kind, site, seconds, deps in spec],
    )


class TestHopOrder:
    def test_every_mutation_has_its_graph(self):
        assert set(HOP_ORDER_GRAPHS) == set(SCHEDULER_MUTATIONS)

    @pytest.mark.parametrize("name", sorted(HOP_ORDER_GRAPHS))
    def test_ties_resolve_as_on_the_kernel(self, name):
        """The pinned starts are those the generic event kernel, the
        scheduler before the flat loop, gave each graph."""
        graph = hop_order_graph(name)
        outcome = graph.run()
        assert [n.start for n in outcome.scheduled] == HOP_ORDER_GRAPHS[name][2]
        assert schedule_violation(outcome, graph.fault_plan) is None

    @pytest.mark.parametrize("name", sorted(HOP_ORDER_GRAPHS))
    def test_a_wrong_hop_order_shows(self, name):
        outcome = wrong_scheduler(name)(hop_order_graph(name))
        assert [n.start for n in outcome.scheduled] != HOP_ORDER_GRAPHS[name][2]
