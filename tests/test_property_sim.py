"""Property tests: scheduling invariants of the DES over random graphs.

For arbitrary layered activity graphs:

* total time equals the sum of node durations (contention-free);
* response time is at least the longest single node and the critical
  path lower bound, and at most the total;
* scheduling is deterministic;
* with all work on one resource, response equals total (full serialization);
* the flat loop of ``FederationSim.run`` keeps every clause of the
  scheduling contract (:func:`repro.difftest.schedule.schedule_violation`)
  on graphs with contended devices, outages and stalled transfers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import add_nodes
from repro.difftest.schedule import schedule_violation
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan, LinkFault, OutageWindow
from repro.sim.costs import CostModel
from repro.sim.taskgraph import FederationSim

UNIT = CostModel(
    disk_s_per_byte=1.0, net_s_per_byte=1.0,
    cpu_s_per_comparison=1.0, disk_seek_s=0.0,
)

SITES = ("A", "B", "C")

# A graph spec: layers of (site index, kind, duration) tuples; every node
# depends on all nodes of the previous layer.
node_spec = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["cpu", "disk"]),
    st.integers(min_value=0, max_value=9),
)
graph_spec = st.lists(
    st.lists(node_spec, min_size=1, max_size=4), min_size=1, max_size=4
)


def build(spec):
    fed = FederationSim(SITES, global_site="G", cost_model=UNIT)
    previous = []
    durations = []
    layer_maxes = []
    for layer in spec:
        current = []
        layer_durs = []
        for site_index, kind, duration in layer:
            site = SITES[site_index]
            if kind == "cpu":
                node = fed.cpu(site, comparisons=duration, deps=previous)
            else:
                node = fed.disk(site, nbytes=duration, deps=previous)
            current.append(node)
            durations.append(duration)
            layer_durs.append(duration)
        layer_maxes.append(max(layer_durs))
        previous = current
    return fed, durations, layer_maxes


@settings(max_examples=100, deadline=None)
@given(graph_spec)
def test_total_is_sum_of_durations(spec):
    fed, durations, _maxes = build(spec)
    outcome = fed.run()
    assert outcome.total_time == pytest.approx(sum(durations))


@settings(max_examples=100, deadline=None)
@given(graph_spec)
def test_response_bounds(spec):
    fed, durations, layer_maxes = build(spec)
    outcome = fed.run()
    # Lower bounds: the critical path through layer barriers, and any
    # single node.  Upper bound: complete serialization.
    assert outcome.response_time >= sum(layer_maxes) - 1e-9
    assert outcome.response_time >= max(durations) - 1e-9
    assert outcome.response_time <= sum(durations) + 1e-9


@settings(max_examples=50, deadline=None)
@given(graph_spec)
def test_deterministic(spec):
    first = build(spec)[0].run()
    second = build(spec)[0].run()
    assert first.response_time == second.response_time
    assert first.total_time == second.total_time


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8))
def test_single_resource_serializes(durations):
    fed = FederationSim(["A"], global_site="G", cost_model=UNIT)
    for duration in durations:
        fed.cpu("A", comparisons=duration)
    outcome = fed.run()
    assert outcome.response_time == pytest.approx(sum(durations))
    assert outcome.total_time == pytest.approx(sum(durations))


# --- the flat loop against the scheduling contract ---------------------------

#: Few sites (one spelled like a network channel) and one global site,
#: so devices are contended; few distinct durations, most of them zero
#: or below the clock's ulp once it has left 0, so events tie.
LAW_SITES = ("A", "netlab", "G")
law_seconds = st.sampled_from([0, 0, 0, 1, 1, 2, 5e-324, 1e-17, 0.1, 0.7])


@st.composite
def law_graphs(draw):
    """(nodes, shared_network, fault plan): nodes are (kind, site, dst,
    seconds, deps) with deps any earlier nodes, repeats allowed."""
    nodes = []
    for index in range(draw(st.integers(0, 12))):
        earlier = st.integers(0, index - 1)
        nodes.append((
            draw(st.sampled_from(
                ["cpu", "disk", "transfer", "transfer", "delay", "barrier"]
            )),
            draw(st.sampled_from(LAW_SITES)),
            draw(st.sampled_from(LAW_SITES)),
            draw(law_seconds),
            draw(st.lists(earlier, max_size=3)) if index else [],
        ))
    outages = []
    for _ in range(draw(st.integers(0, 3))):
        window = OutageWindow(
            draw(st.sampled_from(LAW_SITES)),
            draw(st.sampled_from([0, 0, 0.5, 1, 2])),
            draw(st.sampled_from([0.5, 1, 2])),
        )
        outages.append(window)
        if draw(st.booleans()):  # chained: down again the instant it is up
            outages.append(OutageWindow(window.site, window.end, 1))
    links = tuple(
        LinkFault(src, "*", latency_multiplier=draw(
            st.sampled_from([1.0, 1.5, 2.0])
        ))
        for src in draw(st.lists(st.sampled_from(("*",) + LAW_SITES),
                                 max_size=2))
    )
    plan = FaultPlan(outages=tuple(outages), links=links)
    return nodes, draw(st.booleans()), plan


def build_law_graph(spec):
    nodes, shared_network, plan = spec
    return add_nodes(
        FederationSim(
            LAW_SITES[:2], global_site="G", cost_model=UNIT,
            shared_network=shared_network, fault_plan=plan,
        ),
        nodes,
    )


@settings(max_examples=400, deadline=None)
@given(law_graphs())
def test_flat_loop_keeps_the_scheduling_contract(spec):
    fed = build_law_graph(spec)
    assert schedule_violation(fed.run(), fed.fault_plan) is None
    with pytest.raises(SimulationError, match="called twice"):
        fed.run()
