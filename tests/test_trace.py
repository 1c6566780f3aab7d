"""The simulated schedule as the engine reports it: nodes, spans, explain."""

from repro.core.engine import GlobalQueryEngine
from repro.sim.costs import CostModel
from repro.sim.taskgraph import FederationSim
from repro.workload.paper_example import Q1_TEXT

UNIT = CostModel(disk_s_per_byte=1.0, net_s_per_byte=1.0,
                 cpu_s_per_comparison=1.0, disk_seek_s=0.0)


def run_small_graph():
    fed = FederationSim(["A"], global_site="G", cost_model=UNIT)
    a = fed.disk("A", nbytes=2, label="read", phase="scan")
    b = fed.cpu("A", comparisons=3, label="work", phase="P", deps=[a])
    fed.transfer("A", "G", nbytes=1, label="ship", deps=[b])
    return fed.run()


class TestEntries:
    def test_outcome_keeps_nodes(self):
        outcome = run_small_graph()
        assert len(outcome.scheduled) == 3


class TestExplain:
    def test_explain_q1(self, school):
        engine = GlobalQueryEngine(school)
        report = engine.explain(Q1_TEXT, "BL")
        assert "strategy BL" in report
        assert "1 certain, 1 maybe" in report
        assert "BL_C1 scan" in report
        assert "certify" in report
        assert "phase" in report

    def test_metrics_carry_trace(self, school):
        engine = GlobalQueryEngine(school)
        outcome = engine.execute(Q1_TEXT, "CA")
        labels = {span.name for span in outcome.metrics.spans}
        assert any("CA_G2" in label for label in labels)
        assert any("CA_G3" in label for label in labels)
