"""Tests for the per-round work log and its timeline rendering."""

from repro import EngineConfig, RPQdEngine
from repro.graph.generators import chain_graph, random_graph
from repro.obs import Recorder, imbalance, render_timeline, utilization


class TestRecorder:
    def test_records_rounds(self):
        g = chain_graph(10)
        r = RPQdEngine(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)", observe=True
        )
        assert r.obs is not None
        assert len(r.obs.rounds) == r.stats.rounds
        assert r.obs.num_machines == 2

    def test_trace_off_by_default(self):
        g = chain_graph(5)
        r = RPQdEngine(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)->(b)"
        )
        assert r.obs is None

    def test_pass_trace_instance(self):
        g = chain_graph(5)
        recorder = Recorder()
        r = RPQdEngine(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)->(b)", observe=recorder
        )
        assert r.obs is recorder
        assert recorder.rounds

    def test_termination_event_recorded(self):
        g = chain_graph(5)
        r = RPQdEngine(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)->(b)", observe=True
        )
        assert r.obs.count_events("termination.concluded") == 1


class TestAnalysis:
    def test_utilization_bounds(self):
        g = random_graph(40, 120, seed=3)
        r = RPQdEngine(g, EngineConfig(num_machines=4)).execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/->(b)", observe=True
        )
        for u in utilization(r.obs):
            assert 0.0 <= u <= 1.0
        assert imbalance(r.obs) >= 1.0

    def test_imbalance_metric_synthetic(self):
        # One machine doing all the work at 2 machines => max/mean = 2.0.
        rec = Recorder()
        rec.configure(2, quantum=100.0)
        rec.record_round(1, [100.0, 0.0])
        rec.record_round(2, [100.0, 0.0])
        assert imbalance(rec) == 2.0
        assert utilization(rec) == [1.0, 0.0]
        assert sum(1 for _r, work in rec.rounds if work[0] > 0) == 2
        assert sum(1 for _r, work in rec.rounds if work[1] > 0) == 0

    def test_balanced_trace_has_unit_imbalance(self):
        rec = Recorder()
        rec.configure(3, quantum=10.0)
        rec.record_round(1, [5.0, 5.0, 5.0])
        assert imbalance(rec) == 1.0

    def test_summary_shape(self):
        # The recorder's round log matches the run's statistics: one entry
        # per round, one work figure per machine, busy rounds agreeing.
        g = chain_graph(6)
        r = RPQdEngine(g, EngineConfig(num_machines=2)).execute(
            "SELECT COUNT(*) FROM MATCH (a)->(b)", observe=True
        )
        assert [n for n, _work in r.obs.rounds] == list(
            range(1, r.stats.rounds + 1)
        )
        assert all(len(work) == 2 for _n, work in r.obs.rounds)
        for m, stats in enumerate(r.stats.per_machine):
            busy = sum(1 for _n, work in r.obs.rounds if work[m] > 0)
            assert busy == stats.busy_rounds


class TestRendering:
    def test_timeline_renders_one_row_per_machine(self):
        g = random_graph(30, 90, seed=4)
        r = RPQdEngine(g, EngineConfig(num_machines=3)).execute(
            "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/->(b)", observe=True
        )
        text = render_timeline(r.obs, width=40)
        lines = text.splitlines()
        assert lines[0].startswith("M0 ")
        assert lines[2].startswith("M2 ")
        assert "utilization" in lines[-1]

    def test_empty_trace_renders(self):
        assert "no rounds" in render_timeline(Recorder())
