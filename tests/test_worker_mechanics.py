"""White-box tests for worker/machine mechanics: frames, undo logs,
bootstrap sharing, nested blocked jobs, and batch accounting."""

import pytest

from repro import EngineConfig, GraphBuilder, RPQdEngine
from repro.engine.result import MachineSink
from repro.graph.generators import chain_graph, star_graph
from repro.runtime.multi import ClusterScheduler
from repro.runtime.worker import Frame, Job, MAX_NESTED_JOBS, Worker


def make_execution(graph, query, config):
    """A one-task cluster, as ``Session.execute`` builds it."""
    engine = RPQdEngine(graph, config)
    plan = engine.compile(query)
    sinks = [MachineSink(plan) for _ in range(config.num_machines)]
    cluster = ClusterScheduler(engine.dgraph, config)
    return cluster, cluster.submit(plan, lambda m: sinks[m]), sinks, plan


def run_task(cluster, task):
    cluster.run()
    if task.error is not None:
        raise task.error
    return task.stats


class TestFrame:
    def test_initial_state(self):
        f = Frame(3, 17)
        assert f.stage_idx == 3
        assert f.vertex == 17
        assert f.phase == 0
        assert f.undo == []
        assert f.entry_mode is None

    def test_entry_mode(self):
        f = Frame(1, 0, entry_mode="advance")
        assert f.entry_mode == "advance"


class TestUndoLog:
    def test_pop_restores_slots_in_reverse_order(self):
        g = chain_graph(3)
        config = EngineConfig(num_machines=1)
        cluster, task, _sinks, plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)-[:NEXT]->(b)", config
        )
        worker = task.slices[0].workers[0]
        job = Job("root", ctx=[0, 0, 0])
        frame = Frame(0, 0)
        frame.undo.append((0, "first"))
        frame.undo.append((0, "second"))  # later write of the same slot
        job.stack.append(frame)
        worker._pop(job)
        # Reverse replay: the oldest saved value wins.
        assert job.ctx[0] == "first"


class TestBootstrapSharing:
    def test_workers_share_the_root_queue(self):
        # A star: one heavy hub plus leaves. With the shared queue, every
        # worker can contribute; all roots get processed exactly once.
        g = star_graph(30)
        config = EngineConfig(num_machines=1, workers_per_machine=4)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)-[:LINK]->(b)", config
        )
        stats = run_task(cluster, task)
        m = task.slices[0]
        assert not m.bootstrap_pending()
        assert m.stats.bootstrapped == 31
        assert stats.outputs == 30

    def test_single_vertex_bootstrap_only_on_owner(self):
        g = chain_graph(10)
        config = EngineConfig(num_machines=2)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)->(b) WHERE id(a) = 3", config
        )
        owner = task.slices[3 % 2]
        other = task.slices[(3 + 1) % 2]
        assert owner.bootstrap_pending()
        assert not other.bootstrap_pending()
        run_task(cluster, task)
        assert owner.stats.bootstrapped == 1
        assert other.stats.bootstrapped == 0


class TestBatchAccounting:
    def test_done_sent_at_absorption_and_processed_at_completion(self):
        g = chain_graph(20)
        config = EngineConfig(num_machines=2, batch_size=4)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)", config
        )
        run_task(cluster, task)
        for m in task.slices:
            # Every absorbed batch was eventually completed.
            assert m._absorbed == 0
            # DONEs match the batches this machine received and absorbed.
            received = sum(
                other.tracker.sent[key]
                for other in task.slices
                if other is not m
                for key in other.tracker.sent
            )
        total_sent = sum(m.stats.batches_sent for m in task.slices)
        total_done = sum(m.stats.done_messages for m in task.slices)
        assert total_done == total_sent

    def test_sent_equals_processed_after_run(self):
        g = chain_graph(15)
        config = EngineConfig(num_machines=3)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)-/:NEXT{1,4}/->(b)", config
        )
        run_task(cluster, task)
        from collections import Counter

        sent = Counter()
        processed = Counter()
        for m in task.slices:
            sent.update(m.tracker.sent)
            processed.update(m.tracker.processed)
        assert sent == processed

    def test_credits_all_returned(self):
        g = chain_graph(25)
        config = EngineConfig(num_machines=4, batch_size=2)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)-/:NEXT+/->(b)", config
        )
        run_task(cluster, task)
        for m in task.slices:
            assert m.flow.in_flight == 0


class TestNestedJobs:
    def test_nesting_cap_constant_is_sane(self):
        assert 2 <= MAX_NESTED_JOBS <= 64

    def test_worker_idle_semantics(self):
        g = chain_graph(4)
        config = EngineConfig(num_machines=1)
        cluster, task, _sinks, _plan = make_execution(
            g, "SELECT COUNT(*) FROM MATCH (a)->(b)", config
        )
        worker = task.slices[0].workers[0]
        assert not worker.idle  # bootstrap pending
        run_task(cluster, task)
        assert worker.idle
