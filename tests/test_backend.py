"""Tests for the execution-backend API (:mod:`repro.runtime.backend`).

The headline contract: the process backend and the simulator return
bit-identical result sets (the simulator is the verification oracle),
and the shared-memory CSR export never leaks segments — not on clean
close, not on cancel, not on a worker crash, not when a session is
garbage-collected.  The persistent worker pool serves every query of a
session and leaves no worker process behind.
"""

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
import warnings
from multiprocessing import shared_memory
from pathlib import Path

import pytest

import repro
from repro import EngineConfig, RPQdEngine, connect
from repro.bench.harness import host_info
from repro.config import BackendConfig
from repro.datagen import BENCHMARK_QUERIES, mini_ldbc
from repro.errors import ConfigError, ExecutionError
from repro.faults import FaultPlan
from repro.graph.generators import random_graph
from repro.runtime.backend import (
    ProcessBackend,
    SimBackend,
    backend_from_config,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires the fork start method",
)

COUNT_Q = "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,3}/->(b)"


def _assert_unlinked(names):
    """Every named segment must be gone from the OS."""
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def _alive(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    if not os.path.isdir("/proc"):
        return True
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:  # reaped between the two checks
        return False


def _child_interpreter(script, **kwargs):
    """Start ``script`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-c", script], env=env, text=True, **kwargs
    )


# ---------------------------------------------------------------------------
# BackendConfig group + validation
# ---------------------------------------------------------------------------


class TestBackendConfig:
    def test_group_expands_to_flat_fields(self):
        config = EngineConfig(
            execution=BackendConfig(
                backend="process", workers=2, channel_capacity=128,
                shm_threshold_bytes=0,
            )
        )
        assert config.backend == "process"
        assert config.workers == 2
        assert config.channel_capacity == 128
        assert config.shm_threshold_bytes == 0
        assert config.execution is None  # consumed during expansion

    def test_regroup_view_roundtrips(self):
        config = EngineConfig(backend="process", workers=3)
        view = config.backend_config
        assert isinstance(view, BackendConfig)
        assert view.backend == "process"
        assert view.workers == 3
        assert EngineConfig(execution=view).workers == 3

    def test_conflicting_flat_kwarg_names_both_values(self):
        with pytest.raises(ConfigError, match=r"workers.*2.*workers=4"):
            EngineConfig(workers=2, execution=BackendConfig(workers=4))

    def test_unknown_backend_names_value(self):
        with pytest.raises(ConfigError, match=r"backend.*'threads'"):
            EngineConfig(backend="threads")

    def test_invalid_workers_names_value(self):
        with pytest.raises(ConfigError, match=r"workers.*0"):
            EngineConfig(workers=0)

    def test_negative_channel_capacity_rejected(self):
        with pytest.raises(ConfigError, match=r"channel_capacity.*-1"):
            EngineConfig(channel_capacity=-1)

    def test_negative_shm_threshold_rejected(self):
        with pytest.raises(ConfigError, match=r"shm_threshold_bytes"):
            EngineConfig(shm_threshold_bytes=-1)

    def test_connect_accepts_backend_kwarg(self):
        with connect(random_graph(30, 60), backend="process") as session:
            assert session.backend.name == "process"
            assert session.config.backend == "process"

    def test_backend_from_config_dispatch(self):
        assert isinstance(
            backend_from_config(EngineConfig(backend="sim")), SimBackend
        )
        assert isinstance(
            backend_from_config(EngineConfig(backend="process")),
            ProcessBackend,
        )


# ---------------------------------------------------------------------------
# Feature matrix: simulator-only options fail loudly with process backend
# ---------------------------------------------------------------------------


class TestFeatureMatrix:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"faults": FaultPlan(seed=1, drop_prob=0.1)},
            {"recovery": True},
            {"membership": True},
            {"schedule_seed": 3},
            {"observe": True},
        ],
        ids=["faults", "recovery", "membership", "schedule_seed", "observe"],
    )
    def test_simulator_only_options_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="simulator-only"):
            EngineConfig(backend="process", **kwargs)

    def test_error_points_at_sim_backend(self):
        with pytest.raises(ConfigError, match="backend='sim'"):
            EngineConfig(backend="process", recovery=True)

    def test_trace_rejected_at_execute(self):
        with connect(random_graph(30, 60), backend="process") as session:
            with pytest.raises(ConfigError, match="simulator-only"):
                session.execute(COUNT_Q, trace=True)

    def test_observe_rejected_at_execute(self):
        with connect(random_graph(30, 60), backend="process") as session:
            with pytest.raises(ConfigError, match="simulator-only"):
                session.execute(COUNT_Q, observe=True)

    def test_submit_rejected(self):
        with connect(random_graph(30, 60), backend="process") as session:
            with pytest.raises(ConfigError, match="submit"):
                session.submit(COUNT_Q)


# ---------------------------------------------------------------------------
# Cross-backend equivalence: the simulator is the oracle
# ---------------------------------------------------------------------------


class TestCrossBackendEquivalence:
    @pytest.fixture(scope="class")
    def workload(self):
        graph, info = mini_ldbc("xs", seed=7)
        queries = {
            name: build(info) for name, build in BENCHMARK_QUERIES.items()
        }
        return graph, queries

    def test_full_bench_workload_bit_identical(self, workload):
        graph, queries = workload
        with connect(graph, num_machines=4) as sim, connect(
            graph, num_machines=4, backend="process"
        ) as proc:
            for name, query in queries.items():
                expected = sim.execute(query)
                actual = proc.execute(query)
                assert actual.rows == expected.rows, name
                assert actual.columns == expected.columns, name

    def test_distinct_rows_identical(self):
        graph = random_graph(60, 150, seed=11)
        query = "SELECT DISTINCT b.idx FROM MATCH (a)-/:LINK{1,2}/->(b)"
        with connect(graph, num_machines=3) as sim, connect(
            graph, num_machines=3, backend="process"
        ) as proc:
            assert proc.execute(query).rows == sim.execute(query).rows

    def test_aggregate_order_by_identical(self, workload):
        graph, _ = workload
        query = (
            "SELECT p.country AS c, COUNT(*) AS n "
            "FROM MATCH (p:Person) GROUP BY p.country "
            "ORDER BY n DESC, c"
        )
        with connect(graph, num_machines=4) as sim, connect(
            graph, num_machines=4, backend="process"
        ) as proc:
            assert proc.execute(query).rows == sim.execute(query).rows

    def test_fewer_workers_than_machines_identical(self, workload):
        graph, queries = workload
        query = queries["Q09"]
        with connect(graph, num_machines=4) as sim, connect(
            graph, num_machines=4, backend="process", workers=2
        ) as proc:
            assert proc.execute(query).rows == sim.execute(query).rows

    def test_below_shm_threshold_uses_fork_inheritance(self, workload):
        graph, queries = workload
        with connect(
            graph, num_machines=4, backend="process",
            shm_threshold_bytes=1 << 40,
        ) as proc, connect(graph, num_machines=4) as sim:
            result = proc.execute(queries["Q03"])
            assert proc.backend.shm_segments == []
            assert result.rows == sim.execute(queries["Q03"]).rows


# ---------------------------------------------------------------------------
# Shared-memory lifecycle: no leaked segments, ever
# ---------------------------------------------------------------------------


class TestShmLifecycle:
    def test_segments_live_during_session_and_unlinked_on_close(self):
        graph = random_graph(80, 200, seed=5)
        session = connect(
            graph, num_machines=4, backend="process", shm_threshold_bytes=0
        )
        try:
            session.execute(COUNT_Q)
            names = list(session.backend.shm_segments)
            assert names, "export expected above threshold"
            # Attachable while the session is open...
            seg = shared_memory.SharedMemory(name=names[0])
            seg.close()
        finally:
            session.close()
        # ...and gone afterwards.
        _assert_unlinked(names)

    def test_export_cached_across_queries(self):
        graph = random_graph(80, 200, seed=5)
        with connect(
            graph, num_machines=4, backend="process", shm_threshold_bytes=0
        ) as session:
            session.execute(COUNT_Q)
            first = list(session.backend.shm_segments)
            session.execute(COUNT_Q)
            assert session.backend.shm_segments == first

    def test_worker_crash_raises_and_close_unlinks(self, monkeypatch):
        import repro.runtime.backend as backend_mod

        def crash(*args, **kwargs):
            os._exit(1)

        graph = random_graph(80, 200, seed=5)
        session = connect(
            graph, num_machines=4, backend="process", shm_threshold_bytes=0
        )
        try:
            # Fork inherits the patched module, so every worker dies on
            # entry; the coordinator must surface it as ExecutionError.
            monkeypatch.setattr(backend_mod, "_worker_main", crash)
            with pytest.raises(ExecutionError, match="worker"):
                session.execute(COUNT_Q)
            names = list(session.backend.shm_segments)
            assert names
        finally:
            session.close()
        _assert_unlinked(names)

    def test_worker_exception_propagates_with_traceback(self, monkeypatch):
        import repro.runtime.backend as backend_mod

        def explode(config):
            raise RuntimeError("injected worker failure")

        graph = random_graph(40, 80, seed=5)
        session = connect(graph, num_machines=2, backend="process")
        try:
            # Patched in the parent, inherited by forked workers: the real
            # _worker_main catches it and posts an error payload, which
            # the coordinator re-raises with the worker's traceback.
            monkeypatch.setattr(
                backend_mod, "sanitizer_from_config", explode
            )
            with pytest.raises(
                ExecutionError, match="injected worker failure"
            ):
                session.execute(COUNT_Q)
        finally:
            session.close()

    def test_backend_close_is_idempotent(self):
        graph = random_graph(80, 200, seed=5)
        session = connect(
            graph, num_machines=2, backend="process", shm_threshold_bytes=0
        )
        session.execute(COUNT_Q)
        names = list(session.backend.shm_segments)
        session.close()
        session.backend.close()  # second close is a no-op
        _assert_unlinked(names)


# ---------------------------------------------------------------------------
# Persistent worker pool: one fork per session, fresh pool after a failure
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_workload():
    graph, info = mini_ldbc("xs", seed=7)
    queries = {name: build(info) for name, build in BENCHMARK_QUERIES.items()}
    return graph, queries


class TestWorkerPool:
    def test_worker_pids_unchanged_across_queries(self):
        graph = random_graph(80, 200, seed=5)
        with connect(graph, num_machines=4, backend="process") as session:
            assert session.backend.worker_pids == []  # started lazily
            session.execute(COUNT_Q)
            pids = session.backend.worker_pids
            assert len(pids) == 4
            for _ in range(20):
                session.execute(COUNT_Q)
                assert session.backend.worker_pids == pids
        assert session.backend.worker_pids == []
        assert not any(_alive(pid) for pid in pids)

    def test_shuffled_bench_queries_twice_bit_identical(self, bench_workload):
        graph, queries = bench_workload
        order = list(queries) * 2
        random.Random(5).shuffle(order)
        with connect(graph, num_machines=4) as sim, connect(
            graph, num_machines=4, backend="process"
        ) as proc:
            expected = {name: sim.execute(q) for name, q in queries.items()}
            for name in order:
                actual = proc.execute(queries[name])
                assert actual.rows == expected[name].rows, name
                assert actual.columns == expected[name].columns, name

    def test_next_execute_after_crash_runs_on_fresh_pool(self, monkeypatch):
        import repro.runtime.backend as backend_mod

        def crash(*args, **kwargs):
            os._exit(1)

        graph = random_graph(80, 200, seed=5)
        with connect(graph, num_machines=4) as sim, connect(
            graph, num_machines=4, backend="process", shm_threshold_bytes=0
        ) as session:
            monkeypatch.setattr(backend_mod, "_worker_main", crash)
            with pytest.raises(ExecutionError, match="worker"):
                session.execute(COUNT_Q)
            # The failed pool is torn down before execute raises.
            assert session.backend.worker_pids == []
            monkeypatch.undo()
            assert session.execute(COUNT_Q).rows == sim.execute(COUNT_Q).rows
            pids = session.backend.worker_pids
            assert len(pids) == 4 and all(_alive(pid) for pid in pids)

    def test_idle_worker_killed_between_queries_restarts_pool(self):
        graph = random_graph(80, 200, seed=5)
        with connect(graph, num_machines=4) as sim, connect(
            graph, num_machines=4, backend="process"
        ) as session:
            session.execute(COUNT_Q)
            first = session.backend.worker_pids
            os.kill(first[1], signal.SIGKILL)
            # active_children() reaps the worker once it has fully exited.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and first[1] in {
                child.pid for child in multiprocessing.active_children()
            }:
                time.sleep(0.01)
            assert session.execute(COUNT_Q).rows == sim.execute(COUNT_Q).rows
            second = session.backend.worker_pids
            assert len(second) == 4 and not set(second) & set(first)
            assert not any(_alive(pid) for pid in first)

    def test_worker_error_leaves_no_worker_alive(self, monkeypatch):
        import repro.runtime.backend as backend_mod

        def explode(config):
            raise RuntimeError("injected worker failure")

        graph = random_graph(40, 80, seed=5)
        with connect(graph, num_machines=2, backend="process") as session:
            # Patched before the pool forks, so every worker inherits it.
            monkeypatch.setattr(backend_mod, "sanitizer_from_config", explode)
            with pytest.raises(ExecutionError, match="injected"):
                session.execute(COUNT_Q)
            assert session.backend.worker_pids == []
            assert multiprocessing.active_children() == []

    def test_per_run_num_machines_restarts_pool(self, bench_workload):
        graph, queries = bench_workload
        query = queries["Q09"]
        with connect(graph, num_machines=3) as sim, connect(
            graph, num_machines=4, backend="process"
        ) as session:
            session.execute(query)
            first = session.backend.worker_pids
            result = session.execute(
                query, config=session.config.with_(num_machines=3)
            )
            assert result.rows == sim.execute(query).rows
            second = session.backend.worker_pids
            assert len(second) == 3 and not set(second) & set(first)
            assert not any(_alive(pid) for pid in first)

    def test_worker_compiled_plan_explains_like_coordinator(
        self, bench_workload, monkeypatch
    ):
        import repro.runtime.backend as backend_mod
        from repro.plan.explain import explain

        graph, queries = bench_workload
        explains = multiprocessing.get_context("fork").Queue()
        compile_in_worker = backend_mod.compile_query

        def spy(query, worker_graph, scouting=False):
            plan = compile_in_worker(query, worker_graph, scouting=scouting)
            explains.put(explain(plan))
            return plan

        # Patched before the pool forks, so the workers inherit the spy.
        monkeypatch.setattr(backend_mod, "compile_query", spy)
        with connect(graph, num_machines=4, backend="process") as session:
            # The query that starts the pool hands its plan over by fork;
            # the workers compile every later new plan themselves.
            session.execute(queries["Q10"])
            for name in ("Q03R", "Q09R", "Q10*"):
                session.execute(queries[name])
                expected = session.explain(queries[name])
                for _ in range(4):  # one compile per worker
                    assert explains.get(timeout=10) == expected, name
            session.execute(queries["Q10"])  # cached by token: no compile
            session.execute(queries["Q03R"])
        assert explains.empty()
        explains.close()

    def test_plan_cache_evicts_in_lockstep(self, monkeypatch):
        import repro.runtime.backend as backend_mod
        from repro.pgql.parser import parse

        # Patched before the pool forks, so both sides keep two plans.
        monkeypatch.setattr(backend_mod, "_PLAN_CACHE_SIZE", 2)
        graph = random_graph(80, 200, seed=5)
        texts = [
            COUNT_Q,
            "SELECT COUNT(*) FROM MATCH (a)-/:LINK{1,2}/->(b)",
            "SELECT DISTINCT b.idx FROM MATCH (a)-/:LINK{2,3}/->(b)",
        ]
        with connect(graph, num_machines=4) as sim, connect(
            graph, num_machines=4, backend="process"
        ) as session:
            expected = [sim.execute(text).rows for text in texts]
            plans = [session.compile(text) for text in texts]
            for i in (0, 1, 2, 0, 2, 1, 1, 0):
                assert session.execute(plans[i]).rows == expected[i], i
            # A parsed Query compiles to a new plan on every execute.
            assert session.execute(parse(texts[2])).rows == expected[2]

    def test_plan_without_source_rejected(self):
        import dataclasses

        graph = random_graph(30, 60)
        with connect(graph, backend="process") as session:
            plan = dataclasses.replace(session.compile(COUNT_Q), source=None)
            with pytest.raises(ConfigError, match="source"):
                session.execute(plan)

    def test_threads_sharing_a_session_take_turns(self):
        from concurrent.futures import ThreadPoolExecutor

        graph = random_graph(80, 200, seed=5)
        with connect(graph, num_machines=4) as sim, connect(
            graph, num_machines=4, backend="process"
        ) as session:
            expected = sim.execute(COUNT_Q).rows
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = list(pool.map(
                    lambda _: session.execute(COUNT_Q).rows, range(6)
                ))
            assert results == [expected] * 6

    def test_bounded_channels_complete(self):
        graph = random_graph(80, 200, seed=5)
        with connect(graph, num_machines=4) as sim, connect(
            graph, num_machines=4, backend="process", channel_capacity=64
        ) as session:
            for _ in range(3):
                assert session.execute(COUNT_Q).rows == sim.execute(
                    COUNT_Q
                ).rows

    def test_execute_profile_includes_worker_phases(self):
        graph = random_graph(80, 200, seed=5)
        with connect(graph, num_machines=4, backend="process") as session:
            assert not session.config.profile
            result = session.execute(COUNT_Q, profile=True)
            assert {"worker.dft", "index.probe", "machine.flush"} <= set(
                result.profile
            )
            assert session.execute(COUNT_Q).profile is None


class TestPoolCleanup:
    def test_garbage_collected_session_stops_pool_and_unlinks(self):
        # A fresh interpreter, so the resource tracker's shutdown report
        # on leaked segments lands in this test's captured stderr.
        script = f"""
import gc, json, multiprocessing
from multiprocessing import shared_memory
import repro
from repro.graph.generators import random_graph

session = repro.connect(random_graph(80, 200, seed=5), num_machines=4,
                        backend="process", shm_threshold_bytes=0)
session.execute({COUNT_Q!r})
pids = session.backend.worker_pids
names = list(session.backend.shm_segments)
del session
gc.collect()
alive = [p.pid for p in multiprocessing.active_children() if p.pid in pids]
unlinked = []
for name in names:
    try:
        shared_memory.SharedMemory(name=name).close()
    except FileNotFoundError:
        unlinked.append(name)
print(json.dumps({{"pids": pids, "alive": alive, "names": names,
                  "unlinked": unlinked}}))
"""
        child = _child_interpreter(
            script, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        report = json.loads(out)
        assert len(report["pids"]) == 4 and report["alive"] == []
        assert report["names"] and report["unlinked"] == report["names"]
        assert "leaked" not in err and "resource_tracker" not in err, err

    def test_idle_workers_exit_when_coordinator_is_killed(self):
        script = f"""
import time
import repro
from repro.graph.generators import random_graph

session = repro.connect(random_graph(80, 200, seed=5), num_machines=4,
                        backend="process")
session.execute({COUNT_Q!r})
print(" ".join(map(str, session.backend.worker_pids)), flush=True)
time.sleep(120)
"""
        child = _child_interpreter(
            script, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        )
        try:
            pids = [int(pid) for pid in child.stdout.readline().split()]
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
        assert len(pids) == 4
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in pids)
        child.stdout.close()


# ---------------------------------------------------------------------------
# Satellites: deprecated shim routing, host_info, bench document fields
# ---------------------------------------------------------------------------


class TestSatellites:
    def test_rpqd_engine_warns_with_removal_version(self):
        graph = random_graph(30, 60)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine = RPQdEngine(graph)
        assert any(
            issubclass(w.category, DeprecationWarning)
            and "repro 2.0" in str(w.message)
            for w in caught
        )
        assert engine.execute(COUNT_Q).scalar() is not None

    def test_rpqd_engine_accepts_backend(self):
        graph = random_graph(30, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            shim = RPQdEngine(graph, backend="process")
        with connect(graph, num_machines=4) as sim:
            assert shim.execute(COUNT_Q).rows == sim.execute(COUNT_Q).rows
        assert shim.config.backend == "process"
        shim._session.close()

    def test_host_info_records_backend(self):
        assert host_info()["backend"] == "sim"
        assert host_info(backend="process")["backend"] == "process"

    def test_run_suite_process_document_fields(self):
        from repro.bench.suites import run_suite

        doc = run_suite(
            "smoke", repetitions=1, profile=False, only=["Q03"],
            backend="process",
        )
        assert doc["backend"] == "process"
        assert doc["host"]["backend"] == "process"
        q = doc["queries"]["Q03"]
        assert q["identical_to_sim"] is True
        assert q["sim_wall_seconds"] > 0
        assert q["wall_speedup_vs_sim"] is not None
        # virtual_rounds comes from the sim oracle (the process backend
        # has no virtual clock), recorded next to the wall columns.
        assert q["virtual_rounds"] > 0

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="wall-clock speedup needs >= 4 physical cores",
    )
    def test_process_backend_speedup_on_multicore(self):
        from repro.bench.suites import run_suite

        doc = run_suite(
            "standard", repetitions=1, profile=False, only=["Q09"],
            backend="process",
        )
        assert doc["queries"]["Q09"]["wall_speedup_vs_sim"] >= 1.5
