"""``Session.execute`` and ``Session.submit`` run the same round loop.

On the simulator a solo run is a one-task
:class:`~repro.runtime.multi.ClusterScheduler`, so one query gives the
same statistics and the same trace on either path, with or without a
deadline.  The smoke suite's virtual rounds and message counts are pinned
to the committed baseline document.
"""

import json
from pathlib import Path

import pytest

from repro import connect
from repro.bench.suites import run_suite
from repro.datagen import BENCHMARK_QUERIES, mini_ldbc
from repro.errors import ConfigError

BASELINE = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "BENCH_smoke_baseline.json"
)


@pytest.fixture(scope="module")
def workload():
    return mini_ldbc("xs")


def _fingerprint(result):
    stats = result.stats
    return {
        "summary": {
            k: v for k, v in stats.summary().items() if k != "wall_seconds"
        },
        "machines": [
            (m.busy_rounds, m.idle_rounds, m.outputs)
            for m in stats.per_machine
        ],
        "rows": sorted(map(repr, result.rows)),
        "events": result.obs.events,
    }


@pytest.mark.parametrize("deadline", [None, 2])
@pytest.mark.parametrize("name", ["Q09R", "Q10"])
def test_execute_equals_submit(workload, name, deadline):
    graph, info = workload
    query = BENCHMARK_QUERIES[name](info)
    with connect(graph, num_machines=4) as session:
        config = session.config.with_(deadline=deadline)
        solo = session.execute(query, config=config, observe=True)
    with connect(graph, num_machines=4) as session:
        shared = session.submit(query, deadline=deadline, observe=True)
        shared = shared.result()
    assert _fingerprint(solo) == _fingerprint(shared)
    assert solo.timed_out == (deadline is not None)
    assert solo.obs.count_events("termination.concluded") == (
        0 if deadline else 1
    )
    assert solo.obs.count_events("scheduler.deadline") == (
        1 if deadline else 0
    )


def test_smoke_suite_matches_baseline():
    baseline = json.loads(BASELINE.read_text())["queries"]
    current = run_suite("smoke", repetitions=1, profile=False)["queries"]
    assert current.keys() == baseline.keys()
    for name, doc in current.items():
        assert (doc["virtual_rounds"], doc["messages"]) == (
            baseline[name]["virtual_rounds"], baseline[name]["messages"]
        ), name


def test_schedule_seed_is_cluster_level(workload):
    """A seeded session perturbs ``submit`` runs too, with the same
    fingerprint and rows as ``execute``; a differing per-query seed is
    refused."""
    graph, info = workload
    query = BENCHMARK_QUERIES["Q09R"](info)
    with connect(graph, num_machines=4, schedule_seed=5) as session:
        solo = session.execute(query)
    with connect(graph, num_machines=4, schedule_seed=5) as session:
        shared = session.submit(query).result()
        with pytest.raises(ConfigError, match="schedule_seed"):
            session.submit(query, config=session.config.with_(schedule_seed=6))
    assert solo.stats.schedule_fingerprint is not None
    assert solo.stats.schedule_fingerprint == shared.stats.schedule_fingerprint
    assert solo.rows == shared.rows
