"""The measured side of the benchmark, run in an interpreter of its own.

``run.py`` writes the graph file, the query sequence and the oracle's
answers, then starts this module in a fresh process, so that peak RSS covers
the system under test only: this coordinator process, plus the largest
worker process on the process backend.

Untraced mode (``--trace 0``) gives the end-to-end metrics.  Traced mode
(``--trace 1``) runs one fixed list of queries on two fresh sessions, a
plain one and one with the phase profiler on and the :mod:`layers` wrappers
installed, and reports the per-layer metrics plus the tracing overhead.
"""

import gc
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, deque

import oracle
import repro
from layers import LayerTimer
from repro.graph.loader import load_graph
from repro.obs.prof import merge_summaries

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 9
#: Queries kept in flight by the ``lookup-c4`` client.
IN_FLIGHT = 4
#: Queries every timed loop completes at least, so that p90 has 10 samples
#: beyond it; the loop then runs on to the end of the current block.
#: ``virtual_rounds`` and ``peak_rss_mb`` cover the first this-many.
MIN_QUERIES = 100
#: Hard cap on one timed loop, whatever ``--seconds`` and the query minimum say.
MAX_LOOP_S = 120.0
#: Chunks a traced run alternates between its plain and traced session.
TRACE_CHUNKS = 6
#: Queries per second each workload ran at when the benchmark was defined.
#: A traced pass runs ``rate * seconds / 2`` queries, a count that stays
#: fixed across commits so that its sums compare.
TRACE_RATE = {"lookup-c4": 25.0, "process-nine": 6.0}

UNITS = {
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virtual_rounds": "rounds",
    "graph.load_s": "s",
    "graph.shm_export_s": "s",
    "pgql.parse_ms": "ms",
    "plan.compile_ms": "ms",
    "plan.cache_hit_rate": "ratio",
    "runtime.run_ms": "ms",
    "multi.step_ms": "ms",
    "engine.assemble_ms": "ms",
    "session.other_ms": "ms",
    "prof.worker.dft_s": "s",
    "prof.index.probe_s": "s",
    "prof.sched.deliver_s": "s",
    "prof.sched.protocol_s": "s",
    "prof.backend.spawn_s": "s",
    "prof.backend.coordinate_s": "s",
    "runtime.edges_traversed": "count",
    "runtime.contexts_sent": "count",
    "runtime.batches_sent": "count",
    "runtime.flow_control_blocks": "count",
    "runtime.bytes_sent": "bytes",
    "runtime.status_messages": "count",
    "rpq.index_probes": "count",
    "rpq.index_fresh_ratio": "ratio",
    "rpq.eliminated": "count",
    "rpq.duplicated": "count",
    "multi.cluster_rounds": "rounds",
    "trace.overhead_frac": "ratio",
}

#: Layer timings that are 0 by construction on some workload (no shared
#: memory on the simulator, no cluster scheduler under ``execute``, no
#: simulator phases on the process backend).  They are printed with the
#: per-layer table but left out of the result line, whose per-layer metrics
#: are each measured on every workload.
WORKLOAD_SPECIFIC = (
    "graph.shm_export_s",
    "multi.step_ms",
    "prof.sched.deliver_s",
    "prof.sched.protocol_s",
    "prof.backend.spawn_s",
    "prof.backend.coordinate_s",
)


def _stats_counts(stats):
    """Per-layer work counts of one query's ``RunStats``."""
    machines = stats.per_machine
    inserts = sum(m.index_inserts for m in machines)
    eliminated = sum(sum(c.values()) for c in stats.eliminated.values())
    duplicated = sum(sum(c.values()) for c in stats.duplicated.values())
    return Counter({
        "runtime.edges_traversed": stats.edges_traversed,
        "runtime.contexts_sent": stats.contexts_sent,
        "runtime.batches_sent": stats.batches_sent,
        "runtime.flow_control_blocks": stats.flow_control_blocks,
        "runtime.bytes_sent": stats.bytes_sent,
        "runtime.status_messages": sum(m.status_messages for m in machines),
        "rpq.index_inserts": inserts,
        "rpq.eliminated": eliminated,
        "rpq.duplicated": duplicated,
        "rpq.index_probes": inserts + eliminated + duplicated,
    })


class Tally:
    """Outcomes of one pass: latencies, failures and summed counters."""

    def __init__(self, expected, profiled=False):
        self.expected = expected
        self.profiled = profiled
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.texts = set()
        self.max_depth = -1
        self.counts = Counter()
        self.profiles = []
        self.rss_kb = None

    def record(self, index, text, result, error, latency):
        self.attempted += 1
        self.texts.add(text)
        if error is not None:
            self.failed += 1
            print(f"perfbench: query {index} failed: {text}", file=sys.stderr)
            traceback.print_exception(type(error), error, error.__traceback__)
            return
        if not oracle.matches(self.expected[text], result.rows):
            self.failed += 1
            print(f"perfbench: query {index} returned wrong rows: {text}", file=sys.stderr)
            return
        self.latencies.append(latency)
        if len(self.latencies) == MIN_QUERIES:
            self.rss_kb = _peak_rss_kb()
        stats = result.stats
        self.max_depth = max(self.max_depth, stats.max_depth())
        self.counts.update(_stats_counts(stats))
        if self.profiled:
            self.profiles.append(stats.profile or {})


def _solo(session, texts, tally, keep_going):
    """One closed-loop client on ``Session.execute``; returns API seconds."""
    busy = 0.0
    started = time.perf_counter()
    n = 0
    while keep_going(n, time.perf_counter() - started):
        text = texts[n % len(texts)]
        sent = time.perf_counter()
        try:
            result, error = session.execute(text), None
        except Exception as exc:  # counted as a failure, the run goes on
            result, error = None, exc
        latency = time.perf_counter() - sent
        busy += latency
        tally.record(n, text, result, error, latency)
        n += 1
    return busy


def _concurrent(session, texts, tally, keep_going, block, cpus):
    """``IN_FLIGHT`` queries in flight through ``Session.submit``.

    The client blocks on its oldest query; that drives the shared cluster,
    and every query seen finished afterwards completes at that moment.
    At the start of every ``block`` of submissions the process moves to the
    next CPU of ``cpus``: the simulator runs on one thread, and on a shared
    host each CPU has slow phases of its own (NOTES.md), so a run that
    stayed on one CPU would measure that CPU's neighbours.
    Returns API seconds (loop wall minus the client's own bookkeeping) and
    the cluster rounds elapsed when the first ``MIN_QUERIES`` queries had
    all finished.
    """
    turns = itertools.cycle(cpus)
    flight = deque()
    bookkeeping = 0.0
    early = 0
    rounds = 0
    n = 0
    started = time.perf_counter()
    while True:
        while len(flight) < IN_FLIGHT and keep_going(n, time.perf_counter() - started):
            if n % block == 0 and cpus:
                os.sched_setaffinity(0, {next(turns)})
            text = texts[n % len(texts)]
            sent = time.perf_counter()
            try:
                flight.append((n, text, sent, session.submit(text)))
            except Exception as exc:  # counted as a failure, the run goes on
                tally.record(n, text, None, exc, time.perf_counter() - sent)
            n += 1
        if not flight:
            break
        try:
            flight[0][3].result()
        except Exception:
            pass  # the handle is done now; its error is recorded below
        for item in [item for item in flight if item[3].done()]:
            flight.remove(item)
            index, text, sent, handle = item
            try:
                result, error = handle.result(), None
            except Exception as exc:
                result, error = None, exc
            observed = time.perf_counter()
            tally.record(index, text, result, error, observed - sent)
            if index < MIN_QUERIES:
                early += 1
                if early == MIN_QUERIES:
                    rounds = session.cluster_rounds
            bookkeeping += time.perf_counter() - observed
    return time.perf_counter() - started - bookkeeping, rounds


def _drive(work, session, texts, tally, keep_going):
    if work["workload"] != "lookup-c4":
        # Never pinned: the process backend's workers inherit the
        # coordinator's CPU set when they fork, and use every CPU anyway.
        return _solo(session, texts, tally, keep_going), 0
    if not hasattr(os, "sched_setaffinity"):
        return _concurrent(session, texts, tally, keep_going, work["block"], [])
    usable = os.sched_getaffinity(0)
    try:
        return _concurrent(session, texts, tally, keep_going, work["block"], sorted(usable))
    finally:
        os.sched_setaffinity(0, usable)


def _connect(work, graph, **extra):
    if work["workload"] == "process-nine":
        extra.update(backend="process", workers=work["workers"])
    return repro.connect(graph, **extra)


def _close(session, leaks):
    """Close ``session``; a shared-memory segment left behind is a leak."""
    session.close()
    leaks.extend(getattr(session.backend, "shm_segments", []))


def _setup(work, tally):
    """Load the graph file, connect and answer the opening query."""
    started = time.perf_counter()
    session = _connect(work, load_graph(work["graph_path"]))
    text = work["opening"]
    try:
        if work["workload"] == "lookup-c4":
            result = session.submit(text).result()
        else:
            result = session.execute(text)
        error = None
    except Exception as exc:
        result, error = None, exc
    elapsed = time.perf_counter() - started
    tally.record(-1, text, result, error, elapsed)
    return elapsed, session


def _peak_rss_kb():
    """This process's peak RSS plus the largest joined child's (the process
    backend's workers; the simulator starts none)."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )


def end_to_end(work):
    """Set up ``SETUPS`` times, then run the closed loop for ``seconds``."""
    expected = work["expected"]
    setups = Tally(expected)
    leaks = []
    durations = []
    session = None
    for _ in range(SETUPS):
        if session is not None:
            _close(session, leaks)
        # Every set-up starts from a collected heap, as in a fresh process,
        # so the previous session's garbage is not collected inside it.
        gc.collect()
        elapsed, session = _setup(work, setups)
        durations.append(elapsed)

    seconds = work["seconds"]
    block = work["block"]

    def keep_going(sent, elapsed):
        # Stop only on a block boundary, so every run has the same mix.
        return elapsed < MAX_LOOP_S and (
            elapsed < seconds or sent < MIN_QUERIES or sent % block != 0
        )

    tally = Tally(expected)
    started = time.perf_counter()
    _, cluster_rounds = _drive(work, session, work["sequence"], tally, keep_going)
    wall = time.perf_counter() - started
    _close(session, leaks)

    lat = tally.latencies
    if work["workload"] == "lookup-c4":
        rounds = cluster_rounds
    else:
        # The process backend has no virtual clock: the simulator's rounds
        # for the same queries, computed before timing.
        sequence = work["sequence"]
        rounds = sum(work["sim_rounds"][sequence[i % len(sequence)]] for i in range(MIN_QUERIES))
    metrics = {
        "qps": len(lat) / wall,
        "latency_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3 if len(lat) > 1 else 0.0,
        "setup_s": statistics.median(durations),
        # Read after a fixed amount of work (set-up and the first
        # MIN_QUERIES queries), so it does not grow with throughput.
        "peak_rss_mb": (tally.rss_kb or _peak_rss_kb()) / 1024.0,
        "virtual_rounds": rounds,
    }
    properties = {
        "queries": tally.attempted,
        "distinct_text_share": len(tally.texts) / max(tally.attempted, 1),
        "max_rpq_depth": tally.max_depth,
        "error_rate": (tally.failed + setups.failed) / (tally.attempted + setups.attempted),
    }
    return {
        "attempted": tally.attempted + setups.attempted,
        "failed": tally.failed + setups.failed,
        "leaked_segments": leaks,
        "metrics": metrics,
        "properties": properties,
    }


def trace_count(workload, seconds):
    """Queries in each traced-mode pass."""
    return max(1, math.ceil(TRACE_RATE[workload] * seconds / 2))


def _phase_self_s(profile, name):
    return profile.get(name, {}).get("self_s", 0.0)


def traced(work):
    """A plain and a traced session over the same fixed query list.

    The list runs in ``TRACE_CHUNKS`` chunks, each first on the plain
    session and then on the traced one, so that a change in host speed
    during the run falls on both sides of ``trace.overhead_frac``.
    """
    expected = work["expected"]
    count = trace_count(work["workload"], work["seconds"])
    texts = work["sequence"][:count]
    size = math.ceil(count / TRACE_CHUNKS)
    leaks = []
    plain = Tally(expected)
    tally = Tally(expected, profiled=True)
    timer = LayerTimer()

    plain_session = _connect(work, load_graph(work["graph_path"]))
    started = time.perf_counter()
    graph = load_graph(work["graph_path"])
    load_s = time.perf_counter() - started
    session = _connect(work, graph, profile=True)
    plain_api = api = 0.0
    for first in range(0, count, size):
        chunk = texts[first:first + size]

        def keep_going(sent, elapsed, n=len(chunk)):
            return sent < n

        plain_api += _drive(work, plain_session, chunk, plain, keep_going)[0]
        with timer.installed():
            api += _drive(work, session, chunk, tally, keep_going)[0]
    cluster_rounds = session.cluster_rounds
    _close(plain_session, leaks)
    _close(session, leaks)

    lookup = work["workload"] == "lookup-c4"
    if lookup:
        # The cluster profiler is cumulative: the latest snapshot has it all.
        profile = max(tally.profiles, key=lambda p: sum(s["calls"] for s in p.values()), default={})
    else:
        profile = merge_summaries(tally.profiles)
    secs = timer.seconds
    run_s = secs["multi.step" if lookup else "runtime.run"]
    wrapped = secs["pgql.parse"] + secs["plan.compile"] + run_s + secs["engine.assemble"]
    counts = tally.counts
    metrics = {
        "graph.load_s": load_s,
        "pgql.parse_ms": secs["pgql.parse"] / count * 1e3,
        "plan.compile_ms": secs["plan.compile"] / count * 1e3,
        "plan.cache_hit_rate": 1.0 - timer.calls["plan.compile"] / count,
        "runtime.run_ms": run_s / count * 1e3,
        "engine.assemble_ms": secs["engine.assemble"] / count * 1e3,
        "session.other_ms": (api - wrapped) / count * 1e3,
        "prof.worker.dft_s": _phase_self_s(profile, "worker.dft"),
        "prof.index.probe_s": _phase_self_s(profile, "index.probe"),
        "runtime.edges_traversed": counts["runtime.edges_traversed"],
        "runtime.contexts_sent": counts["runtime.contexts_sent"],
        "runtime.batches_sent": counts["runtime.batches_sent"],
        "runtime.flow_control_blocks": counts["runtime.flow_control_blocks"],
        "runtime.bytes_sent": counts["runtime.bytes_sent"],
        "runtime.status_messages": counts["runtime.status_messages"],
        "rpq.index_probes": counts["rpq.index_probes"],
        "rpq.index_fresh_ratio": counts["rpq.index_inserts"] / max(counts["rpq.index_probes"], 1),
        "rpq.eliminated": counts["rpq.eliminated"],
        "rpq.duplicated": counts["rpq.duplicated"],
        "multi.cluster_rounds": cluster_rounds,
        "trace.overhead_frac": api / plain_api - 1.0,
        "graph.shm_export_s": secs["graph.shm_export"],
        "multi.step_ms": secs["multi.step"] / count * 1e3,
        "prof.sched.deliver_s": _phase_self_s(profile, "sched.deliver"),
        "prof.sched.protocol_s": _phase_self_s(profile, "sched.protocol"),
        "prof.backend.spawn_s": _phase_self_s(profile, "backend.spawn"),
        "prof.backend.coordinate_s": _phase_self_s(profile, "backend.coordinate"),
    }
    properties = {
        "queries": count,
        "distinct_text_share": len(tally.texts) / count,
        "max_rpq_depth": tally.max_depth,
        "error_rate": (tally.failed + plain.failed) / (tally.attempted + plain.attempted),
    }
    return {
        "attempted": tally.attempted + plain.attempted,
        "failed": tally.failed + plain.failed,
        "leaked_segments": leaks,
        "metrics": metrics,
        "properties": properties,
    }


def main(work_path):
    with open(work_path) as fh:
        work = json.load(fh)
    outcome = traced(work) if work["trace"] else end_to_end(work)
    with open(work["result_path"], "w") as fh:
        json.dump(outcome, fh)
