"""Execution backends: one interface, a simulator and a process runtime.

:class:`~repro.session.Session` no longer constructs the discrete-time
scheduler directly; it dispatches through an :class:`ExecutionBackend`:

* :class:`SimBackend` — the deterministic discrete-time simulator: one
  :class:`~repro.runtime.multi.ClusterScheduler` round loop, holding a
  single task for each solo run and every submission for concurrent
  ones.  It remains the verification oracle: virtual rounds, faults,
  recovery, membership, tracing, and the race detector all live here.
* :class:`ProcessBackend` — real parallelism.  Each partition's
  :class:`~repro.runtime.machine.Machine` loop runs in a persistent
  worker process; ``Batch``/``Done``/``Status`` frames are pickled onto
  ``multiprocessing.Queue`` channels between workers; the CSR adjacency
  is placed in ``multiprocessing.shared_memory`` and attached read-only
  once per worker (:mod:`repro.graph.shm`); this coordinator process
  owns admission, termination, and result assembly.

Topology: ``workers`` processes (default ``num_machines``) each host the
machines ``m`` with ``m % workers == worker_id``.  One inbound queue per
worker carries data/control frames from peers plus the coordinator's
run and stop orders; one shared result queue carries conclusion notices
and final per-machine payloads back.

Pool lifecycle: the workers are forked on the backend's first ``run``
and serve every later query until ``close`` (or garbage collection of
the backend, or the coordinator's death — an idle worker notices its
parent is gone and exits).  Each query gets a fresh ``query_id`` from a
backend-wide counter; every frame carries it, so a frame of a later
query that overtakes its run order is held back, and a late credit
return or STATUS of a finished query is dropped before it reaches a
:class:`~repro.runtime.machine.Machine`.  A worker crash or error, or a
run whose cluster shape differs (graph, ``num_machines``, ``workers``,
``channel_capacity``), tears the pool down; the next ``run`` forks a
fresh one.

Termination: each machine runs the paper's double-confirmation protocol
(Section 3.4) exactly as under the simulator — STATUS snapshots are
broadcast every ``status_interval`` loop iterations.  A machine may only
conclude after confirming, twice, with strictly newer information, that
global sent == processed on every channel; that property is
schedule-independent, so the *first* conclusion anywhere proves all
data-plane work is globally done and every sink is complete.  The
coordinator then sends every worker a stop order; in-flight frames past
that point can only be credit returns or stale STATUS traffic.

Message ordering: receive-priority seq tiebreakers are process-local.
Frames are re-stamped from the receiving process's own counter at the
channel boundary (raw sender seqs never order a remote inbox — see the
note in :mod:`repro.runtime.message`), which keeps every inbox heap
totally ordered.  Arrival interleaving still varies run to run, so the
backend relies on the engine's schedule-invariant result assembly (the
property the race detector and the RPQ102 static rule certify) — the
cross-backend oracle in ``tests/test_backend.py`` holds result sets
bit-identical to the simulator's.

The feature matrix (what each backend supports) is documented in
``docs/backends.md`` and enforced by :class:`~repro.config.EngineConfig`
validation plus the explicit checks here — simulator-only options raise
:class:`~repro.errors.ConfigError` instead of being silently ignored.
"""

import itertools
import multiprocessing
import os
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from queue import Empty

from ..analysis.sanitizer import sanitizer_from_config
from ..engine.result import MachineSink
from ..errors import ConfigError, ExecutionError
from ..graph.shm import SharedGraphStore, csr_nbytes, install_shared_csrs
from ..plan.compiler import compile_query
from .machine import Machine
from .message import _seq
from .multi import ClusterScheduler
from .stats import RunStats

#: Coordinator's pool shutdown order on worker inboxes (a plain string
#: cannot be confused with a message dataclass after pickling).
_SHUTDOWN = "__repro_shutdown__"
#: Hard ceiling on one process-backend run; a healthy run signals long
#: before this, so hitting it means workers live-locked or lost frames.
_RUN_TIMEOUT_S = 600.0
#: Idle worker block on the inbox (seconds) before re-polling; long
#: enough not to spin a core, short enough to keep STATUS cadence tight.
_IDLE_WAIT_S = 0.002
#: Between queries a worker blocks this long on its inbox before checking
#: that its coordinator is still alive.
_ORPHAN_POLL_S = 0.5
#: Compiled plans a pool keeps per worker.  Coordinator and workers see
#: the same run orders in the same sequence and evict least-recently-used
#: in lockstep, so the coordinator knows which tokens every worker holds.
_PLAN_CACHE_SIZE = 64


class ExecutionBackend:
    """The execution substrate behind :class:`~repro.session.Session`.

    ``run`` executes one query with exclusive cluster ownership and
    fills the caller's per-machine sinks; ``open_cluster`` returns the
    shared multi-query scheduler for ``Session.submit``; ``close``
    releases any resources the backend holds across runs (worker
    processes, shared-memory segments).
    """

    name = "abstract"

    def run(self, dgraph, plan, config, sinks, recorder=None, prof=None):
        """Execute ``plan`` and fill ``sinks``.

        Returns ``(stats, partial, timed_out)`` where ``stats`` is a
        :class:`~repro.runtime.stats.RunStats`.
        """
        raise NotImplementedError

    def open_cluster(self, dgraph, config):
        """The shared scheduler behind ``Session.submit``."""
        raise NotImplementedError

    def close(self):
        """Release cross-run resources (idempotent)."""

    def __repr__(self):
        return f"{type(self).__name__}()"


class SimBackend(ExecutionBackend):
    """The deterministic discrete-time simulator (the verification oracle)."""

    name = "sim"

    def run(self, dgraph, plan, config, sinks, recorder=None, prof=None):
        # A fresh one-task cluster: the query owns the cluster clock, and
        # the caller's recorder, sanitizer and profiler also observe the
        # cluster-level state (faults, membership, the round loop).
        cluster = ClusterScheduler(
            dgraph, config, recorder=recorder,
            sanitizer=sanitizer_from_config(config, obs=recorder), prof=prof,
        )
        task = cluster.submit(plan, lambda m: sinks[m], obs=recorder)
        cluster.run()
        if task.error is not None:
            raise task.error
        if cluster.prof is not None:
            # The task took its snapshot inside its last round's
            # protocol phase; the loop is over now, so take all of it.
            task.stats.profile = cluster.prof.summary()
        return task.stats, task.partial, task.timed_out

    def open_cluster(self, dgraph, config):
        return ClusterScheduler(dgraph, config)


def backend_from_config(config):
    """The backend instance ``config.backend`` names."""
    if config.backend == "process":
        return ProcessBackend()
    return SimBackend()


class _ProcessNetwork:
    """Send-side channel fabric inside one worker process.

    :class:`~repro.runtime.machine.Machine` talks to the network only
    through ``send`` (delivery is push-based via ``Machine.deliver``),
    so this is the whole surface.  Frames for machines hosted by this
    worker short-circuit through a local pending list; remote frames are
    pickled onto the owning worker's inbox queue.
    """

    def __init__(self, worker_id, num_workers, inboxes):
        self._worker_id = worker_id
        self._num_workers = num_workers
        self._inboxes = inboxes
        self._local_pending = []

    def send(self, message, now_round):
        owner = message.dst_machine % self._num_workers
        if owner == self._worker_id:
            self._local_pending.append(message)
        else:
            self._inboxes[owner].put(message)

    def take_local(self):
        """Drain frames addressed to this worker's own machines."""
        pending = self._local_pending
        self._local_pending = []
        return pending


def _worker_main(worker_id, num_workers, dgraph, shm_spec, first_plan,
                 inboxes, results):
    """One pool worker: host machines ``m % num_workers == worker_id``.

    Runs under the fork start method — ``dgraph`` and ``first_plan``
    (``(token, plan)`` of the query that started the pool) are
    inherited, never pickled, and the shared-memory CSR is attached
    once here.  The worker then serves run orders until the shutdown
    order arrives or its coordinator dies (see :class:`_Worker`).
    """
    try:
        if shm_spec is not None:
            install_shared_csrs(dgraph.graph, shm_spec)
        _Worker(
            worker_id, num_workers, dgraph, first_plan, inboxes, results
        ).serve()
    except BaseException:
        # Worker boundary: ship the traceback across the process gap so
        # the coordinator can re-raise it as ExecutionError, then crash
        # this worker loudly too.
        results.put(("error", worker_id, traceback.format_exc()))
        raise


class _Worker:
    """One pool worker's state across queries, inside the worker process.

    A run order is ``("run", query_id, config, token, source, profile)``.
    ``source`` is the plan's ``(Query AST, scouting)`` the first time a
    ``token`` is used and ``None`` after; each query posts its machines'
    sink payloads and counters on the result queue.
    """

    def __init__(self, worker_id, num_workers, dgraph, first_plan, inboxes,
                 results):
        self.id = worker_id
        self.num_workers = num_workers
        self.dgraph = dgraph
        self.network = _ProcessNetwork(worker_id, num_workers, inboxes)
        self.inbox = inboxes[worker_id]
        self.results = results
        self.parent = os.getppid()
        self.plans = OrderedDict([first_plan])  # token -> compiled plan, LRU
        self.early = []  # frames of a query whose run order has not arrived
        self.finished = 0  # id of the last query this worker ran

    def _exit_if_orphaned(self):
        """Exit at once when the coordinator that forked this worker is gone.

        ``os._exit`` skips the queue feeder-thread joins of a normal
        exit, which could block forever on a pipe no live process reads.
        """
        if os.getppid() != self.parent:
            os._exit(0)

    def serve(self):
        while True:
            try:
                item = self.inbox.get(timeout=_ORPHAN_POLL_S)
            except Empty:
                self._exit_if_orphaned()
                continue
            if item == _SHUTDOWN:
                os._exit(0)
            if isinstance(item, tuple):
                self._run(*item[1:])
            elif item.query_id > self.finished:
                self.early.append(item)  # overtook its query's run order
            # else: a late credit return / STATUS of a finished query

    def _plan(self, token, source):
        """The compiled plan for ``token``, compiling ``source`` if new."""
        plans = self.plans
        if source is not None:
            query, scouting = source
            plans[token] = compile_query(
                query, self.dgraph.graph, scouting=scouting
            )
            if len(plans) > _PLAN_CACHE_SIZE:
                plans.popitem(last=False)
        plans.move_to_end(token)
        return plans[token]

    def _run(self, query_id, config, token, source, profile):
        """Run this worker's machines for one query until its stop order."""
        plan = self._plan(token, source)
        prof = None
        if profile:
            from ..obs.prof import PhaseProfiler

            prof = PhaseProfiler()
        sanitizer = sanitizer_from_config(config)
        network = self.network
        inbox = self.inbox
        # Frames that arrived before the run order go first; the last
        # query's undelivered local frames are stale.
        network._local_pending = [
            f for f in self.early if f.query_id == query_id
        ]
        self.early = [f for f in self.early if f.query_id > query_id]
        sinks = {}
        machines = []
        for m in range(self.id, config.num_machines, self.num_workers):
            sinks[m] = MachineSink(plan)
            machines.append(
                Machine(m, self.dgraph, plan, config, network, sinks[m],
                        sanitizer=sanitizer, query_id=query_id, prof=prof)
            )
        local = {machine.id: machine for machine in machines}

        loop_no = 0
        reported = False
        running = True
        while running:
            frames = network.take_local()
            while True:
                try:
                    frames.append(inbox.get_nowait())
                except Empty:
                    break
            delivered = 0
            for frame in frames:
                if isinstance(frame, tuple):  # ("stop", query_id)
                    running = False
                    continue
                if frame.query_id != query_id:
                    if frame.query_id > query_id:
                        self.early.append(frame)
                    continue  # late credit return / STATUS of a finished query
                # Re-stamp the receive-priority tiebreaker from this
                # process's counter: sender seqs are only unique per
                # process, and a tie would make the inbox heap compare
                # unorderable Batch objects.
                frame.seq = next(_seq)
                local[frame.dst_machine].deliver([frame])
                delivered += 1
            if not running:
                break
            worked = 0.0
            for machine in machines:
                consumed = machine.run_slice(loop_no, config.quantum)
                machine.account_round(consumed)
                worked += consumed
            loop_no += 1
            if loop_no % config.status_interval == 0:
                for machine in machines:
                    machine.broadcast_status(loop_no)
                for machine in machines:
                    if not machine.protocol.concluded:
                        machine.check_termination()
                if not reported and any(
                    machine.protocol.concluded for machine in machines
                ):
                    reported = True
                    self.results.put(("concluded", self.id, query_id))
            if worked == 0.0 and delivered == 0:
                # Fully idle: block briefly on the inbox instead of
                # spinning; whatever arrives is handled next iteration.
                try:
                    frame = inbox.get(timeout=_IDLE_WAIT_S)
                except Empty:
                    self._exit_if_orphaned()
                    continue  # poll timeout: re-check local work and inbox
                network._local_pending.append(frame)

        for machine in machines:
            machine.finalize_stats()
        payload = {
            "machines": {
                m: {
                    "rows": sinks[m].rows,
                    "groups": sinks[m].groups,
                    "stats": local[m].stats,
                }
                for m in sorted(local)
            },
            "iterations": loop_no,
            "profile": None if prof is None else prof.summary(),
        }
        self.results.put(("result", self.id, query_id, payload))
        self.finished = query_id


class _Pool:
    """One set of persistent workers, their channels and plan tokens."""

    def __init__(self, dgraph, num_workers, channel_capacity, shm_spec,
                 plan):
        ctx = multiprocessing.get_context("fork")
        self.dgraph = dgraph
        self.channel_capacity = channel_capacity
        self.inboxes = [ctx.Queue(channel_capacity) for _ in range(num_workers)]
        self.results = ctx.Queue()
        self.procs = []
        self._tokens = itertools.count(1)
        # The query that starts the pool hands its plan over by fork.
        first_plan = (next(self._tokens), plan)
        self._plans = OrderedDict([first_plan])  # as each worker's cache
        try:
            for w in range(num_workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(w, num_workers, dgraph, shm_spec, first_plan,
                          self.inboxes, self.results),
                    daemon=True,
                )
                proc.start()
                self.procs.append(proc)
        except BaseException:
            self.close(graceful=False)
            raise

    def fits(self, dgraph, num_workers, channel_capacity):
        """Whether this pool can serve a run of the given cluster shape."""
        return (
            self.dgraph is dgraph
            and len(self.procs) == num_workers
            and self.channel_capacity == channel_capacity
            and all(proc.is_alive() for proc in self.procs)
        )

    def _plan_order(self, plan):
        """``(token, source)`` for a run order; ``source`` only when new."""
        for token, cached in self._plans.items():
            if cached is plan:
                self._plans.move_to_end(token)
                return token, None
        token = next(self._tokens)
        self._plans[token] = plan
        if len(self._plans) > _PLAN_CACHE_SIZE:
            self._plans.popitem(last=False)
        return token, plan.source

    def run(self, query_id, plan, config, profile, started):
        """Drive one query: stop on first conclusion, collect all payloads."""
        token, source = self._plan_order(plan)
        order = ("run", query_id, config, token, source, profile)
        for chan in self.inboxes:
            chan.put(order)
        payloads = {}
        stopped = False
        while len(payloads) < len(self.procs):
            try:
                msg = self.results.get(timeout=0.05)
            except Empty:
                for w, proc in enumerate(self.procs):
                    if w not in payloads and not proc.is_alive():
                        raise ExecutionError(
                            f"process backend worker {w} exited (code "
                            f"{proc.exitcode}) before posting its result"
                        )
                # repro: allow[RPQ103] wall-clock watchdog only; never feeds protocol state
                if time.perf_counter() - started > _RUN_TIMEOUT_S:
                    raise ExecutionError(
                        "process backend run exceeded "
                        f"{_RUN_TIMEOUT_S:.0f}s without concluding"
                    )
                continue
            kind = msg[0]
            if kind == "error":
                raise ExecutionError(
                    f"process backend worker {msg[1]} failed:\n{msg[2]}"
                )
            if msg[2] != query_id:
                continue  # a notice left over from an earlier query
            if kind == "concluded":
                # Double-confirmation makes any machine's conclusion a
                # proof that global sent == processed: all sinks are
                # complete, so stop every worker.
                if not stopped:
                    stopped = True
                    for chan in self.inboxes:
                        chan.put(("stop", query_id))
            else:  # ("result", worker_id, query_id, payload)
                payloads[msg[1]] = msg[3]
        return payloads

    def close(self, graceful=True):
        """Stop every worker; ``graceful`` lets idle workers exit first."""
        if graceful:
            for chan, proc in zip(self.inboxes, self.procs):
                if proc.is_alive():
                    chan.put(_SHUTDOWN)
            for proc in self.procs:
                proc.join(timeout=2.0)
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        for chan in [*self.inboxes, self.results]:
            # Never block interpreter exit flushing frames no worker reads.
            chan.cancel_join_thread()
            chan.close()


class _Owned:
    """What a :class:`ProcessBackend` holds across runs: pool and export.

    Kept apart from the backend so the backend's ``weakref.finalize``
    callback (this object's ``close``) can release both without keeping
    the backend itself alive.
    """

    def __init__(self):
        self.pool = None
        self.store = None
        self.store_graph = None  # graph the cached export belongs to

    def stop_pool(self, graceful=True):
        if self.pool is not None:
            pool, self.pool = self.pool, None
            pool.close(graceful)

    def release_store(self):
        if self.store is not None:
            self.store.close()
            self.store = None
            self.store_graph = None

    def close(self):
        self.stop_pool()
        self.release_store()


class ProcessBackend(ExecutionBackend):
    """Real-parallel execution on a persistent pool of forked workers.

    The pool starts on the first ``run`` and serves every later query;
    the shared-memory CSR export is made once per graph.  ``close`` — or
    the owning Session's context-manager exit, or garbage collection of
    the backend — stops the workers and unlinks the export.  A worker
    crash or error, or a run with a different cluster shape, tears the
    pool down before ``run`` returns, so no failed pool outlives the
    call; the next ``run`` starts a fresh one.
    """

    name = "process"

    def __init__(self):
        self._owned = _Owned()
        self._query_ids = itertools.count(1)
        self._lock = threading.Lock()
        weakref.finalize(self, self._owned.close)

    # -- shared-memory lifecycle ---------------------------------------
    def _shm_spec(self, graph, config):
        """The cached CSR export's attach spec, or ``None`` below threshold."""
        owned = self._owned
        if owned.store is not None and owned.store_graph is not graph:
            owned.release_store()
        if owned.store is None:
            if csr_nbytes(graph) < config.shm_threshold_bytes:
                # Small adjacency: fork inheritance is cheaper than an
                # export+attach round trip.
                return None
            owned.store = SharedGraphStore.export(graph)
            owned.store_graph = graph
        return owned.store.spec()

    @property
    def shm_segments(self):
        """Live shared-memory segment names (leak-check surface for tests)."""
        store = self._owned.store
        return [] if store is None else store.segment_names

    @property
    def worker_pids(self):
        """Process ids of the live pool's workers (empty with no pool)."""
        pool = self._owned.pool
        return [] if pool is None else [proc.pid for proc in pool.procs]

    def close(self):
        self._owned.close()

    # -- execution ------------------------------------------------------
    def open_cluster(self, dgraph, config):
        raise ConfigError(
            "backend='process' does not support concurrent submit() yet: "
            "the shared multi-query scheduler is simulator-only for now — "
            "use backend='sim' for Session.submit, or Session.execute for "
            "solo process-parallel runs"
        )

    def _pool_for(self, dgraph, plan, config, prof):
        """The live pool, restarted first if the cluster shape changed."""
        owned = self._owned
        num_workers = min(
            config.workers or config.num_machines, config.num_machines
        )
        if owned.pool is not None and not owned.pool.fits(
            dgraph, num_workers, config.channel_capacity
        ):
            owned.stop_pool()
        if owned.pool is None:
            if prof is not None:
                prof.enter("backend.spawn")
            shm_spec = self._shm_spec(dgraph.graph, config)
            owned.pool = _Pool(
                dgraph, num_workers, config.channel_capacity, shm_spec, plan
            )
            if prof is not None:
                prof.exit()
        return owned.pool

    def run(self, dgraph, plan, config, sinks, recorder=None, prof=None):
        if recorder is not None:
            raise ConfigError(
                "observe is simulator-only for now: the span recorder "
                "timestamps on the virtual clock, which backend='process' "
                "does not have — run backend='sim' (wall-clock profiling "
                "via profile=True is supported on both backends)"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutionError(
                "backend='process' requires the fork start method "
                "(workers inherit the graph); this platform offers none "
                "— run backend='sim'"
            )
        if plan.source is None:
            raise ConfigError(
                "backend='process' ships each plan's query source to its "
                "workers; this plan has none — compile it with "
                "Session.compile or repro.plan.compile_query"
            )
        # repro: allow[RPQ103] wall-clock reporting only; never feeds protocol state
        started = time.perf_counter()
        with self._lock:  # one query at a time owns the pool
            try:
                pool = self._pool_for(dgraph, plan, config, prof)
                if prof is not None:
                    prof.enter("backend.coordinate")
                # Workers profile this query when the caller's run does,
                # not only under config.profile (execute(profile=True)).
                payloads = pool.run(
                    next(self._query_ids), plan, config,
                    prof is not None or config.profile, started,
                )
            except BaseException:
                self._owned.stop_pool(graceful=False)
                raise
            finally:
                if prof is not None:
                    prof.unwind()
        if prof is not None:
            prof.enter("backend.merge")
        machine_stats, iterations, profile = self._merge(
            payloads, sinks, config, prof
        )
        if prof is not None:
            prof.exit()
            profile = _merged_profile([profile, prof.summary()])
        # repro: allow[RPQ103] wall-clock reporting only; never feeds protocol state
        wall = time.perf_counter() - started
        stats = RunStats(
            machine_stats, iterations, wall, config, profile=profile,
        )
        return stats, False, False

    def _merge(self, payloads, sinks, config, prof):
        """Fold worker payloads into the caller's sinks and stats."""
        machine_stats = [None] * config.num_machines
        iterations = 0
        profiles = []
        for w in sorted(payloads):
            payload = payloads[w]
            iterations = max(iterations, payload["iterations"])
            if payload["profile"]:
                profiles.append(payload["profile"])
            for m in sorted(payload["machines"]):
                data = payload["machines"][m]
                sinks[m].rows[:] = data["rows"]
                sinks[m].groups.clear()
                sinks[m].groups.update(data["groups"])
                machine_stats[m] = data["stats"]
        missing = [m for m, s in enumerate(machine_stats) if s is None]
        if missing:
            raise ExecutionError(
                f"process backend lost machines {missing}: no worker "
                "posted their payloads"
            )
        return machine_stats, iterations, _merged_profile(profiles)


def _merged_profile(profiles):
    from ..obs.prof import merge_summaries

    merged = merge_summaries([p for p in profiles if p])
    return merged or None
