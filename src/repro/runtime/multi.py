"""The concurrent multi-query runtime.

:class:`ClusterScheduler` interleaves several queries on the *same*
simulated machines under one global round clock.  Each admitted query gets
one :class:`~repro.runtime.machine.Machine` slice per machine id, a private
message channel on the shared :class:`~repro.runtime.network.
ClusterNetwork`, its own sanitizer/recorder, and its own termination
protocol — everything namespaced by ``query_id``, so flow-control credits,
work counters, and reachability facts can never leak between queries.

Fair quantum sharing
    A machine still spends at most ``config.quantum`` cost units per global
    round, but that budget is now split across the machine's active query
    slices with a work-conserving multi-pass redistribution: every runnable
    slice first gets an equal share, and budget left idle by queries with
    little to do is re-offered to the ones still hungry.  Throughput beats
    back-to-back sequential execution exactly when queries leave quantum
    idle (message-latency bubbles, narrow frontiers) that other queries can
    soak up.

Admission control
    At most ``config.max_concurrent_queries`` queries run at once; up to
    ``config.admission_queue_limit`` more wait in a bounded FIFO queue, and
    submissions beyond that are rejected with :class:`~repro.errors.
    AdmissionError` instead of growing an unbounded backlog.

Chaos, reliability, and recovery (docs/faults.md, docs/recovery.md)
    Faults are a property of the *cluster*, not of any one query: when the
    scheduler's base config carries a :class:`~repro.faults.FaultPlan`,
    one shared seeded :class:`~repro.faults.FaultInjector` perturbs every
    query's traffic on the shared interconnect, and a machine outage takes
    down every query slice it hosts.  Reliability and recovery stay *per
    query*: each channel runs its own ARQ endpoints, and each
    recovery-enabled query cuts epoch checkpoints at its own
    termination-protocol boundaries.  Failure handling is
    detection-driven: one cluster-level
    :class:`~repro.membership.MembershipService` (failure is a property
    of the machines, not of any one query) confirms crashes by quorum,
    and only a confirmed verdict triggers the cluster-level partition
    failover (the shared :class:`~repro.recovery.HostMap`), which then
    rolls back **only the queries that lost state on that machine** —
    co-resident queries without recovery degrade to partial results,
    and queries admitted later simply inherit the new placement.
    The invariant (asserted in tests/test_concurrency_chaos.py): every
    admitted query's result set is bit-identical to its fault-free solo
    run.

Determinism
    Admission order, the slice service order within a round, and every
    per-query protocol are deterministic, so a given submission sequence
    always produces the same interleaving.  Result *sets* are additionally
    identical to solo execution of the same query: concurrency only
    perturbs the schedule, and the engine's result assembly is
    schedule-invariant (the property the race detector checks).

Race detector
    ``schedule_seed`` is a cluster-level setting, like the fault plan: its
    seeded rng permutes the host service order of every round and the
    worker order inside each slice, and accumulates the cluster's
    ``schedule_fingerprint``.  A submitted query may not bring a
    different seed.

One loop
    ``Session.execute`` runs on a fresh one-task :class:`ClusterScheduler`
    (``SimBackend.run``), so :meth:`ClusterScheduler.step` is the only
    virtual-round loop.  A query's deadline and round cap are checked at
    the start of its round, before delivery and compute, so an expired
    query never spends quantum its co-resident queries could use.  After
    a failover a host running several logical machines splits its quantum
    across them with the same work-conserving passes as across queries.
"""

import random
import time

from ..analysis.sanitizer import sanitizer_from_config
from ..errors import (
    AdmissionError,
    ConfigError,
    ExecutionError,
    FlowControlDeadlock,
)
from ..membership import ProgressWatchdog, quorum_lost_error, resolve_stall
from .machine import Machine
from .network import ClusterNetwork
from .stats import RunStats

#: Budget below this fraction of a quantum is not worth another
#: redistribution pass.
_SHARE_EPSILON = 1e-6
#: Redistribution passes per machine per round: enough for idle budget to
#: cascade to the hungriest slice, bounded so a round stays O(slices).
_MAX_PASSES = 4


def _check_concurrent_config(config, cluster):
    """The concurrent supported-feature matrix.

    Fault injection, reliable transport, and crash recovery are all
    supported concurrently.  The fault *plan* and the race-detector
    ``schedule_seed`` are cluster-level (one interconnect, one set of
    machines, one service order), so a submitted query may omit the plan
    or restate the cluster's own, and must carry the cluster's seed.
    """
    if config.schedule_seed != cluster.schedule_seed:
        raise ConfigError(
            f"schedule_seed={config.schedule_seed!r} differs from the "
            f"cluster's {cluster.schedule_seed!r}: the race detector "
            "permutes and fingerprints the whole cluster's service order, "
            "so the seed is cluster-level — set it in the session config "
            "(Session.execute runs on a cluster of its own)"
        )
    if config.faults is not None and config.faults != cluster.config.faults:
        raise ConfigError(
            "per-query fault plans are not supported: faults live on "
            "the shared interconnect and machines, so the plan is "
            "cluster-level — pass it in the session/cluster base "
            "config (a submitted query may restate that same plan "
            "or leave faults unset)"
        )


class QueryTask:
    """One admitted query's execution state inside the cluster scheduler."""

    def __init__(
        self, query_id, dgraph, plan, config, sink_factory, channel,
        sanitizer=None, obs=None, prof=None,
    ):
        self.query_id = query_id
        self.plan = plan
        self.config = config
        self.channel = channel
        self.sanitizer = sanitizer
        self.obs = obs
        # Cluster-wide profiler shared by every task (the phases measure
        # the shared round loop, not one query); each task's RunStats gets
        # a cumulative snapshot at its finish time.
        self.prof = prof
        self.sinks = [sink_factory(m) for m in range(config.num_machines)]
        self.slices = [
            Machine(
                m, dgraph, plan, config, channel, self.sinks[m],
                sanitizer=sanitizer, obs=obs, query_id=query_id, prof=prof,
            )
            for m in range(config.num_machines)
        ]
        self.admitted_round = None  # global round of admission
        # repro: allow[RPQ103] wall-clock reporting only (RunStats.wall_seconds); never feeds protocol state
        self.started = time.perf_counter()
        self.concluded = [False] * config.num_machines
        # Progress clock: reset at admission and after every rollback.
        self.watchdog = ProgressWatchdog(config.stall_limit)
        # Cluster-level membership detector (set by the scheduler at
        # submit time; None on a fault-free cluster).
        self.membership = None
        self.quiescent_round = None  # local rounds (relative to admission)
        # Per-query crash recovery (set by the scheduler at submit time
        # when the query asked for it and the cluster can crash at all).
        self.recovery = None
        self.down_machines = ()
        self.finished = False
        self.cancelled = False
        self.timed_out = False
        self.partial = False
        self.error = None
        self.stats = None

    def local_round(self, round_no):
        """Rounds of virtual time this query has been running."""
        return round_no - self.admitted_round + 1

    def host_of(self, logical):
        """Physical host running this query's logical machine ``logical``.

        Identity unless the query is recovery-enabled and a failover moved
        the logical machine: non-recovery queries keep addressing the dead
        host (and degrade to partial results), which is exactly the
        blast-radius boundary.
        """
        if self.recovery is None:
            return logical
        return self.recovery.hosts[logical]

    def is_quiescent(self):
        """No query work anywhere: slices idle, channel without batches."""
        if self.channel.has_protocol_work():
            return False
        return all(s.is_quiescent() for s in self.slices)

    def _diagnose_stall(self, round_no):
        if self.obs is not None:
            self.obs.cluster_instant(
                "scheduler.stall",
                args={"round": self.local_round(round_no)},
                round_no=self.local_round(round_no),
            )
        if self.is_quiescent():
            raise ExecutionError(
                f"termination protocol for query {self.query_id} failed to "
                f"conclude by round {round_no} despite quiescence "
                "(protocol bug)"
            )
        blocked = sum(s.stats.flow_control_blocks for s in self.slices)
        in_flight = [s.flow.in_flight for s in self.slices]
        raise FlowControlDeadlock(
            f"query {self.query_id} made no progress for "
            f"{self.config.stall_limit} rounds at round {round_no}: "
            f"{blocked} flow-control blocks, in-flight credits {in_flight}. "
            "Increase buffers_per_machine / rpq_overflow_per_depth."
        )

    def _settle_and_audit(self, round_no):
        """Sanitizer epilogue on the query's *private* channel.

        The channel carries no other query's traffic and is closed right
        after, so draining it ahead of the global clock is safe: deliver
        the in-flight DONE credit returns, then audit credit conservation
        and final counter equality.  Under
        reliable transport a dropped frame may be nowhere in the queues
        yet (awaiting its retransmit timer): settling mode bypasses fault
        verdicts and fast-retransmits so the audit drains
        deterministically, then the transport itself is audited.
        """
        channel = self.channel
        settle_limit = round_no + 16 + 4 * self.config.net_delay_rounds
        if channel.reliable:
            channel.settling = True
            settle_limit += 4 * self.config.net_delay_rounds + 8
        while round_no < settle_limit:
            if not channel.has_protocol_work():
                break
            round_no += 1
            if channel.reliable:
                channel.tick(round_no)
            for s in self.slices:
                s.deliver(channel.drain(s.id, round_no))
        self.sanitizer.on_query_end([s.flow for s in self.slices])
        self.sanitizer.check_final_counts([s.tracker for s in self.slices])
        if channel.reliable:
            self.sanitizer.check_transport_settled(channel)
        return round_no

    def release_resources(self):
        """Free shared-cluster state this query pins.

        Idempotent; called on finish, cancel, and deadline expiry —
        including mid-rollback — so a departed query never holds
        checkpoint storage.  The transport namespace (RX queues, ARQ
        buffers, dedup ledger) dies with the channel when the scheduler
        closes it; co-resident queries' channels are untouched.
        """
        if self.recovery is not None:
            self.recovery.release()

    def finalize(self, round_no, cluster):
        """Build this query's :class:`RunStats`; rounds are query-local.

        ``cluster`` supplies the cluster-level epilogue: the shared
        injector's fault counts and the race detector's fingerprint.
        """
        local = self.local_round(round_no)
        if self.sanitizer is not None and not self.partial:
            # The settle drain runs on a private clock continuing from the
            # global round; only the extra rounds count toward the tail.
            local += self._settle_and_audit(round_no) - round_no
        for s in self.slices:
            s.finalize_stats()
        self.stats = RunStats(
            [s.stats for s in self.slices],
            local,
            # repro: allow[RPQ103] wall-clock reporting only; never feeds protocol state
            time.perf_counter() - self.started,
            self.config,
            quiescent_round=self.quiescent_round,
            schedule_fingerprint=cluster.schedule_fingerprint,
            timed_out=self.timed_out,
            partial=self.partial,
            down_machines=self.down_machines,
            transport=(
                self.channel.transport_summary()
                if self.channel.reliable
                else None
            ),
            fault_events=(
                cluster.injector.summary()
                if cluster.injector is not None
                else None
            ),
            recovery=(
                self.recovery.summary() if self.recovery is not None else None
            ),
            # Cumulative cluster-wide phase aggregates as of this query's
            # finish (the shared round loop is not attributable per query).
            profile=self.prof.summary() if self.prof is not None else None,
            membership=(
                self.membership.summary()
                if self.membership is not None
                else None
            ),
        )
        self.finished = True
        self.release_resources()
        return self.stats


class ClusterScheduler:
    """Runs many queries concurrently on one simulated cluster.

    The scheduler owns the cluster shape (machine count, quantum, network
    delay) via ``base_config`` — including the fault plan and the
    race-detector seed, when there are any; each submitted query brings
    its own :class:`~repro.config.EngineConfig` whose cluster-shape
    fields must match.  Call :meth:`submit` any number of times, then
    :meth:`run` (or :meth:`step` round by round); finished tasks carry
    their :class:`RunStats` and filled sinks.

    ``recorder``, ``sanitizer`` and ``prof`` observe cluster-level state
    (fault, membership and retransmit events, membership invariants,
    the round loop's phases); ``Session.execute`` passes its own so they
    fire on a solo run exactly as on the query itself.
    """

    def __init__(self, dgraph, base_config, recorder=None, sanitizer=None,
                 prof=None):
        self.dgraph = dgraph
        self.config = base_config
        if prof is None and base_config.profile:
            from ..obs.prof import PhaseProfiler  # deferred: obs is optional

            prof = PhaseProfiler()
        self.prof = prof
        if dgraph.num_machines != base_config.num_machines:
            raise ExecutionError(
                f"graph partitioned for {dgraph.num_machines} machines but "
                f"config requests {base_config.num_machines}"
            )
        # Race-detector mode: one seeded rng permutes the whole cluster's
        # service order; None keeps the canonical schedule.
        self.schedule_seed = base_config.schedule_seed
        self._sched_rng = (
            random.Random(self.schedule_seed)
            if self.schedule_seed is not None
            else None
        )
        self.schedule_fingerprint = None
        # One shared seeded injector: all co-resident queries see the same
        # lossy interconnect and the same machine outages.  Fault-plan
        # crash/stall rounds are *global* cluster rounds.
        if base_config.faults is not None:
            from ..faults import FaultInjector  # deferred: avoids import cycle

            self.injector = FaultInjector(
                base_config.faults, base_config.num_machines, obs=recorder
            )
        else:
            self.injector = None
        # One cluster-level failure detector (like the injector, failure
        # is a property of the machines, not of any one query): every
        # query's failover / partial / abandonment decisions ride the
        # same quorum-confirmed verdicts.
        if self.injector is not None and base_config.membership_enabled:
            from ..membership import MembershipService

            self.membership = MembershipService.from_config(
                base_config, injector=self.injector, obs=recorder,
                sanitizer=sanitizer,
            )
        else:
            self.membership = None
        self.network = ClusterNetwork(
            base_config.num_machines,
            base_config.net_delay_rounds,
            faults=self.injector,
            retransmit_timeout_rounds=base_config.retransmit_timeout_rounds,
            membership=self.membership,
        )
        # Cluster-level failover state, created lazily with the first
        # recovery-enabled query: logical->physical placement is shared
        # (a machine moves for everyone consulting the map), rollback is
        # per query.
        self.host_map = None
        # One entry per permanent crash: which queries actually rolled
        # back — the blast radius the chaos tests and `repro chaos
        # --concurrency` bound.
        self.blast_radius = []
        self.round_no = 0
        self.active = []  # admission order
        self.pending = []  # bounded FIFO of not-yet-admitted QueryTasks
        self._next_query_id = 1
        self.admitted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, plan, sink_factory, config=None, obs=None):
        """Queue one query; returns its :class:`QueryTask`.

        Raises :class:`AdmissionError` when the concurrency limit *and*
        the pending queue are both full.
        """
        config = self.config if config is None else config
        _check_concurrent_config(config, self)
        if config.num_machines != self.config.num_machines:
            raise ConfigError(
                f"query config requests {config.num_machines} machines but "
                f"the cluster has {self.config.num_machines}"
            )
        if config.net_delay_rounds != self.config.net_delay_rounds:
            raise ConfigError(
                "query config net_delay_rounds="
                f"{config.net_delay_rounds} differs from the cluster's "
                f"{self.config.net_delay_rounds} (the interconnect is shared)"
            )
        if (
            len(self.active) >= self.config.max_concurrent_queries
            and len(self.pending) >= self.config.admission_queue_limit
        ):
            self.rejected += 1
            raise AdmissionError(
                f"admission queue full: {len(self.active)} running, "
                f"{len(self.pending)} pending (max_concurrent_queries="
                f"{self.config.max_concurrent_queries}, "
                f"admission_queue_limit={self.config.admission_queue_limit})"
            )
        query_id = self._next_query_id
        self._next_query_id += 1
        sanitizer = sanitizer_from_config(config, obs=obs)
        # Reliable transport resolves against the *cluster's* chaos, not
        # the query's own (usually unset) fault field: explicit flag wins,
        # else ARQ is armed exactly when something can be lost or the
        # query wants the retransmit queue as its replay log.
        if config.reliable_transport is not None:
            reliable = config.reliable_transport
        else:
            reliable = self.injector is not None or config.recovery
        channel = self.network.open_channel(
            query_id, plan.num_slots, sanitizer=sanitizer, obs=obs,
            prof=self.prof, reliable=reliable,
            retransmit_timeout_rounds=config.retransmit_timeout_rounds,
        )
        if obs is not None:
            obs.configure(config.num_machines, config.quantum)
        task = QueryTask(
            query_id, self.dgraph, plan, config, sink_factory, channel,
            sanitizer=sanitizer, obs=obs, prof=self.prof,
        )
        # Recovery is only meaningful when something can crash: without an
        # injector the manager (and its checkpoints) is skipped.
        if config.recovery and self.injector is not None:
            from ..recovery import RecoveryManager  # deferred: import cycle

            task.recovery = RecoveryManager(
                task.slices, channel, self.dgraph, self.injector,
                sanitizer=sanitizer, obs=obs, prof=self.prof,
                host_map=self._ensure_host_map(), query_id=query_id,
                membership=self.membership,
            )
        task.membership = self.membership
        self.pending.append(task)
        self._admit()
        return task

    def _ensure_host_map(self):
        """Create the shared failover map with the first recovery query.

        Seeded with any machines the membership detector has already
        confirmed down: a query admitted after a confirmed crash must
        never place state on the dead host.  (A crash not yet confirmed
        is — correctly — not visible here; the detector will confirm it
        and failover will fire then.)
        """
        if self.host_map is None:
            from ..recovery import HostMap  # deferred: import cycle

            self.host_map = HostMap(self.config.num_machines)
            already_dead = (
                self.membership.confirmed_down()
                if self.membership is not None
                else ()
            )
            if already_dead:
                self.host_map.fail_over(already_dead)
                for host in already_dead:
                    self.membership.fence(host, self.round_no)
        return self.host_map

    def _admit(self):
        """Move pending tasks onto the cluster up to the concurrency cap."""
        while (
            self.pending
            and len(self.active) < self.config.max_concurrent_queries
        ):
            task = self.pending.pop(0)
            task.admitted_round = self.round_no + 1
            task.watchdog.reset(self.round_no)
            if task.recovery is not None:
                # Initial checkpoint before the query's first round: a
                # crash during depth-0 bootstrap rolls back to the
                # pristine pre-query state.
                task.recovery.checkpoint(self.round_no, "initial")
            self.active.append(task)
            self.admitted += 1
            if task.obs is not None:
                task.obs.cluster_instant(
                    "query.start",
                    args={
                        "query": task.query_id,
                        "stages": len(task.plan.stages),
                    },
                )

    def cancel(self, task):
        """Withdraw a query; returns True unless it had already finished.

        A pending task is simply dequeued; an active one is torn down
        without the settle/audit epilogue (its in-flight traffic dies with
        its private channel).  Either way the task ends ``cancelled`` with
        no stats, its checkpoints and transport namespace released —
        even mid-rollback — without perturbing co-resident queries.
        """
        if task.finished:
            return False
        task.cancelled = True
        task.finished = True
        if task in self.pending:
            self.pending.remove(task)
        if task in self.active:
            self.active.remove(task)
            self._admit()
        task.release_resources()
        self.network.close_channel(task.query_id)
        return True

    # ------------------------------------------------------------------
    # Fault handling (shared cluster clock)
    # ------------------------------------------------------------------
    def _slice_up(self, task, logical, round_no):
        """Availability of the host running ``task``'s slice ``logical``."""
        if self.injector is None:
            return True
        return self.injector.machine_up(task.host_of(logical), round_no)

    def _hosted_logicals(self, task, host):
        """``task``'s logical machines currently on physical ``host``."""
        if task.recovery is not None:
            return self.host_map.hosted_on(host)
        return (host,)

    def _apply_crashes(self, crashed, round_no):
        """Crash instants: lose the crashed hosts' RX queues — nothing
        else.

        The RX loss hits *every* query with a logical machine on the
        crashed host (durable machine state survives — fail-recover
        model; reliable senders still hold the frames).  Nobody *knows*
        about the crash yet: failover waits for the membership detector's
        quorum-confirmed verdict (:meth:`_apply_confirmed`).
        """
        for host in crashed:
            for task in self.active:
                for logical in self._hosted_logicals(task, host):
                    task.channel.lose_queue(logical)

    def _apply_confirmed(self, confirmed, round_no):
        """Detection-driven failover: the membership detector just
        CONFIRMED ``confirmed`` down.

        Triggers one cluster-level failover (when any recovery-enabled
        query ever armed the shared host map), after which only the
        recovery-enabled queries roll back to their own latest
        checkpoints — that set is the confirmation's blast radius.
        Queries without recovery keep addressing the dead host and
        degrade to partial results via their watchdogs.
        """
        rolled = []
        dead = list(confirmed)
        if self.host_map is not None:
            new_dead, orphaned = self.host_map.fail_over(confirmed)
            if new_dead is None:
                return  # already failed over (idempotent re-report)
            dead = list(new_dead)
            for task in self.active:
                if task.recovery is None:
                    continue
                task.recovery.rollback(orphaned, round_no, dead=new_dead)
                # The rollback may rewind conclusions: re-sync the
                # scheduler's view and reset the progress clock for the
                # replay.
                for s in task.slices:
                    task.concluded[s.id] = s.protocol.concluded
                task.watchdog.reset(round_no)
                task.quiescent_round = None
                rolled.append(task.query_id)
            # Failover executed: evict the dead hosts from the membership
            # view for good.
            for host in dead:
                self.membership.fence(host, round_no)
        self.blast_radius.append(
            {"round": round_no, "dead": dead, "rolled_back": rolled}
        )

    # ------------------------------------------------------------------
    # The global round loop
    # ------------------------------------------------------------------
    def step(self):
        """Run one global round; returns the tasks that finished in it."""
        self.round_no += 1
        round_no = self.round_no
        finished = []
        prof = self.prof
        injector = self.injector

        # Round prologue on each query's own clock: round cap and
        # deadline first, so an expired query leaves before it receives
        # or computes anything; then the recorder's virtual clock.
        for task in self.active:
            config = task.config
            local = task.local_round(round_no)
            if local > config.max_rounds or (
                config.deadline is not None and local > config.deadline
            ):
                self._guarded(self._expire, task, round_no, finished)
            elif task.obs is not None:
                task.obs.begin_round(local)
        if finished:
            self._retire(finished, round_no)

        # Fault prologue: crashes fire on the shared cluster clock and
        # hit every co-resident query at once.
        if injector is not None:
            crashed = injector.begin_round(round_no)
            if crashed:
                self._apply_crashes(crashed, round_no)

        # Failure-detection phase: one detector round on the shared
        # clock; newly confirmed hosts trigger the (cluster-level)
        # failover for every recovery-enabled query.
        membership = self.membership
        if membership is not None:
            confirmed = membership.tick(round_no)
            if confirmed:
                self._apply_confirmed(confirmed, round_no)

        # Delivery phase: each slice drains its query's private channel;
        # a down host receives nothing (messages wait in the network).
        if prof is not None:
            prof.enter("sched.deliver")
        for task in self.active:
            for s in task.slices:
                if not self._slice_up(task, s.id, round_no):
                    continue
                delivered = self.network.drain(s.id, task.query_id, round_no)
                if membership is not None and delivered:
                    # Piggybacked liveness: every delivered message is
                    # evidence its sender's host was alive.
                    observer = task.host_of(s.id)
                    for msg in delivered:
                        membership.heard(
                            observer, task.host_of(msg.src_machine), round_no
                        )
                s.deliver(delivered)
        if prof is not None:
            prof.exit()

        # Execution phase: split each physical host's quantum fairly
        # across the query slices it currently runs (after a failover one
        # host may run several logical machines of the same query).  The
        # race detector permutes the host order.
        if prof is not None:
            prof.enter("sched.compute")
        rng = self._sched_rng
        hosts = range(self.config.num_machines)
        if rng is not None:
            hosts = rng.sample(hosts, len(hosts))
            self.schedule_fingerprint = hash(
                (self.schedule_fingerprint, tuple(hosts))
            )
        used = {}  # (query_id, logical) -> cost units this round
        for host in hosts:
            slices = []
            for task in self.active:
                for logical in self._hosted_logicals(task, host):
                    slices.append((task, task.slices[logical]))
            if not slices:
                continue
            if injector is not None and not injector.machine_up(host, round_no):
                for _task, s in slices:
                    s.stats.stalled_rounds += 1
                continue
            self._run_machine_round(round_no, slices, used, rng)
        consumed_by_task = {}
        for (query_id, _logical), units in used.items():
            consumed_by_task[query_id] = (
                consumed_by_task.get(query_id, 0.0) + units
            )
        if prof is not None:
            prof.exit()

        # One global tick drives every reliable channel's retransmit
        # timer (each query's ARQ state is private to its channel).
        self.network.tick(round_no)

        # Per-query protocol phase: heartbeats, termination, watchdogs —
        # all on the query's own clock (rounds since admission).
        if prof is not None:
            prof.enter("sched.protocol")
        ended = []
        for task in self.active:
            if task.obs is not None:
                task.obs.record_round(
                    task.local_round(round_no),
                    [used.get((task.query_id, s.id), 0.0) for s in task.slices],
                )
            if consumed_by_task.get(task.query_id, 0.0) > 0.0:
                task.watchdog.observe(round_no, True)
                task.quiescent_round = None
            else:
                if task.quiescent_round is None and task.is_quiescent():
                    task.quiescent_round = task.local_round(round_no)
                # An outage under deliberation is not a stall: the
                # detector's unconfirmed suspicions reset the progress
                # clock (hosts may come back, retransmissions pending).
                task.watchdog.observe(round_no, False, membership)
            self._guarded(self._drive_protocol, task, round_no, ended)
        if prof is not None:
            prof.exit()

        if ended:
            self._retire(ended, round_no)
            finished.extend(ended)
        if finished:
            self._admit()
        return finished

    def _guarded(self, phase, task, round_no, finished):
        """Run ``phase(task, round_no)``; collect ``task`` if it finished.

        An :class:`ExecutionError` belongs to one query, not the cluster:
        it is parked on the task (re-raised by ``QueryHandle.result`` and
        ``SimBackend.run``) and the other queries keep running.
        """
        try:
            done = phase(task, round_no)
        except ExecutionError as error:
            task.error = error
            task.partial = True
            task.finalize(round_no, self)
            done = True
        if done:
            finished.append(task)

    def _retire(self, tasks, round_no):
        """Take finished tasks off the cluster and close their channels."""
        for task in tasks:
            self.active.remove(task)
            self.network.close_channel(task.query_id)
            if task.obs is not None:
                task.obs.cluster_instant(
                    "query.end",
                    args={
                        "query": task.query_id,
                        "rounds": task.stats.rounds if task.stats else None,
                        "quiescent_round": task.quiescent_round,
                    },
                    round_no=task.local_round(round_no),
                )

    def _run_machine_round(self, round_no, slices, used, rng):
        """Fair work-conserving quantum split on one physical host.

        Pass 1 offers every slice an equal share of the quantum; slices
        that consume (almost) their whole share are *hungry* and split
        whatever the others left idle in further passes.  Busy/idle round
        accounting is charged once per slice at the end, on its total,
        which lands in ``used`` under ``(query_id, slice.id)``: after a
        failover one host can legitimately run two slices of the same
        query.
        """
        remaining = self.config.quantum
        for task, s in slices:
            used[(task.query_id, s.id)] = 0.0
        hungry = list(slices)
        passes = 0
        while hungry and remaining > self.config.quantum * _SHARE_EPSILON:
            share = remaining / len(hungry)
            spent_this_pass = 0.0
            still_hungry = []
            for task, s in hungry:
                spent = s.run_slice(round_no, share, rng=rng)
                used[(task.query_id, s.id)] += spent
                spent_this_pass += spent
                if spent >= share * (1.0 - _SHARE_EPSILON):
                    still_hungry.append((task, s))
            remaining = max(0.0, remaining - spent_this_pass)
            hungry = still_hungry
            passes += 1
            if passes >= _MAX_PASSES:
                break
        for task, s in slices:
            s.account_round(used[(task.query_id, s.id)])

    def _expire(self, task, round_no):
        """End a task whose round cap or deadline has passed.

        Past the deadline the task finishes with whatever rows its
        machines produced, flagged incomplete and timed out, before it
        receives or computes anything this round; past the round cap it
        fails.
        """
        local = task.local_round(round_no)
        config = task.config
        if local > config.max_rounds:
            raise ExecutionError(
                f"query {task.query_id} exceeded max_rounds="
                f"{config.max_rounds} (runaway query or configuration "
                "too tight)"
            )
        task.partial = True
        task.timed_out = True
        if self.membership is not None:
            # The *detected* dead, not ground truth: a crash the detector
            # had not confirmed by the deadline is indistinguishable from
            # slowness.
            task.down_machines = self.membership.confirmed_down()
        if task.obs is not None:
            task.obs.cluster_instant(
                "scheduler.deadline",
                args={"deadline": config.deadline, "round": local},
                round_no=local,
            )
        task.finalize(round_no, self)
        return True

    def _drive_protocol(self, task, round_no):
        """Heartbeats / termination / watchdogs for one task.

        Returns True when the task finished this round (concluded, or
        degraded to partial results on a permanent unrecovered crash);
        raises on stall.
        """
        local = task.local_round(round_no)
        config = task.config
        membership = self.membership
        if local % config.status_interval == 0:
            for s in task.slices:
                if not self._slice_up(task, s.id, round_no):
                    continue  # a down machine broadcasts nothing
                s.broadcast_status(round_no)
            if task.sanitizer is not None:
                task.sanitizer.check_global_counts(
                    [s.tracker for s in task.slices]
                )
            done = True
            for s in task.slices:
                if not self._slice_up(task, s.id, round_no):
                    done = done and task.concluded[s.id]
                    continue
                if not task.concluded[s.id]:
                    task.concluded[s.id] = s.check_termination()
                done = done and task.concluded[s.id]
            if done:
                if task.obs is not None:
                    task.obs.cluster_instant(
                        "termination.concluded",
                        args={"round": local},
                        round_no=local,
                    )
                task.finalize(round_no, self)
                return True
            if task.recovery is not None:
                # Checkpoint cadence rides this query's own termination
                # protocol: cut one whenever new channels terminated
                # globally for *this* query.
                task.recovery.maybe_checkpoint(round_no)
        if task.watchdog.expired(round_no):
            failed_over = (
                task.recovery.failed_over if task.recovery is not None else ()
            )
            verdict, hosts = resolve_stall(membership, failed_over)
            if verdict == "partial":
                # Confirmed-down hosts this query did not recover from:
                # give up on their share of the work and return what the
                # survivors produced, flagged incomplete.
                task.partial = True
                task.down_machines = hosts
                if task.obs is not None:
                    task.obs.cluster_instant(
                        "scheduler.partial",
                        args={"down": list(hosts), "round": local},
                        round_no=local,
                    )
                task.finalize(round_no, self)
                return True
            if verdict == "quorum":
                raise quorum_lost_error(hosts, round_no, config.stall_limit)
            task._diagnose_stall(round_no)
        return False

    def run(self):
        """Step until every submitted query has finished.

        Returns all tasks finished during this call, in completion order.
        The global round counter keeps advancing across calls, so
        interleaving ``submit``/``run`` is fine.
        """
        finished = []
        while self.active or self.pending:
            self._admit()
            finished.extend(self.step())
        return finished

    @property
    def makespan(self):
        """Global rounds elapsed on the shared cluster clock."""
        return self.round_no
