"""The fleet executor: one coordinator, N leased workers, one broker.

:class:`FleetExecutor` satisfies the engine's executor contract — its
``run(payloads)`` returns one cell result per payload, in payload order
— but instead of a thread or process pool it drives a work queue: every
cell is enqueued on a broker keyed by its job digest, workers lease
cells, compute them through the very same
:func:`~repro.evaluation.engine._execute_payload` path as every other
executor, heartbeat while busy, and complete back to the broker with
their values.  Lost workers, lost completions, and duplicated
deliveries are therefore recoverable by protocol (expire → backoff →
requeue → dead-letter), not by luck.

The coordinator has two drivers and one settlement.  Without
``FleetOptions.broker`` it simulates the workers on a
:class:`~repro.fleet.clock.ManualClock`: they are cooperatively stepped
on virtual ticks, real compute happens at lease time (bit-identical
regardless of scheduling, because every
:class:`~repro.evaluation.TrialJob` carries its own seed material), and
every injected fault is a pure function of the
:class:`~repro.fleet.faults.FaultSchedule` seed and the cell digest —
the same grid under the same schedule replays the same leases, expiries,
retries and dead letters, which is what lets tier-1 tests assert on
failure modes instead of hoping for them.  With a broker address it
polls a socket broker on the wall clock, reaping expired leases, while
real worker processes compute.  Either way the run settles by reading
every cell's state and values back from the broker.

Cells the fleet could not complete (retry exhaustion) are returned as
placeholder values with ``cacheable=False`` so the engine never
persists them; their provenance lands in :attr:`FleetExecutor.dead_letters`
for the run record.  Set ``dead_letter_policy="raise"`` to fail the
run instead.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ReproError
from .backoff import BackoffPolicy
from .broker import DEAD, DONE, InProcessBroker, Lease
from .clock import ManualClock
from .faults import FaultSchedule


class FleetError(ReproError, RuntimeError):
    """The fleet could not finish a grid (dead letters under ``raise``,
    or a coordinator stall, which is always a bug)."""


@dataclass(frozen=True)
class FleetOptions:
    """Tuning knobs for one fleet: pool size, lease policy, faults.

    The defaults describe the CI fleet: 4 workers, a 5-virtual-second
    lease kept alive by 2-second heartbeats, 3 attempts per cell, and
    no injected faults.  Simulated cell durations span 1–8 virtual
    seconds, so under the defaults long cells genuinely depend on their
    heartbeats — suppressing them (``FaultSchedule.delay``) expires a
    lease mid-compute, exactly the failure the protocol must absorb.
    """

    n_workers: int = 4
    lease_timeout: float = 5.0
    heartbeat_interval: float = 2.0
    max_attempts: int = 3
    tick: float = 1.0
    backoff: BackoffPolicy = BackoffPolicy()
    faults: FaultSchedule = FaultSchedule()
    #: ``"record"`` returns placeholder cells (``cacheable=False``) and
    #: surfaces dead letters in stats/records; ``"raise"`` aborts.
    dead_letter_policy: str = "record"
    #: ``HOST:PORT`` of a networked broker server.  When set,
    #: :class:`FleetExecutor` enqueues onto that broker and polls it on
    #: the wall clock instead of simulating workers;
    #: ``n_workers``/``tick``/``faults`` then describe nothing — real
    #: worker processes bring their own.
    broker: Optional[str] = None
    #: Networked poll cadence (seconds between expire/settle sweeps)
    #: and per-``run`` wall-clock budget.
    poll_interval: float = 0.2
    run_timeout: float = 600.0
    #: How long one remote broker call rides out unreachability
    #: (reconnecting under seeded backoff) before surfacing
    #: ``ConnectionError`` — the window a journalled broker has to
    #: restart unnoticed.
    reconnect_timeout: float = 30.0
    #: Discard another coordinator's in-flight run on ``reset`` instead
    #: of failing with ``BrokerBusyError``.
    force_reset: bool = False

    def __post_init__(self):
        """Validate pool and timing parameters."""
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.lease_timeout <= 0 or self.heartbeat_interval <= 0:
            raise ValueError("lease_timeout and heartbeat_interval must be "
                             "> 0")
        if self.tick <= 0:
            raise ValueError(f"tick must be > 0, got {self.tick}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, "
                             f"got {self.max_attempts}")
        if self.dead_letter_policy not in ("record", "raise"):
            raise ValueError(f"dead_letter_policy must be 'record' or "
                             f"'raise', got {self.dead_letter_policy!r}")
        if self.poll_interval <= 0 or self.run_timeout <= 0:
            raise ValueError("poll_interval and run_timeout must be > 0")
        if self.reconnect_timeout <= 0:
            raise ValueError(f"reconnect_timeout must be > 0, "
                             f"got {self.reconnect_timeout}")
        if self.broker is not None:
            # Validate the HOST:PORT shape eagerly — a typo should fail
            # at option construction, not mid-run inside a socket call.
            from .net.protocol import parse_address
            parse_address(self.broker)


@dataclass
class FleetStats:
    """Observable fleet counters, mergeable across runs and cores.

    ``leased``/``completed``/``retried``/``dead`` are the headline
    counters surfaced by ``/stats`` and ``cache stats --json``; the
    rest pin the fault machinery in tests (a chaos run must show its
    kills and duplicates, or the schedule silently did nothing).
    ``reconnects`` (client re-connections after I/O loss) and
    ``replayed`` (journal mutations a restarted broker rebuilt from)
    are the recovery counters — nonzero means a run rode out broker
    downtime.
    """

    enqueued: int = 0
    leased: int = 0
    duplicated: int = 0
    heartbeats: int = 0
    completed: int = 0
    duplicates: int = 0
    late: int = 0
    expired: int = 0
    retried: int = 0
    dead: int = 0
    killed: int = 0
    dropped: int = 0
    reconnects: int = 0
    replayed: int = 0

    def merge(self, other: "FleetStats") -> None:
        """Accumulate another stats object into this one."""
        for spec in fields(self):
            setattr(self, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain JSON-ready mapping."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def active(self) -> bool:
        """Whether this fleet has done any work at all."""
        return any(getattr(self, spec.name) for spec in fields(self))


class _Worker:
    """One cooperatively-stepped simulated worker."""

    __slots__ = ("lease", "values", "elapsed", "finish_at", "next_beat",
                 "suppress", "drop", "killed")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Return to idle (a completed attempt, or a respawn)."""
        self.lease = None
        self.values = None
        self.elapsed = None
        self.finish_at = 0.0
        self.next_beat = 0.0
        self.suppress = False
        self.drop = False
        self.killed = False

    @property
    def busy(self) -> bool:
        """Whether the worker currently holds a lease."""
        return self.lease is not None


class FleetExecutor:
    """The fleet coordinator: enqueue, drive to settlement, read back.

    Satisfies the engine's executor protocol (``run(payloads)`` →
    one ``(values, elapsed, cacheable)`` triple per payload, in payload
    order), so it drops into :func:`~repro.evaluation.run_grid`,
    :meth:`PanelDef.run <repro.experiments.catalog.PanelDef.run>`, and
    :class:`~repro.service.ServiceCore` unchanged.  Results are
    bit-identical to :class:`~repro.evaluation.SerialExecutor` —
    including under injected faults — because jobs carry their own seed
    material and completion is idempotent per digest.

    ``options.broker`` picks the transport and the driver.  Unset, each
    run gets an :class:`~repro.fleet.broker.InProcessBroker` and
    ``n_workers`` simulated workers stepped on the virtual clock.  Set,
    each run resets the :class:`~repro.fleet.net.SocketBroker` at that
    address and polls it on the wall clock while real worker processes
    (``python -m repro fleet-worker``) compute; ``n_workers``/``tick``/
    ``faults`` then describe nothing.  Either way workers complete with
    their values, so the run settles by reading every cell back from
    the broker.

    One instance accumulates :attr:`stats` and :attr:`dead_letters`
    across its ``run`` calls; the service tier creates one per recorded
    run so the totals describe exactly that record.
    """

    def __init__(self, options: Optional[FleetOptions] = None,
                 clock: Optional[ManualClock] = None, broker_factory=None):
        self.options = options if options is not None else FleetOptions()
        self.clock = clock if clock is not None else ManualClock()
        #: Builds the per-run broker from the lease policy.  Tests
        #: inject a :class:`~repro.fleet.net.SocketBroker` factory here
        #: to run the identical simulation over a real socket server
        #: (the contract, not the transport, decides).
        if broker_factory is None:
            broker_factory = (self._socket_broker if self.options.broker
                              else InProcessBroker)
        self.broker_factory = broker_factory
        self.stats = FleetStats()
        self.dead_letters: List[Dict[str, object]] = []

    def _socket_broker(self, **policy):
        """A freshly reset socket broker at ``options.broker``."""
        # Imported lazily: the networked tier imports this module.
        from .net.client import SocketBroker
        opts = self.options
        return SocketBroker(opts.broker, reset=True,
                            force_reset=opts.force_reset,
                            reconnect_timeout=opts.reconnect_timeout,
                            **policy)

    # -- executor protocol ---------------------------------------------------

    def run(self, payloads: Sequence[Tuple]) -> List[Tuple]:
        """Drive every payload through the fleet; results in payload order.

        Unlike the streaming pool executors this returns a fully
        materialised list: under faults a cell's completion order is a
        scheduling artifact, so the fleet settles the whole grid before
        handing anything back.
        """
        if not payloads:
            return []
        opts = self.options
        broker = self.broker_factory(lease_timeout=opts.lease_timeout,
                                     max_attempts=opts.max_attempts,
                                     backoff=opts.backoff)
        try:
            jobs: Dict[str, object] = {}
            for point, job in payloads:
                if broker.enqueue(job.digest, (point, job)):
                    jobs[job.digest] = job
            if opts.broker:
                self._await_settled(broker, len(jobs))
            else:
                self._simulate(broker)
            # Dead-lettered cells settle to None.
            settled: Dict[str, Optional[Tuple]] = {}
            for key in jobs:
                state = broker.state(key)
                settled[key] = broker.result(key) if state == DONE else None
                if settled[key] is None and state != DEAD:
                    raise FleetError(f"cell {key} is {state!r} without "
                                     f"values after the fleet settled; "
                                     f"this is a fleet bug")
            self._harvest(broker, jobs)
        finally:
            broker.close()
        out: List[Tuple] = []
        for _, job in payloads:
            result = settled[job.digest]
            if result is not None:
                out.append((list(result[0]), result[1], True))
            elif opts.dead_letter_policy == "raise":
                raise FleetError(f"cell {job.digest} dead-lettered after "
                                 f"{opts.max_attempts} attempts")
            else:
                # Placeholder values, never cached: the run completes
                # and records the loss instead of poisoning the cache.
                out.append(([0.0] * job.n_trials, None, False))
        return out

    # -- networked driver ----------------------------------------------------

    def _await_settled(self, broker, n_cells: int) -> None:
        """Poll expire/outstanding until every cell is DONE or DEAD.

        The expire sweep is load-bearing: with every worker dead there
        is nobody else to reap dangling leases, and without reaping a
        crashed fleet would hang the run instead of dead-lettering it.

        Broker downtime degrades the loop instead of killing the run:
        the client already rides out ``reconnect_timeout`` of
        unreachability per call, and a :class:`ConnectionError`
        surfacing past that is absorbed here until the run deadline —
        a broker restarted from its journal resumes settlement exactly
        where the last successful poll left it.
        """
        opts = self.options
        deadline = time.time() + opts.run_timeout
        while True:
            now = time.time()
            try:
                broker.expire(now)
                outstanding = broker.outstanding()
            except (ConnectionError, OSError) as exc:
                if time.time() >= deadline:
                    raise FleetError(
                        f"fleet did not settle {n_cells} cells within "
                        f"{opts.run_timeout}s: broker at {opts.broker} "
                        f"unreachable ({exc})")
                time.sleep(opts.poll_interval)
                continue
            if outstanding == 0:
                return
            if now >= deadline:
                raise FleetError(
                    f"fleet did not settle {n_cells} cells within "
                    f"{opts.run_timeout}s (are any workers running against "
                    f"{opts.broker}?)")
            time.sleep(opts.poll_interval)

    # -- simulated driver ----------------------------------------------------

    def _duration(self, key: str) -> float:
        """A cell's simulated compute time: 1–8 virtual seconds.

        Deterministic per digest, independent of the fault seed, and
        spanning the lease timeout so heartbeats are load-bearing.
        """
        word = hashlib.blake2b(f"duration\x1f{key}".encode("utf-8"),
                               digest_size=8).digest()
        return 1.0 + int.from_bytes(word, "little") % 8

    def _assign(self, worker: _Worker, lease: Lease, now: float) -> None:
        """Hand a lease to a worker, rolling its fault dice."""
        faults = self.options.faults
        worker.lease = lease
        worker.killed = faults.kill_worker(lease.key, lease.attempt)
        worker.drop = faults.drop_completion(lease.key, lease.attempt)
        worker.suppress = faults.delay_heartbeat(lease.key, lease.attempt)
        worker.finish_at = now + self._duration(lease.key)
        worker.next_beat = now + self.options.heartbeat_interval
        if worker.killed:
            # The worker dies mid-job: its values never exist, its
            # lease dangles until the broker reaps it.
            self.stats.killed += 1
            return
        point, job = lease.payload
        from ..evaluation.engine import _execute_payload
        worker.values, worker.elapsed = _execute_payload((point, job))

    def _dispatch(self, broker: InProcessBroker, workers: List[_Worker],
                  now: float, dup_queue: List[str]) -> None:
        """Lease eligible tasks onto idle workers (duplicates included).

        Duplicate deliveries the schedule demands while every worker is
        busy are deferred in ``dup_queue`` and served ahead of fresh
        leases the moment a worker frees — as long as the original
        attempt is still in flight (a task that completed first simply
        never gets its twin, like a real redelivery racing completion).
        """
        faults = self.options.faults
        while dup_queue:
            worker = next((w for w in workers if not w.busy), None)
            if worker is None:
                return
            dup = broker.duplicate_lease(dup_queue.pop(0), now)
            if dup is not None:
                self._assign(worker, dup, now)
        while True:
            worker = next((w for w in workers if not w.busy), None)
            if worker is None:
                return
            lease = broker.lease(now)
            if lease is None:
                return
            self._assign(worker, lease, now)
            if faults.duplicate_delivery(lease.key, lease.attempt):
                dup_queue.append(lease.key)

    def _step(self, broker: InProcessBroker, workers: List[_Worker],
              now: float) -> None:
        """Advance every busy worker one tick: finish, beat, or wait."""
        for worker in workers:
            if not worker.busy or worker.killed:
                continue
            if now >= worker.finish_at:
                if worker.drop:
                    # The completion message is lost in transit; the
                    # lease dangles and the broker will retry the cell.
                    self.stats.dropped += 1
                else:
                    broker.complete(worker.lease.lease_id, now,
                                    values=worker.values,
                                    elapsed=worker.elapsed)
                worker.reset()
            elif now >= worker.next_beat:
                if not worker.suppress:
                    broker.heartbeat(worker.lease.lease_id, now)
                worker.next_beat = now + self.options.heartbeat_interval

    def _simulate(self, broker: InProcessBroker) -> None:
        """The simulated fleet: dispatch, tick, step, reap — to quiescence."""
        opts = self.options
        workers = [_Worker() for _ in range(opts.n_workers)]
        limit = 1000 + int(
            200 * broker.counters["enqueued"] * opts.max_attempts)
        iterations = 0
        dup_queue: List[str] = []
        while broker.outstanding() > 0:
            iterations += 1
            if iterations > limit:
                raise FleetError(
                    f"fleet made no progress after {limit} ticks with "
                    f"{broker.outstanding()} cells outstanding; "
                    f"this is a coordinator bug")
            now = self.clock.now()
            self._dispatch(broker, workers, now, dup_queue)
            if not any(w.busy for w in workers):
                # Everything queued is on a backoff hold: jump straight
                # to the next release instead of spinning ticks.
                hold = broker.next_eligible()
                if hold is not None and hold > now:
                    self.clock.advance(hold - now)
                    continue
            now = self.clock.advance(opts.tick)
            self._step(broker, workers, now)
            reaped = set(broker.expire(now))
            for worker in workers:
                if (worker.busy and worker.killed
                        and worker.lease.lease_id in reaped):
                    # The broker noticed the death; respawn the worker.
                    worker.reset()

    # -- telemetry -----------------------------------------------------------

    def _harvest(self, broker, jobs: Dict) -> None:
        """Fold one settled broker into the executor-lifetime telemetry."""
        for name, value in broker.counters.items():
            setattr(self.stats, name, getattr(self.stats, name) + value)
        self.stats.reconnects += getattr(broker, "reconnects", 0)
        for letter in broker.dead_letters:
            job = jobs[letter.key]
            self.dead_letters.append({
                "digest": letter.key,
                "series_value": job.series_value,
                "sweep_value": job.sweep_value,
                "attempts": letter.attempts,
                "reason": letter.reason,
            })

    def record_payload(self) -> Dict[str, object]:
        """The ``fleet`` key for a run record: counters + dead letters.

        Environment metadata like ``timings``: excluded from ``run_id``,
        emitted only for fleet-executed runs, so every other record
        round-trips byte-for-byte unchanged.
        """
        payload: Dict[str, object] = {"counters": self.stats.as_dict()}
        if self.dead_letters:
            payload["dead_letters"] = [dict(d) for d in self.dead_letters]
        return payload
