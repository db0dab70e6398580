"""The fleet executor: one coordinator, N leased workers, one broker.

:class:`FleetExecutor` satisfies the engine's executor contract — its
``run(payloads)`` returns one cell result per payload, in payload order
— but instead of a thread or process pool it drives a work queue: every
cell is enqueued on a broker keyed by its job digest, workers lease
cells, compute them through the very same
:func:`~repro.evaluation.engine._execute_payload` path as every other
executor, heartbeat while busy, and complete back to the broker with
their values.  Lost workers and lost completions are therefore
recoverable by protocol (expire → backoff → requeue → dead-letter), not
by luck.

There is one worker and one coordinator loop.  Without
``FleetOptions.broker`` each run starts an ephemeral
:class:`~repro.fleet.net.BrokerServer` on a loopback port and
``n_workers`` :class:`~repro.fleet.net.FleetWorker` threads against it
— the loop ``repro fleet-worker`` runs as a process — under the
options' :class:`~repro.fleet.faults.FaultSchedule`.  With a broker
address it coordinates the socket broker there while real worker
processes compute.  Either way the coordinator polls the broker on the
wall clock, reaping expired leases, until every cell is DONE or DEAD,
then reads every cell's state and values back.  Values are
bit-identical to serial regardless of scheduling, because every
:class:`~repro.evaluation.TrialJob` carries its own seed material, and
every injected fault is a pure function of the schedule seed, the cell
digest and the attempt.

Cells the fleet could not complete (retry exhaustion) are returned as
placeholder values with ``cacheable=False`` so the engine never
persists them; their provenance lands in :attr:`FleetExecutor.dead_letters`
for the run record.  Set ``dead_letter_policy="raise"`` to fail the
run instead.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import ReproError
from .backoff import BackoffPolicy
from .broker import DEAD, DONE
from .faults import FaultSchedule


class FleetError(ReproError, RuntimeError):
    """The fleet could not finish a grid (dead letters under ``raise``,
    or a coordinator stall, which is always a bug)."""


@dataclass(frozen=True)
class FleetOptions:
    """Tuning knobs for one fleet: pool size, lease policy, faults.

    The defaults describe the CI fleet: 4 workers, a 5-second lease kept
    alive by 2-second heartbeats, 3 attempts per cell, and no injected
    faults.  Leases, heartbeats and polls all run on the wall clock, so
    a kill or a drop costs one ``lease_timeout`` before the cell
    retries; tests that inject faults shorten the lease.
    """

    n_workers: int = 4
    lease_timeout: float = 5.0
    heartbeat_interval: float = 2.0
    max_attempts: int = 3
    backoff: BackoffPolicy = BackoffPolicy()
    faults: FaultSchedule = FaultSchedule()
    #: ``"record"`` returns placeholder cells (``cacheable=False``) and
    #: surfaces dead letters in stats/records; ``"raise"`` aborts.
    dead_letter_policy: str = "record"
    #: ``HOST:PORT`` of a networked broker server.  When set,
    #: :class:`FleetExecutor` enqueues onto that broker instead of
    #: starting its own; ``n_workers``/``heartbeat_interval``/``faults``
    #: then describe nothing — real worker processes bring their own.
    broker: Optional[str] = None
    #: Poll cadence (seconds between the coordinator's expire/settle
    #: sweeps, and between an idle in-process worker's lease polls) and
    #: per-``run`` wall-clock budget.
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
    expiries and retries, or the schedule silently did nothing).
    ``reconnects`` (client re-connections after I/O loss) and
    ``replayed`` (journal mutations a restarted broker rebuilt from)
    are the recovery counters — nonzero means a run rode out broker
    downtime.
    """

    enqueued: int = 0
    leased: int = 0
    heartbeats: int = 0
    completed: int = 0
    duplicates: int = 0
    late: int = 0
    expired: int = 0
    retried: int = 0
    dead: int = 0
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

    ``options.broker`` picks where the broker and workers live.  Unset,
    each run starts a loopback :class:`~repro.fleet.net.BrokerServer`
    and ``n_workers`` :class:`~repro.fleet.net.FleetWorker` threads,
    and tears both down before returning.  Set, each run resets the
    broker at that address while real worker processes (``python -m
    repro fleet-worker``) compute.  Either way the coordinator speaks to
    its broker through a :class:`~repro.fleet.net.SocketBroker` and
    settles by reading every cell back from it.

    One instance accumulates :attr:`stats` and :attr:`dead_letters`
    across its ``run`` calls; the service tier creates one per recorded
    run so the totals describe exactly that record.
    """

    def __init__(self, options: Optional[FleetOptions] = None):
        self.options = options if options is not None else FleetOptions()
        self.stats = FleetStats()
        self.dead_letters: List[Dict[str, object]] = []

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
        from ..evaluation.engine import _require_picklable
        # Payloads cross a socket even in process: refuse a closure
        # before any broker or worker thread starts.
        _require_picklable(payloads[0][0], "fleet")
        opts = self.options
        if opts.broker:
            settled = self._settle(opts.broker, payloads)
        else:
            with _local_fleet(opts) as (address, failures):
                settled = self._settle(address, payloads, failures)
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

    def _settle(self, address: str, payloads: Sequence[Tuple],
                failures: Sequence[BaseException] = ()
                ) -> Dict[str, Optional[Tuple]]:
        """Reset the broker at ``address``, enqueue, and read back.

        Returns each cell's ``(values, elapsed)`` by digest; a
        dead-lettered cell settles to ``None``.  ``failures`` collects
        what in-process worker threads raised (a point function that
        raises); the first one is re-raised here instead of waiting
        for the cell to dead-letter.
        """
        # Imported lazily: the networked tier imports this module.
        from .net.client import SocketBroker
        opts = self.options
        broker = SocketBroker(address, lease_timeout=opts.lease_timeout,
                              max_attempts=opts.max_attempts,
                              backoff=opts.backoff, reset=True,
                              force_reset=opts.force_reset,
                              reconnect_timeout=opts.reconnect_timeout)
        try:
            jobs: Dict[str, object] = {}
            for point, job in payloads:
                if broker.enqueue(job.digest, (point, job)):
                    jobs[job.digest] = job
            self._await_settled(broker, len(jobs), address, failures)
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
        return settled

    def _await_settled(self, broker, n_cells: int, address: str,
                       failures: Sequence[BaseException]) -> None:
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
                        f"{opts.run_timeout}s: broker at {address} "
                        f"unreachable ({exc})")
                time.sleep(opts.poll_interval)
                continue
            if outstanding == 0:
                return
            if failures:
                raise failures[0]
            if now >= deadline:
                raise FleetError(
                    f"fleet did not settle {n_cells} cells within "
                    f"{opts.run_timeout}s (are any workers running against "
                    f"{address}?)")
            time.sleep(opts.poll_interval)

    # -- telemetry -----------------------------------------------------------

    def _harvest(self, broker, jobs: Dict) -> None:
        """Fold one settled broker into the executor-lifetime telemetry."""
        for name, value in broker.counters.items():
            setattr(self.stats, name, getattr(self.stats, name) + value)
        self.stats.reconnects += broker.reconnects
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


@contextmanager
def _local_fleet(opts: FleetOptions
                 ) -> Iterator[Tuple[str, List[BaseException]]]:
    """A loopback broker with ``n_workers`` worker threads.

    Yields the broker address and the list into which a thread puts
    what its worker loop raised before it gives up.

    Each thread runs the production :class:`~repro.fleet.net.FleetWorker`
    loop under ``opts.faults``.  A scheduled kill ends that loop through
    a no-op ``on_kill`` — the lease dangles exactly as a dead process's
    would — and the thread re-enters it at once, so the pool keeps its
    size.  On exit the workers finish their current attempt, their
    threads are joined, and the server is stopped: nothing outlives
    the run.
    """
    # Imported lazily: the networked tier imports this module.
    from .net import BrokerServer, FleetWorker, SocketBroker
    server = BrokerServer().start()
    stop = threading.Event()
    workers, threads = [], []
    failures: List[BaseException] = []

    def respawn(worker):
        while not stop.is_set():
            try:
                worker.run()
            except Exception as exc:  # noqa: BLE001 - the coordinator raises it
                failures.append(exc)
                return

    try:
        for index in range(opts.n_workers):
            client = SocketBroker(server.address,
                                  reconnect_timeout=opts.reconnect_timeout)
            worker = FleetWorker(client, faults=opts.faults,
                                 poll_interval=opts.poll_interval,
                                 heartbeat_interval=opts.heartbeat_interval,
                                 on_kill=lambda: None,
                                 label=f"fleet-worker-{index}")
            thread = threading.Thread(target=respawn, args=(worker,),
                                      name=f"repro-fleet-worker-{index}",
                                      daemon=True)
            workers.append(worker)
            threads.append(thread)
            thread.start()
        yield server.address, failures
    finally:
        stop.set()
        for worker in workers:
            worker.stop()
        for thread in threads:
            thread.join()
        for worker in workers:
            worker.broker.close()
        server.stop()
