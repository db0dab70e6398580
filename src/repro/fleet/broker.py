"""The work-queue broker: leases, heartbeats, requeues, dead letters.

The broker is the fleet's only shared state.  A coordinator
:meth:`~InProcessBroker.enqueue`\\ s digest-keyed jobs; workers
:meth:`~InProcessBroker.lease` them, :meth:`~InProcessBroker.heartbeat`
while computing, and :meth:`~InProcessBroker.complete` when done.  Time
never flows inside the broker — every method takes an explicit ``now``,
so the same state machine runs against the wall clock in every fleet
and against scripted instants in the state-machine tests.

Task lifecycle::

    QUEUED --lease--> LEASED --complete--> DONE
      ^                  |
      |   lease expired  |  attempts < max_attempts:
      +------------------+  requeue after backoff.delay(key, attempt)
                         |
                         |  attempts >= max_attempts
                         v
                        DEAD  (a DeadLetter record, surfaced upstream)

Fault tolerance is structural, not aspirational:

* a lease that misses its heartbeats expires and the job is requeued
  with capped exponential backoff (:class:`~repro.fleet.backoff.BackoffPolicy`);
* retries are bounded — exhaustion produces a :class:`DeadLetter`
  instead of an infinite loop;
* completion is idempotent — a second completion of a DONE task (a
  straggler whose lease expired and was redelivered, or a resent
  completion) is counted and ignored, which is safe *because* tasks
  are digest-addressed: any two completions of one key carry
  bit-identical values.

The method contract (enqueue/lease/heartbeat/complete/fail/expire, the
``state``/``result``/``outstanding`` observers, and
``dead_letters``/``counters``) is what
:class:`~repro.fleet.net.BrokerServer` serves and
:class:`~repro.fleet.net.SocketBroker` mirrors over the wire, so a
redis- or ray-backed broker honouring it would slot in behind the same
server.

Crash safety is opt-in: pass a :class:`~repro.fleet.journal.Journal`
and every successful mutation is appended to the write-ahead log
*before* it is applied, so :func:`~repro.fleet.journal.replay_journal`
rebuilds the exact broker state after a crash.  Only mutations are
journalled — a no-op call (an empty-queue ``lease``, a duplicate
``enqueue``, a dead-lease ``heartbeat``) and a raising call (an
unknown lease id) leave no record, which is what keeps replay from
re-raising or double-counting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exceptions import ReproError
from .backoff import BackoffPolicy

#: Task states.
QUEUED = "queued"
LEASED = "leased"
DONE = "done"
DEAD = "dead"


class BrokerBusyError(ReproError, RuntimeError):
    """A ``reset`` was refused: leases are outstanding, so a fresh
    broker would silently discard another coordinator's in-flight run.
    Pass ``force=True`` to discard it anyway."""


@dataclass(frozen=True)
class Lease:
    """One delivery of one task to one worker.

    ``attempt`` is the 0-based retry index of the task at delivery
    time.
    """

    lease_id: int
    key: str
    attempt: int
    deadline: float
    payload: object = None


@dataclass(frozen=True)
class DeadLetter:
    """A task that exhausted its retries, kept for the run record."""

    key: str
    attempts: int
    reason: str
    payload: object = None


@dataclass
class _Task:
    """Broker-internal per-task state."""

    key: str
    payload: object
    state: str = QUEUED
    attempts: int = 0
    not_before: float = 0.0
    #: Active leases: lease_id -> deadline.
    leases: Dict[int, float] = field(default_factory=dict)
    #: Every lease id ever issued for this task — the set to prune from
    #: the broker's lease index once the task resolves (DONE/DEAD).
    history: List[int] = field(default_factory=list)
    #: The completed values (and compute seconds) the first completion
    #: shipped; the coordinator reads them back to settle the run.
    result: Optional[Tuple[List[float], Optional[float]]] = None


class InProcessBroker:
    """A single-process, dict-backed broker: the fleet's state machine.

    Not thread-safe by design: :class:`~repro.fleet.net.BrokerServer`
    serves one instance to every coordinator and worker connection and
    serialises their calls under one lock, and the state-machine tests
    drive it from one thread.
    """

    def __init__(self, *, lease_timeout: float = 5.0, max_attempts: int = 3,
                 backoff: Optional[BackoffPolicy] = None, journal=None):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {lease_timeout}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = int(max_attempts)
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        #: Optional write-ahead log (:class:`~repro.fleet.journal.Journal`
        #: or anything with ``append(op, args)``); assignable after
        #: construction, which is how a replayed broker resumes logging.
        self.journal = journal
        #: Mutations re-applied from a journal to build this broker
        #: (set by :func:`~repro.fleet.journal.replay_journal`).  Kept
        #: out of :attr:`counters` deliberately: the counters must
        #: equal the pre-crash broker's for replay to be bit-for-bit.
        self.replayed = 0
        self._tasks: Dict[str, _Task] = {}
        self._order: List[str] = []
        self._lease_owner: Dict[int, str] = {}
        self._next_lease = 0
        self.dead_letters: List[DeadLetter] = []
        self.counters: Dict[str, int] = {
            "enqueued": 0, "leased": 0, "heartbeats": 0,
            "completed": 0, "duplicates": 0, "late": 0, "expired": 0,
            "retried": 0, "dead": 0,
        }

    def _record(self, op: str, **args: object) -> None:
        """Write-ahead hook: log one mutation before applying it."""
        if self.journal is not None:
            self.journal.append(op, args)

    # -- producing -----------------------------------------------------------

    def enqueue(self, key: str, payload: object = None) -> bool:
        """Add a task; a key already known is idempotently ignored."""
        if key in self._tasks:
            return False
        self._record("enqueue", key=key, payload=payload)
        self._tasks[key] = _Task(key=key, payload=payload)
        self._order.append(key)
        self.counters["enqueued"] += 1
        return True

    # -- worker side ---------------------------------------------------------

    def lease(self, now: float) -> Optional[Lease]:
        """Deliver the oldest eligible queued task, or ``None``.

        Eligible means QUEUED with its backoff hold (``not_before``)
        elapsed.  Leasing increments the task's attempt count and arms
        a deadline ``now + lease_timeout``; the worker must heartbeat
        before the deadline or the lease expires.
        """
        for key in self._order:
            task = self._tasks[key]
            if task.state == QUEUED and task.not_before <= now:
                # The FIFO scan is a pure function of broker state, so
                # journalling just ``now`` replays the same delivery.
                self._record("lease", now=now)
                task.state = LEASED
                task.attempts += 1
                lease_id = self._next_lease
                self._next_lease += 1
                deadline = now + self.lease_timeout
                task.leases[lease_id] = deadline
                task.history.append(lease_id)
                self._lease_owner[lease_id] = task.key
                self.counters["leased"] += 1
                return Lease(lease_id=lease_id, key=key,
                             attempt=task.attempts - 1, deadline=deadline,
                             payload=task.payload)
        return None

    def heartbeat(self, lease_id: int, now: float) -> bool:
        """Extend a live lease to ``now + lease_timeout``.

        Returns ``False`` for a lease that already expired (or never
        existed) — the worker should abandon the attempt, because the
        broker has requeued or dead-lettered the task.
        """
        key = self._lease_owner.get(lease_id)
        if key is None:
            return False
        task = self._tasks[key]
        if lease_id not in task.leases:
            return False
        self._record("heartbeat", lease_id=lease_id, now=now)
        task.leases[lease_id] = now + self.lease_timeout
        self.counters["heartbeats"] += 1
        return True

    def _resolve_owner(self, lease_id: int) -> Optional[str]:
        """The key a lease id maps to, or ``None`` for a *pruned* id.

        Lease ids of resolved (DONE/DEAD) tasks are pruned from the
        index so a long-lived broker cannot leak one entry per lease;
        a pruned-but-once-issued id therefore resolves to ``None``
        (its task settled long ago), while an id that was *never*
        issued is a caller bug and raises.
        """
        key = self._lease_owner.get(lease_id)
        if key is None and not 0 <= lease_id < self._next_lease:
            raise KeyError(f"unknown lease id {lease_id}")
        return key

    def _prune(self, task: _Task) -> None:
        """Drop a resolved task's lease ids from the owner index."""
        for lease_id in task.history:
            self._lease_owner.pop(lease_id, None)
        task.history.clear()

    def complete(self, lease_id: int, now: float,
                 values: Optional[List[float]] = None,
                 elapsed: Optional[float] = None) -> str:
        """Report a finished attempt; idempotent by construction.

        ``values`` (and ``elapsed``) ship the computed cell through the
        broker: the first completion pins them, a :meth:`result` query
        reads them back.  Every fleet worker passes them — the broker is
        the only channel to the coordinator.

        Returns one of:

        * ``"completed"`` — first completion, lease was still live;
        * ``"late"`` — first completion, but the lease had already
          expired (the task was in flight again).  Accepted anyway:
          digest-addressed values are deterministic, so the late result
          equals whatever a retry would have produced;
        * ``"duplicate"`` — the task was already DONE (a resent
          completion or an even later straggler).  Counted and ignored.
        """
        key = self._resolve_owner(lease_id)
        # Even an absorbed duplicate mutates a counter, so every
        # non-raising completion is journalled.
        self._record("complete", lease_id=lease_id, now=now,
                     values=None if values is None
                     else [float(v) for v in values], elapsed=elapsed)
        if key is None:
            # A straggler for a task that already resolved and had its
            # lease ids pruned: absorb it like any other duplicate.
            self.counters["duplicates"] += 1
            return "duplicate"
        task = self._tasks[key]
        if task.state in (DONE, DEAD):
            # Already settled (DEAD: exhausted while this straggler
            # computed; the dead letter already shipped) — absorb.
            self.counters["duplicates"] += 1
            return "duplicate"
        live = lease_id in task.leases
        task.state = DONE
        task.leases.clear()
        if values is not None:
            task.result = ([float(v) for v in values], elapsed)
        self._prune(task)
        self.counters["completed"] += 1
        if not live:
            self.counters["late"] += 1
            return "late"
        return "completed"

    def fail(self, lease_id: int, now: float, reason: str = "failed") -> str:
        """A worker explicitly reports an attempt failed.

        Faster than waiting for lease expiry, same outcome: requeue
        with backoff, or a dead letter once attempts are exhausted.
        Returns ``"requeued"``, ``"dead"``, or ``"ignored"`` (the task
        already completed via another lease).
        """
        key = self._resolve_owner(lease_id)
        if key is None:
            return "ignored"
        self._record("fail", lease_id=lease_id, now=now, reason=reason)
        task = self._tasks[key]
        task.leases.pop(lease_id, None)
        if task.state != LEASED:
            return "ignored"
        if task.leases:
            return "ignored"
        return self._requeue_or_bury(task, now, reason)

    def expire(self, now: float) -> List[int]:
        """Reap every lease whose deadline has passed; returns their ids.

        A LEASED task whose last lease expired is requeued (with the
        backoff hold) or dead-lettered.  Leases left dangling on DONE
        tasks are simply dropped.
        """
        if self.journal is not None and any(
                deadline <= now
                for task in self._tasks.values()
                for deadline in task.leases.values()):
            # Pre-scan instead of recording per-reap: one journal record
            # replays the whole sweep, and a no-op sweep leaves none.
            self._record("expire", now=now)
        reaped: List[int] = []
        for key in self._order:
            task = self._tasks[key]
            dead = [lid for lid, deadline in task.leases.items()
                    if deadline <= now]
            for lid in dead:
                del task.leases[lid]
                self.counters["expired"] += 1
                reaped.append(lid)
            if task.state == LEASED and dead and not task.leases:
                self._requeue_or_bury(task, now, "lease expired")
        return reaped

    def _requeue_or_bury(self, task: _Task, now: float, reason: str) -> str:
        """Send a failed task back to the queue, or to the dead letters."""
        if task.attempts >= self.max_attempts:
            task.state = DEAD
            self._prune(task)
            letter = DeadLetter(
                key=task.key, attempts=task.attempts,
                reason=f"{reason} after {task.attempts} attempts",
                payload=task.payload)
            self.dead_letters.append(letter)
            self.counters["dead"] += 1
            return "dead"
        task.state = QUEUED
        task.not_before = now + self.backoff.delay(task.key,
                                                   task.attempts - 1)
        self.counters["retried"] += 1
        return "requeued"

    # -- observation ---------------------------------------------------------

    def state(self, key: str) -> str:
        """The lifecycle state of one task."""
        return self._tasks[key].state

    def result(self, key: str) -> Optional[Tuple[List[float], Optional[float]]]:
        """The ``(values, elapsed)`` a completion shipped, or ``None``.

        ``None`` means the task has not completed with values: it is
        pending, dead, or was completed by a caller that passed none.
        """
        return self._tasks[key].result

    def outstanding(self) -> int:
        """How many tasks are not yet DONE or DEAD."""
        return sum(1 for t in self._tasks.values()
                   if t.state in (QUEUED, LEASED))

    def active_leases(self) -> int:
        """How many live leases workers currently hold.

        Non-zero means some coordinator's run is in flight — the signal
        ``reset`` uses to refuse discarding it without ``force``.
        """
        return sum(len(t.leases) for t in self._tasks.values())

    def snapshot(self) -> Dict[str, object]:
        """The complete observable state, as comparable plain data.

        Two brokers are in identical states iff their snapshots are
        equal — the property the journal replay tests assert.  Payloads
        are excluded (they are opaque caller objects whose equality is
        not the broker's to define); everything else is covered: config,
        per-task lifecycle, lease ids and deadlines, queue order, the
        lease index, counters, and dead letters.
        """
        return {
            "config": {
                "lease_timeout": self.lease_timeout,
                "max_attempts": self.max_attempts,
                "backoff": asdict(self.backoff),
            },
            "tasks": {
                key: {
                    "state": task.state,
                    "attempts": task.attempts,
                    "not_before": task.not_before,
                    "leases": dict(task.leases),
                    "history": list(task.history),
                    "result": task.result,
                }
                for key, task in self._tasks.items()
            },
            "order": list(self._order),
            "lease_owner": dict(self._lease_owner),
            "next_lease": self._next_lease,
            "counters": dict(self.counters),
            "dead_letters": [(letter.key, letter.attempts, letter.reason)
                             for letter in self.dead_letters],
        }
