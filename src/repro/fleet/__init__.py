"""Fault-tolerant work-queue executor (``--executor fleet``).

One coordinator, :class:`~repro.fleet.executor.FleetExecutor`, enqueues
digest-addressed :class:`~repro.evaluation.TrialJob` cells onto a
broker; workers lease, heartbeat, compute, and complete them with their
values, and the coordinator settles the run by reading every cell back
from the broker.  Lost workers and lost completions are absorbed by
protocol — lease expiry, capped-exponential requeue, bounded retries,
dead letters, idempotent completion.

There is one worker loop, :class:`~repro.fleet.net.FleetWorker`
(:mod:`repro.fleet.net`).  Without a broker address each run starts a
loopback broker server and runs that loop on ``n_workers`` threads
under a seeded :class:`~repro.fleet.faults.FaultSchedule`; with
``FleetOptions.broker`` the same coordinator drives a socket broker
and real worker processes.  Broker death itself is recoverable through
the write-ahead :class:`~repro.fleet.journal.Journal`: every mutation
is logged before it is applied and
:func:`~repro.fleet.journal.replay_journal` rebuilds the broker
bit-for-bit on restart.  See ``docs/engine.md`` ("Fleet executor") for
the protocol and state diagram.
"""

from .backoff import BackoffPolicy
from .broker import (
    DEAD,
    DONE,
    LEASED,
    QUEUED,
    BrokerBusyError,
    DeadLetter,
    InProcessBroker,
    Lease,
)
from .executor import (
    FleetError,
    FleetExecutor,
    FleetOptions,
    FleetStats,
)
from .faults import FaultSchedule
from .journal import Journal, JournalError, read_journal, replay_journal

__all__ = [
    "BackoffPolicy",
    "BrokerBusyError",
    "DEAD",
    "DONE",
    "DeadLetter",
    "FaultSchedule",
    "FleetError",
    "FleetExecutor",
    "FleetOptions",
    "FleetStats",
    "InProcessBroker",
    "Journal",
    "JournalError",
    "LEASED",
    "Lease",
    "QUEUED",
    "read_journal",
    "replay_journal",
]
