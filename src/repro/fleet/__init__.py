"""Fault-tolerant work-queue executor (``--executor fleet``).

One coordinator, :class:`~repro.fleet.executor.FleetExecutor`, enqueues
digest-addressed :class:`~repro.evaluation.TrialJob` cells onto a
broker; workers lease, heartbeat, compute, and complete them with their
values, and the coordinator settles the run by reading every cell back
from the broker.  Lost workers, lost completions, and duplicated
deliveries are absorbed by protocol — lease expiry, capped-exponential
requeue, bounded retries, dead letters, idempotent completion.

Without a broker address the workers are simulated on a virtual clock
under a seeded fault schedule, so every failure mode is exercised
deterministically in tier-1 tests; with ``FleetOptions.broker`` the
same coordinator drives a socket broker and real worker processes
(:mod:`repro.fleet.net`).  Broker death itself is recoverable through
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
from .clock import ManualClock
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
    "ManualClock",
    "QUEUED",
    "read_journal",
    "replay_journal",
]
