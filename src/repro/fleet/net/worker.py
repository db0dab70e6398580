"""``python -m repro fleet-worker`` — the fleet's one worker loop.

Lease a digest-keyed cell from the socket broker (a long-poll the
broker answers as soon as a cell is leasable), heartbeat on the wall
clock while computing, execute through the *unchanged* engine job path
(:func:`~repro.evaluation.engine._execute_payload` — the same function
every local executor calls), and complete back with the trial values.
The broker is the worker's only channel: the coordinator
(:class:`~repro.fleet.executor.FleetExecutor`) reads the values back
from it once the run settles.
Because each :class:`~repro.evaluation.TrialJob` carries its own seed
material, a cell computed on any worker on any machine is bit-identical
to a serial run of the same grid.

Workers may hold a local :class:`~repro.evaluation.ResultCache`: a
leased cell already present locally completes instantly, and
``--cache-max-cells`` keeps a long-lived worker's cache from growing
without bound while the digests of the committed run records
(``--results-dir``) stay pinned.

The same loop runs as a process (``repro fleet-worker``) and on the
threads of an in-process ``--executor fleet`` run, which starts a
loopback broker per run.  A :class:`~repro.fleet.faults.FaultSchedule`
drives chaos in both: a scheduled kill is ``os._exit`` mid-lease in a
process (heartbeats stop, the broker reaps the lease) and a no-op
``on_kill`` on a thread, which abandons the lease and re-enters the
loop; a scheduled drop discards the completion message.  CI uses
forced ``(digest, attempt)`` coordinates to murder exactly one worker
per run and still demand a bit-identical record.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from typing import List, Optional, Tuple

from ..backoff import BackoffPolicy
from ..broker import Lease
from ..faults import FaultSchedule
from .client import SocketBroker

#: Exit status of a fault-killed worker, distinguishable from crashes.
KILL_EXIT_STATUS = 17


def _default_kill() -> None:  # pragma: no cover - exercised in subprocesses
    """Die the way a faulted machine dies: no cleanup, no goodbye."""
    os._exit(KILL_EXIT_STATUS)


class FleetWorker:
    """One worker: lease, heartbeat, compute, complete — until stopped.

    ``poll_interval`` bounds one lease long-poll at the broker, below
    the client's socket ``timeout`` (a timed-out read would resend).
    ``heartbeat_interval`` defaults to a third of the broker's
    ``lease_timeout``.
    ``on_kill`` is the fault-injection death hook: the CLI worker uses
    ``os._exit`` (a real process death, mid-lease), while worker
    threads substitute a soft stop so :meth:`run` returns and simply
    abandons its lease — indistinguishable from death as far as the
    broker is concerned.
    """

    def __init__(self, broker: SocketBroker, *, cache=None,
                 faults: Optional[FaultSchedule] = None,
                 poll_interval: float = 0.2,
                 heartbeat_interval: Optional[float] = None,
                 retry: Optional[BackoffPolicy] = None,
                 on_kill=None, label: str = "worker"):
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, "
                             f"got {poll_interval}")
        if poll_interval >= broker.timeout:
            raise ValueError(f"poll_interval ({poll_interval}) must be "
                             f"below the broker client's socket timeout "
                             f"({broker.timeout})")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            # Event.wait(0) returns at once: the heartbeat thread would
            # spin, journalling one broker mutation per iteration.
            raise ValueError(f"heartbeat_interval must be > 0, "
                             f"got {heartbeat_interval}")
        self.broker = broker
        self.cache = cache
        self.faults = faults if faults is not None else FaultSchedule()
        self.poll_interval = float(poll_interval)
        self.heartbeat_interval = (heartbeat_interval if heartbeat_interval
                                   is not None
                                   else broker.lease_timeout / 3.0)
        #: Backoff between lease polls while the broker is unreachable
        #: — a worker outlives broker downtime instead of exiting.
        self.retry = (retry if retry is not None
                      else BackoffPolicy(base=0.2, factor=2.0, cap=5.0,
                                         jitter=0.1))
        self.on_kill = on_kill if on_kill is not None else _default_kill
        self.label = label
        self.leased = 0
        self.completed = 0
        self.dropped = 0
        self.cache_hits = 0
        self.broker_retries = 0
        self.abandoned = 0
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the run loop to exit after the current lease settles."""
        self._stop.set()

    def run(self) -> int:
        """Lease and compute until stopped; returns cells leased.

        An unreachable broker does not kill the worker: lease polls are
        retried under the seeded :attr:`retry` backoff (counted in
        :attr:`broker_retries`) until the broker returns — restarted
        from its journal, redelivering idempotently — or :meth:`stop`
        is called.
        """
        outages = 0
        while not self._stop.is_set():
            try:
                lease = self.broker.lease(time.time(),
                                          wait=self.poll_interval)
            except (ConnectionError, OSError):
                self.broker_retries += 1
                self._stop.wait(self.retry.delay("lease", min(outages, 60)))
                outages += 1
                continue
            outages = 0
            if lease is None:
                continue
            self.leased += 1
            if not self._attempt(lease):
                # The kill hook declined to die for real (a test double):
                # abandon the lease exactly as a dead process would.
                break
        return self.leased

    # -- one attempt ---------------------------------------------------------

    def _attempt(self, lease: Lease) -> bool:
        """Run one leased attempt; ``False`` means "this worker died"."""
        if self.faults.kill_worker(lease.key, lease.attempt):
            print(f"[{self.label}] killed mid-lease "
                  f"cell={lease.key} attempt={lease.attempt}", flush=True)
            self.on_kill()
            return False
        values, elapsed = self._compute(lease)
        if self.faults.drop_completion(lease.key, lease.attempt):
            # The completion message is "lost in transit": never sent.
            # The lease dangles until the broker reaps it and retries.
            self.dropped += 1
            print(f"[{self.label}] dropped completion "
                  f"cell={lease.key} attempt={lease.attempt}", flush=True)
            return True
        try:
            status = self.broker.complete(lease.lease_id, time.time(),
                                          values=values, elapsed=elapsed)
        except (ConnectionError, OSError, KeyError):
            # The broker stayed unreachable past the client's reconnect
            # window (or restarted without this lease — pre-journal or
            # post-reset).  Abandon the attempt: the protocol repairs it
            # like any dropped completion, by expiry and retry.
            self.abandoned += 1
            print(f"[{self.label}] abandoned completion "
                  f"cell={lease.key} attempt={lease.attempt} "
                  f"(broker unreachable)", flush=True)
            return True
        if status in ("completed", "late"):
            self.completed += 1
        return True

    def _compute(self, lease: Lease) -> Tuple[List[float], Optional[float]]:
        """The cell's values: from the local cache, or freshly computed.

        Fresh computation runs under a heartbeat thread beating every
        :attr:`heartbeat_interval` wall-clock seconds, so a slow cell's
        lease stays alive exactly as long as this process does.
        """
        point, job = lease.payload
        if self.cache is not None:
            cached = self.cache.get(job)
            if cached is not None:
                self.cache_hits += 1
                return cached, None
        beat_stop = threading.Event()

        def beat():
            while not beat_stop.wait(self.heartbeat_interval):
                try:
                    if not self.broker.heartbeat(lease.lease_id,
                                                 time.time()):
                        return  # lease gone; the broker moved on
                except (OSError, ConnectionError):
                    return
        beater = threading.Thread(target=beat, daemon=True,
                                  name=f"repro-heartbeat-{lease.lease_id}")
        beater.start()
        try:
            from ...evaluation.engine import _execute_payload
            values, elapsed = _execute_payload((point, job))
        finally:
            beat_stop.set()
            beater.join(timeout=5.0)
        if self.cache is not None:
            self.cache.put(job, values)
        return values, elapsed


# ---------------------------------------------------------------------------
# CLI entry point.
# ---------------------------------------------------------------------------

def _parse_coordinate(text: str) -> Tuple[str, int]:
    """A forced-fault flag value ``DIGEST:ATTEMPT`` as a tuple."""
    digest, sep, attempt = text.rpartition(":")
    if not sep or not digest:
        raise argparse.ArgumentTypeError(
            f"expected DIGEST:ATTEMPT, got {text!r}")
    try:
        return digest, int(attempt)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"attempt must be an integer in {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet-worker",
        description="Lease and compute fleet cells from a socket broker.")
    parser.add_argument("--broker", metavar="HOST:PORT",
                        default=os.environ.get("REPRO_FLEET_BROKER"),
                        help="broker address (default: $REPRO_FLEET_BROKER)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="local cell cache directory")
    parser.add_argument("--results-dir", metavar="DIR", default=None,
                        help="committed record store whose cell digests "
                             "are pinned against cache eviction")
    parser.add_argument("--cache-max-cells", type=int, default=None,
                        metavar="N", help="evict the local cache down to N "
                                          "cells (LRU, pins exempt)")
    parser.add_argument("--poll", type=float, default=0.2, metavar="S",
                        help="longest a lease request waits at the "
                             "broker for work (must be below 30)")
    parser.add_argument("--kill", action="append", default=[],
                        type=_parse_coordinate, metavar="DIGEST:ATTEMPT",
                        help="die mid-lease at this exact coordinate "
                             "(repeatable)")
    parser.add_argument("--drop", action="append", default=[],
                        type=_parse_coordinate, metavar="DIGEST:ATTEMPT",
                        help="lose the completion at this exact coordinate "
                             "(repeatable)")
    return parser


def _graceful_exit(signum, frame):  # pragma: no cover - signal path
    """SIGTERM handler: unwind through the finally blocks and exit 0."""
    raise SystemExit(0)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one worker process against a broker until SIGTERM/Ctrl-C.

    Both signals shut down cleanly: the exit line is printed, the
    broker connection is closed, and the process exits 0.
    """
    args = _build_parser().parse_args(argv)
    if not args.broker:
        print("error: no broker address (pass --broker HOST:PORT or set "
              "REPRO_FLEET_BROKER)", file=sys.stderr)
        return 2
    if not args.cache and (args.cache_max_cells is not None
                           or args.results_dir):
        print("error: --cache-max-cells and --results-dir need --cache",
              file=sys.stderr)
        return 2
    cache = None
    if args.cache:
        from ...evaluation import ResultCache
        pinned = set()
        if args.results_dir:
            from ...results import baseline_digests
            if not os.path.isdir(args.results_dir):
                # Pinning nothing would let eviction take exactly the
                # cells the named records promise to keep.
                print(f"error: results directory {args.results_dir} does "
                      f"not exist", file=sys.stderr)
                return 2
            pinned = baseline_digests(args.results_dir)
        try:
            cache = ResultCache(args.cache, max_cells=args.cache_max_cells,
                                pinned=pinned)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    faults = FaultSchedule(kill=frozenset(args.kill),
                           drop=frozenset(args.drop))
    try:
        broker = SocketBroker(args.broker)
    except (OSError, ConnectionError, ValueError) as exc:
        print(f"error: cannot reach broker at {args.broker}: {exc}",
              file=sys.stderr)
        return 1
    label = f"worker:{os.getpid()}"
    try:
        worker = FleetWorker(broker, cache=cache, faults=faults,
                             poll_interval=args.poll, label=label)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        broker.close()
        return 2
    print(f"[{label}] polling broker {args.broker} "
          f"lease_timeout={broker.lease_timeout}", flush=True)
    signal.signal(signal.SIGTERM, _graceful_exit)
    try:
        worker.run()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        print(f"[{label}] exiting leased={worker.leased} "
              f"completed={worker.completed} dropped={worker.dropped} "
              f"abandoned={worker.abandoned} "
              f"broker_retries={worker.broker_retries} "
              f"cache_hits={worker.cache_hits}", flush=True)
        broker.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the smoke CI job
    raise SystemExit(main())
