"""``python -m repro broker`` — the shared broker behind a TCP socket.

One :class:`~repro.fleet.broker.InProcessBroker` (which is not
thread-safe by design) guarded by one lock, served to any number of
coordinator and worker connections by a
:class:`socketserver.ThreadingTCPServer`.  Every wire operation maps to
one broker method call under the lock, so every fleet — the loopback
one ``--executor fleet`` starts per run, and a networked one — inherits
the state machine and the broker-level tests unchanged.

The server keeps no clock, like the broker it wraps: every
time-dependent operation carries the caller's ``now``.  Coordinators
and workers send ``time.time()`` (the protocol assumes loosely
NTP-synchronised hosts; lease timeouts are seconds, not microseconds),
and the contract tests send scripted instants.  It measures only its
own wait: a ``lease``/``outstanding`` with ``wait`` long-polls until a
mutation changes the broker, and a lease granted after ``W`` seconds
is stamped (and journalled) at ``now + W``, never with a stale deadline.
An ``outstanding`` with ``now`` reaps first, so the coordinator's
settle wait is also its lease reaper.

A ``reset`` operation atomically replaces the broker with a fresh one
configured by the caller (lease policy and backoff travel as plain
parameters) and answers with the ``ping`` info.  The coordinator
issues it once per networked run so counters and dead letters describe
exactly that run.  Two coordinators sharing one broker cannot silently
clobber each other: ``reset`` refuses with
:class:`~repro.fleet.broker.BrokerBusyError` while workers hold live
leases (an in-flight run), unless the caller passes ``force=true``.

Crash safety: started with ``--journal PATH`` the broker write-ahead
logs every mutation through :class:`~repro.fleet.journal.Journal`.  On
restart the server replays the journal and resumes the in-flight run —
queue, leases, attempt counts, counters, and dead letters are rebuilt
bit-for-bit, and the coordinator/workers reconnect to a broker that
remembers exactly where they left off.  A ``reset`` compacts the
journal to a single config record, so it never grows across runs.
"""

from __future__ import annotations

import argparse
import signal
import socket
import socketserver
import threading
import time
from typing import Dict, List, Optional

from ..backoff import BackoffPolicy
from ..broker import BrokerBusyError, InProcessBroker
from ..journal import Journal, replay_journal
from . import protocol


class _BrokerHandler(socketserver.StreamRequestHandler):
    """One connection: a loop of request frames, each answered once."""

    def handle(self):
        """Serve frames until the peer disconnects."""
        while True:
            try:
                frame = protocol.read_frame(self.rfile)
            except protocol.ProtocolError as exc:
                protocol.write_frame(self.wfile, protocol.error_response(exc))
                return
            if frame is None:
                return
            try:
                result = self.server.broker_server.dispatch(
                    frame.get("op"), frame.get("args") or {})
                response = {"ok": True, "result": result}
            except Exception as exc:  # noqa: BLE001 - becomes a wire error
                response = protocol.error_response(exc)
            try:
                protocol.write_frame(self.wfile, response)
            except OSError:
                return


class _ThreadingServer(socketserver.ThreadingTCPServer):
    """Connection-per-thread TCP server with fast restart semantics.

    Live connections are tracked so shutdown can *sever* them: without
    that, daemon handler threads would keep serving a stopped server's
    stale broker — and the in-process restart tests could never model a
    broker death, where every peer sees its connection drop.
    """

    allow_reuse_address = True
    daemon_threads = True
    broker_server: "BrokerServer"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._connections = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address):
        """Track the connection, then hand off to the handler thread."""
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        """Untrack a connection its handler finished with."""
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self):
        """Sever every live connection; blocked handlers see EOF."""
        with self._connections_lock:
            connections = list(self._connections)
        for request in connections:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                request.close()
            except OSError:
                pass


class BrokerServer:
    """A lock-protected :class:`InProcessBroker` behind a TCP listener.

    ``port=0`` binds an ephemeral port; read the resolved address back
    from :attr:`host`/:attr:`port` after construction (the smoke
    harness and tests rely on this, exactly like the HTTP tier).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 lease_timeout: float = 5.0, max_attempts: int = 3,
                 backoff: Optional[BackoffPolicy] = None,
                 journal: Optional[str] = None):
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._closing = False
        self._journal: Optional[Journal] = None
        broker: Optional[InProcessBroker] = None
        if journal is not None:
            # Opening performs crash recovery (torn tail truncated).  A
            # journal with records is a crashed broker to resume — its
            # config record wins over our constructor arguments; an
            # empty one is a fresh boot that writes its config first.
            self._journal = Journal(journal)
            if self._journal.records_on_disk > 0:
                broker = replay_journal(journal)
            else:
                self._journal.reset(lease_timeout=lease_timeout,
                                    max_attempts=max_attempts,
                                    backoff=backoff or BackoffPolicy())
        if broker is None:
            broker = InProcessBroker(lease_timeout=lease_timeout,
                                     max_attempts=max_attempts,
                                     backoff=backoff)
        broker.journal = self._journal
        self._broker = broker
        self._server = _ThreadingServer((host, port), _BrokerHandler)
        self._server.broker_server = self
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        """The resolved ``HOST:PORT`` this server listens on."""
        return f"{self.host}:{self.port}"

    @property
    def replayed(self) -> int:
        """Journal mutations replayed into the current broker at boot."""
        return self._broker.replayed

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "BrokerServer":
        """Serve on a background thread; returns self for chaining.

        The accept loop wakes every 50 ms (``socketserver`` defaults to
        500), so :meth:`stop` — once per in-process fleet run — returns
        promptly.
        """
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        args=(0.05,), name="repro-broker",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entry point)."""
        self._server.serve_forever()

    def stop(self) -> None:
        """Stop serving, sever live connections, flush and close the log."""
        self.end_waits()
        self._server.shutdown()
        self._server.close_connections()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._close_journal()

    def close(self) -> None:
        """Release sockets and journal without a shutdown handshake.

        For the blocking (CLI) path, where ``serve_forever`` has already
        returned — calling :meth:`stop`'s ``shutdown()`` there would
        deadlock.
        """
        self.end_waits()
        self._server.close_connections()
        self._server.server_close()
        self._close_journal()

    def end_waits(self) -> None:
        """Answer every long-poll now, and every later one at once
        (the first step of :meth:`stop` and :meth:`close`)."""
        with self._changed:
            self._closing = True
            self._changed.notify_all()

    def _close_journal(self) -> None:
        """Close the journal under the dispatch lock (no mid-append races)."""
        if self._journal is not None:
            with self._lock:
                self._journal.close()

    def __enter__(self) -> "BrokerServer":
        """Start serving on entry."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop serving on exit."""
        self.stop()

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, op: str, args: Dict[str, object]) -> object:
        """Execute one wire operation against the broker, under the lock.

        Payloads pass through opaque: the server never unpickles what
        it queues, it only hands the encoded string back inside the
        lease.  An ``outstanding`` with ``now`` reaps expired leases
        first.  A ``lease``/``outstanding`` with ``wait`` retries on each
        state change until it succeeds or ``wait`` seconds run out.
        """
        wait = args.get("wait") if op in ("lease", "outstanding") else None
        with self._changed:
            if (op == "outstanding" and args.get("now") is not None
                    and self._broker.expire(args["now"])):
                self._changed.notify_all()
            if wait is None:
                result = self._apply(op, args)
                # Falsy: duplicate enqueues or an empty expire, no change.
                changed = any(result) if op == "enqueue" else result
                if changed and op in ("enqueue", "complete", "expire",
                                      "reset"):
                    self._changed.notify_all()
                return result
            start, waited = time.monotonic(), 0.0
            while not self._closing:
                if op == "outstanding":
                    if self._broker.outstanding() == 0:
                        return 0
                else:
                    lease = self._apply(op, dict(args,
                                                 now=args["now"] + waited))
                    if lease is not None:
                        return lease
                if waited >= wait:
                    break
                self._changed.wait(wait - waited)
                waited = time.monotonic() - start
            return None if op == "lease" else self._broker.outstanding()

    def _apply(self, op: str, args: Dict[str, object]) -> object:
        """One wire operation against the current broker; lock held."""
        broker = self._broker
        if op == "ping":
            return {"protocol": protocol.PROTOCOL_VERSION,
                    "lease_timeout": broker.lease_timeout,
                    "max_attempts": broker.max_attempts}
        if op == "enqueue":
            return [broker.enqueue(key, payload)
                    for key, payload in args["items"]]
        if op == "lease":
            lease = broker.lease(args["now"])
            return None if lease is None else protocol.lease_to_wire(lease)
        if op == "heartbeat":
            return broker.heartbeat(args["lease_id"], args["now"])
        if op == "complete":
            return broker.complete(args["lease_id"], args["now"],
                                   values=args.get("values"),
                                   elapsed=args.get("elapsed"))
        if op == "expire":
            return broker.expire(args["now"])
        if op == "outstanding":
            return broker.outstanding()
        if op == "settle":
            # ``replayed`` rides along without living in the broker's
            # counters dict: recovery provenance for stats surfaces,
            # excluded from the replayed-state-equality contract.
            return {"cells": [[broker.state(key),
                               protocol.result_to_wire(broker.result(key))]
                              for key in args["keys"]],
                    "counters": {**broker.counters,
                                 "replayed": broker.replayed},
                    "dead_letters": [protocol.letter_to_wire(letter)
                                     for letter in broker.dead_letters]}
        if op == "reset":
            held = broker.active_leases()
            if held and not args.get("force"):
                raise BrokerBusyError(
                    f"reset refused: {held} lease(s) on "
                    f"{broker.outstanding()} unsettled task(s) are "
                    f"outstanding — another coordinator's run is in "
                    f"flight (pass force=true to discard it)")
            lease_timeout = args.get("lease_timeout",
                                     broker.lease_timeout)
            max_attempts = args.get("max_attempts", broker.max_attempts)
            backoff = (BackoffPolicy(**args["backoff"])
                       if args.get("backoff") else broker.backoff)
            if self._journal is not None:
                # A fresh run needs no history: compact the journal
                # down to the new broker's config record.
                self._journal.reset(lease_timeout=lease_timeout,
                                    max_attempts=max_attempts,
                                    backoff=backoff)
            self._broker = InProcessBroker(lease_timeout=lease_timeout,
                                           max_attempts=max_attempts,
                                           backoff=backoff,
                                           journal=self._journal)
            return self._apply("ping", {})
        raise protocol.ProtocolError(f"unknown op {op!r}")


def _graceful_exit(signum, frame):  # pragma: no cover - signal path
    """SIGTERM handler: unwind through the finally blocks and exit 0."""
    raise SystemExit(0)


def run_broker(host: str = "127.0.0.1", port: int = 8421, *,
               lease_timeout: float = 5.0, max_attempts: int = 3,
               journal: Optional[str] = None) -> int:
    """Blocking entry point for ``python -m repro broker``.

    Installs a SIGTERM handler so service managers (and the smoke
    harness) get a clean shutdown: the journal is flushed and closed,
    the listening socket released, and the process exits 0.  SIGINT
    (Ctrl-C) takes the same path via ``KeyboardInterrupt``.
    """
    server = BrokerServer(host, port, lease_timeout=lease_timeout,
                          max_attempts=max_attempts, journal=journal)
    print(f"[broker] listening on {server.address} "
          f"lease_timeout={server._broker.lease_timeout} "
          f"max_attempts={server._broker.max_attempts} (Ctrl-C to stop)",
          flush=True)
    if journal is not None:
        print(f"[broker] journal {journal} "
              f"replayed={server.replayed} "
              f"outstanding={server._broker.outstanding()}", flush=True)
    signal.signal(signal.SIGTERM, _graceful_exit)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        print("[broker] stopped" + (" (journal flushed)"
                                    if journal is not None else ""),
              flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone argv entry (``python -m repro.fleet.net.server``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro broker",
        description="Serve a fleet broker over TCP, optionally journalled "
                    "for crash recovery.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8421,
                        help="port to listen on (0 picks an ephemeral port)")
    parser.add_argument("--lease-timeout", type=float, default=5.0)
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--journal", metavar="PATH",
                        help="write-ahead journal file: every broker "
                             "mutation is logged and fsynced before it is "
                             "applied, and a restart replays the file to "
                             "resume the in-flight run")
    args = parser.parse_args(argv)
    return run_broker(args.host, args.port, lease_timeout=args.lease_timeout,
                      max_attempts=args.max_attempts, journal=args.journal)


if __name__ == "__main__":  # pragma: no cover - exercised by the smoke CI job
    raise SystemExit(main())
