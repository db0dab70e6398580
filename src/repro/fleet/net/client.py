"""``SocketBroker`` — the broker method contract over a TCP connection.

A drop-in for :class:`~repro.fleet.broker.InProcessBroker`: same
methods, same signatures, same return shapes, same exceptions.  It is
the only way the coordinator,
:class:`~repro.fleet.executor.FleetExecutor`, and every
:class:`~repro.fleet.net.FleetWorker` talk to a broker — the loopback
one of an in-process fleet or a networked one — and it is what lets
the broker contract tests run verbatim against the socket.  The
observers read through :meth:`SocketBroker.settle`, one op for any keys.

The client is thread-safe (one lock around each request/response
exchange) so a worker's heartbeat thread can share its compute loop's
connection.  A broken connection is retried transparently with a fresh
socket: every operation is safe to resend, because the broker protocol
itself absorbs redelivery — ``enqueue`` is idempotent by key (a
resent batch answers False for keys that already landed),
``complete`` by construction (a resent completion is counted as a
duplicate and ignored), and ``heartbeat``/``expire`` converge.

Reconnection runs under the fleet's seeded
:class:`~repro.fleet.backoff.BackoffPolicy` with an overall wall-clock
deadline (``reconnect_timeout``), not a fixed retry count: a broker
that is SIGKILLed and restarted from its journal within the window is
indistinguishable from a slow network — the client reconnects, resends,
and the run resumes.  Only after the deadline does a
:class:`ConnectionError` surface.  :attr:`SocketBroker.reconnects`
counts successful re-connections for the stats surfaces.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..backoff import BackoffPolicy
from ..broker import DeadLetter, Lease
from . import protocol


def _backoff_to_args(backoff: Optional[BackoffPolicy]
                     ) -> Optional[Dict[str, object]]:
    """A backoff policy as plain ``reset`` parameters."""
    if backoff is None:
        return None
    return {"base": backoff.base, "factor": backoff.factor,
            "cap": backoff.cap, "jitter": backoff.jitter,
            "seed": backoff.seed}


class SocketBroker:
    """A remote broker client satisfying the in-process method contract.

    ``reset=True`` (the coordinator's mode) installs a fresh broker on
    the server configured with this client's ``lease_timeout`` /
    ``max_attempts`` / ``backoff``, so one run's counters and dead
    letters never bleed into the next.  The server refuses a reset that
    would discard an in-flight run (live leases outstanding) with
    :class:`~repro.fleet.broker.BrokerBusyError`, re-raised here;
    ``force_reset=True`` overrides.  Workers connect with the defaults
    and simply adopt whatever policy the server reports via ``ping``
    (or ``reset``: both answer with it and the protocol version).
    """

    def __init__(self, address: Union[str, Tuple[str, int]], *,
                 lease_timeout: Optional[float] = None,
                 max_attempts: Optional[int] = None,
                 backoff: Optional[BackoffPolicy] = None,
                 reset: bool = False, force_reset: bool = False,
                 timeout: float = 30.0,
                 reconnect: Optional[BackoffPolicy] = None,
                 reconnect_timeout: float = 30.0):
        if isinstance(address, str):
            address = protocol.parse_address(address)
        if reconnect_timeout <= 0:
            raise ValueError(f"reconnect_timeout must be > 0, "
                             f"got {reconnect_timeout}")
        self.address = address
        self.timeout = float(timeout)
        self.reconnect = (reconnect if reconnect is not None
                          else BackoffPolicy(base=0.05, factor=2.0,
                                             cap=1.0, jitter=0.1))
        self.reconnect_timeout = float(reconnect_timeout)
        #: Successful re-connections after the first (stats surface it).
        self.reconnects = 0
        self._connected_once = False
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._wire = None
        try:
            if reset:
                info = self.call("reset", lease_timeout=lease_timeout,
                                 max_attempts=max_attempts,
                                 backoff=_backoff_to_args(backoff),
                                 force=True if force_reset else None)
            else:
                info = self.call("ping")
            # Before protocol 3, ``reset`` answered with a bare True.
            version = (info.get("protocol") if isinstance(info, dict)
                       else "2 or older")
            if version != protocol.PROTOCOL_VERSION:
                raise protocol.ProtocolError(
                    f"broker speaks protocol {version}, "
                    f"client speaks {protocol.PROTOCOL_VERSION}")
        except BaseException:
            self.close()  # a refused client leaks no socket
            raise
        self.lease_timeout: float = info["lease_timeout"]
        self.max_attempts: int = info["max_attempts"]

    # -- connection plumbing -------------------------------------------------

    def _connect(self) -> None:
        """(Re)open the TCP connection and its buffered file wrapper."""
        self._disconnect()
        self._sock = socket.create_connection(self.address,
                                              timeout=self.timeout)
        self._wire = self._sock.makefile("rwb")
        if self._connected_once:
            self.reconnects += 1
        self._connected_once = True

    def _disconnect(self) -> None:
        """Drop the current connection, tolerating a half-dead socket."""
        for closeable in (self._wire, self._sock):
            if closeable is not None:
                try:
                    closeable.close()
                except OSError:
                    pass
        self._wire = None
        self._sock = None

    def close(self) -> None:
        """Close the connection; the client can reconnect on next use."""
        with self._lock:
            self._disconnect()

    def __enter__(self) -> "SocketBroker":
        """Context-manager entry: the connected client."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    def call(self, op: str, **args: object) -> object:
        """One request/response exchange, reconnect-retried on I/O loss.

        Retrying a possibly-delivered request is safe: the broker
        protocol absorbs every redelivery (idempotent enqueue/complete,
        convergent heartbeat/expire), which is the same property
        that makes real at-least-once transports usable behind it.
        Retries run under the seeded :attr:`reconnect` backoff until
        :attr:`reconnect_timeout` wall-clock seconds have passed, then
        raise :class:`ConnectionError` — long enough to ride out a
        broker restarting from its journal.
        """
        payload = {"op": op, "args": {k: v for k, v in args.items()
                                      if v is not None}}
        with self._lock:
            deadline = time.monotonic() + self.reconnect_timeout
            attempt = 0
            while True:
                try:
                    if self._wire is None:
                        self._connect()
                    protocol.write_frame(self._wire, payload)
                    response = protocol.read_frame(self._wire)
                    if response is None:
                        raise ConnectionError("broker closed the connection")
                    break
                except (OSError, ConnectionError) as exc:
                    self._disconnect()
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ConnectionError(
                            f"broker at {self.address[0]}:{self.address[1]} "
                            f"unreachable for {self.reconnect_timeout:.1f}s "
                            f"({attempt + 1} attempts): {exc}")
                    # Cap the exponent: the jittered delay caps anyway,
                    # and float ** overflows around 2**1024.
                    delay = self.reconnect.delay(op, min(attempt, 60))
                    time.sleep(min(delay, remaining))
                    attempt += 1
        if response.get("ok"):
            return response.get("result")
        protocol.raise_remote(response.get("kind", "ProtocolError"),
                              response.get("error", "unknown remote error"))

    # -- the broker method contract ------------------------------------------

    def enqueue(self, key: str, payload: object = None) -> bool:
        """Mirror :meth:`InProcessBroker.enqueue` (payload pickled)."""
        return self.enqueue_all([(key, payload)])[0]

    def enqueue_all(self, items: Sequence[Tuple[str, object]]) -> List[bool]:
        """:meth:`enqueue` every ``(key, payload)`` in one round trip."""
        return self.call("enqueue", items=[
            [key, protocol.encode_payload(payload)] for key, payload in items])

    def lease(self, now: float, wait: Optional[float] = None
              ) -> Optional[Lease]:
        """Mirror :meth:`InProcessBroker.lease`; the server may hold the
        request up to ``wait`` seconds for a cell to become leasable."""
        wire_form = self.call("lease", now=now, wait=wait)
        return None if wire_form is None else protocol.lease_from_wire(
            wire_form)

    def heartbeat(self, lease_id: int, now: float) -> bool:
        """Mirror :meth:`InProcessBroker.heartbeat`."""
        return self.call("heartbeat", lease_id=lease_id, now=now)

    def complete(self, lease_id: int, now: float,
                 values: Optional[List[float]] = None,
                 elapsed: Optional[float] = None) -> str:
        """Mirror :meth:`InProcessBroker.complete` (values as JSON floats)."""
        args: Dict[str, object] = {"lease_id": lease_id, "now": now}
        if values is not None:
            args["values"] = [float(v) for v in values]
            args["elapsed"] = elapsed
        return self.call("complete", **args)

    def expire(self, now: float) -> List[int]:
        """Mirror :meth:`InProcessBroker.expire`."""
        return self.call("expire", now=now)

    def outstanding(self, now: Optional[float] = None,
                    wait: Optional[float] = None) -> int:
        """Mirror :meth:`InProcessBroker.outstanding`.  With ``now`` the
        server first reaps as :meth:`expire` does; it may hold the
        request up to ``wait`` seconds for the count to reach 0."""
        return self.call("outstanding", now=now, wait=wait)

    def settle(self, keys: Sequence[str]
               ) -> Tuple[Dict[str, tuple], Dict[str, int], List[DeadLetter]]:
        """Every key's ``(state, result)``, the counters (``replayed``
        included) and the payload-less dead letters, in one round trip;
        an unknown key raises ``KeyError``."""
        reply = self.call("settle", keys=list(keys))
        return ({key: (state, protocol.result_from_wire(result))
                 for key, (state, result) in zip(keys, reply["cells"])},
                reply["counters"], [protocol.letter_from_wire(letter)
                                    for letter in reply["dead_letters"]])

    def state(self, key: str) -> str:
        """Mirror :meth:`InProcessBroker.state` (through :meth:`settle`)."""
        return self.settle([key])[0][key][0]

    def result(self, key: str
               ) -> Optional[Tuple[List[float], Optional[float]]]:
        """Mirror :meth:`InProcessBroker.result` (through :meth:`settle`)."""
        return self.settle([key])[0][key][1]

    @property
    def counters(self) -> Dict[str, int]:
        """Mirror :attr:`InProcessBroker.counters` (queried per access)."""
        return self.settle([])[1]

    @property
    def dead_letters(self) -> List[DeadLetter]:
        """Mirror :attr:`InProcessBroker.dead_letters` (payload-less)."""
        return self.settle([])[2]
