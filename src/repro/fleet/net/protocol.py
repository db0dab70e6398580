"""The broker wire protocol: JSON lines, one request/response per call.

Every broker method maps to exactly one operation — the wire mirrors
the :class:`~repro.fleet.broker.InProcessBroker` method contract
verbatim, explicit ``now`` included, so the protocol runs against the
wall clock in every fleet and against scripted instants in the
contract tests without a special case on either side.

Framing is one JSON object per ``\\n``-terminated line (UTF-8, no
embedded newlines — :func:`json.dumps` guarantees that).  Requests are
``{"op": <name>, "args": {...}}``; responses are either
``{"ok": true, "result": ...}`` or
``{"ok": false, "kind": <exception class>, "error": <message>}``.
The client re-raises ``KeyError``/``ValueError``/``BrokerBusyError``
kinds locally, so a caller cannot tell a remote broker from an
in-process one by its exceptions.

Job payloads — the ``(point, job)`` tuples workers execute — are not
JSON-able, so they travel pickled and base64-wrapped *inside* the JSON.
The broker server treats them as opaque strings (it never unpickles);
only the enqueueing coordinator and the leasing worker — both trusted
repro processes on a private network — ever decode them.  Completed
trial values travel as plain JSON floats: they are inspectable on the
wire and land in cells byte-identical to a local run's.
"""

from __future__ import annotations

import json
from typing import BinaryIO, Dict, List, Optional, Tuple

from ..broker import BrokerBusyError, DeadLetter, Lease

# The canonical payload codecs live with the journal (its records embed
# the same pickled-base64 form the wire uses); re-exported here so the
# wire tier keeps its historical import path.
from ..journal import decode_payload, encode_payload  # noqa: F401

#: Bumped on any incompatible wire change; ``ping`` reports it so a
#: mismatched client can refuse loudly instead of failing strangely.
PROTOCOL_VERSION = 1

#: Exception kinds the client re-raises as their local class; anything
#: else surfaces as a :class:`ProtocolError` carrying the remote text.
_RAISABLE = {"KeyError": KeyError, "ValueError": ValueError,
             "BrokerBusyError": BrokerBusyError}


class ProtocolError(RuntimeError):
    """A malformed frame, an unknown op, or an unmappable remote error."""


# ---------------------------------------------------------------------------
# Framing.
# ---------------------------------------------------------------------------

def write_frame(wire: BinaryIO, message: Dict[str, object]) -> None:
    """Serialise one message as a JSON line and flush it."""
    wire.write(json.dumps(message, separators=(",", ":"),
                          allow_nan=False).encode("utf-8") + b"\n")
    wire.flush()


def read_frame(wire: BinaryIO) -> Optional[Dict[str, object]]:
    """Read one JSON-line message; ``None`` on a clean EOF."""
    line = wire.readline()
    if not line:
        return None
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError(f"frame must be a JSON object, "
                            f"got {type(message).__name__}")
    return message


# ---------------------------------------------------------------------------
# Broker-object wire forms.
# ---------------------------------------------------------------------------

def lease_to_wire(lease: Lease) -> Dict[str, object]:
    """A lease as a JSON-able mapping; the payload stays opaque.

    The server enqueues payloads as the encoded strings the coordinator
    sent, so a lease's payload is already wire-form here.
    """
    return {"lease_id": lease.lease_id, "key": lease.key,
            "attempt": lease.attempt, "deadline": lease.deadline,
            "payload": lease.payload}


def lease_from_wire(wire_form: Dict[str, object]) -> Lease:
    """Rebuild a :class:`~repro.fleet.broker.Lease`, payload unpickled."""
    return Lease(lease_id=wire_form["lease_id"], key=wire_form["key"],
                 attempt=wire_form["attempt"],
                 deadline=wire_form["deadline"],
                 payload=decode_payload(wire_form["payload"]))


def letter_to_wire(letter: DeadLetter) -> Dict[str, object]:
    """A dead letter as a JSON-able mapping (payload omitted).

    The run record keeps a dead letter's key, attempts, and reason; the
    payload never leaves the broker — the coordinator that enqueued it
    still holds the original.
    """
    return {"key": letter.key, "attempts": letter.attempts,
            "reason": letter.reason}


def letter_from_wire(wire_form: Dict[str, object]) -> DeadLetter:
    """Rebuild a payload-less :class:`~repro.fleet.broker.DeadLetter`."""
    return DeadLetter(key=wire_form["key"], attempts=wire_form["attempts"],
                      reason=wire_form["reason"], payload=None)


def result_to_wire(result: Optional[Tuple[List[float], Optional[float]]]
                   ) -> Optional[Dict[str, object]]:
    """A completed ``(values, elapsed)`` pair as plain JSON."""
    if result is None:
        return None
    values, elapsed = result
    return {"values": list(values), "elapsed": elapsed}


def result_from_wire(wire_form: Optional[Dict[str, object]]
                     ) -> Optional[Tuple[List[float], Optional[float]]]:
    """Invert :func:`result_to_wire`."""
    if wire_form is None:
        return None
    return list(wire_form["values"]), wire_form["elapsed"]


# ---------------------------------------------------------------------------
# Error envelopes.
# ---------------------------------------------------------------------------

def error_response(exc: Exception) -> Dict[str, object]:
    """The ``ok: false`` envelope for one server-side exception."""
    return {"ok": False, "kind": type(exc).__name__, "error": str(exc)}


def raise_remote(kind: str, message: str) -> None:
    """Re-raise a remote error as its local class (or ProtocolError)."""
    cls = _RAISABLE.get(kind)
    if cls is KeyError:
        # str(KeyError("x")) round-trips as "'x'" — raising KeyError on
        # the quoted text would double-quote; strip one layer back off.
        raise KeyError(message.strip("'\""))
    if cls is not None:
        raise cls(message)
    raise ProtocolError(f"remote {kind}: {message}")


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``HOST:PORT`` string; raises ``ValueError`` when malformed."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"broker address must be HOST:PORT, got {address!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"broker port must be an integer, "
                         f"got {port_text!r} in {address!r}")
    if not 0 <= port <= 65535:
        raise ValueError(f"broker port out of range in {address!r}")
    return host, port
