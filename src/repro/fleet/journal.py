"""The broker's write-ahead journal: crash-safe, replayable, append-only.

The networked broker (``python -m repro broker``) is one in-memory
process — without a journal, SIGKILL mid-run vaporises every queue
entry, lease, counter, and dead letter, which is the one failure mode
the fleet protocol cannot absorb by retrying.  The journal closes that
hole: every successful broker *mutation* is appended to a JSON-lines
log **before** it is applied (a proper write-ahead discipline), and
:func:`replay_journal` rebuilds the exact broker state — queue order,
lease ids, attempt counts, backoff holds, counters, dead letters —
bit-for-bit on restart.

Replay works because the broker is already a deterministic state
machine over explicit inputs: time never flows inside
:class:`~repro.fleet.broker.InProcessBroker` (every method takes
``now``), lease ids are a sequential counter, FIFO scans are pure
functions of state, and backoff jitter is seeded.  Journalling the
method calls *is* journalling the state.

Record format — one JSON object per ``\\n``-terminated line::

    {"op": "config",  "args": {"journal_version": 1, "lease_timeout": ..,
                               "max_attempts": .., "backoff": {..}}}
    {"op": "enqueue", "args": {"key": .., "payload": <base64 pickle>}}
    {"op": "lease",   "args": {"now": ..}}
    ... one line per mutation, in application order ...

The first record is always ``config`` (the broker's constructor
arguments); :meth:`Journal.reset` compacts the file back down to a
single fresh ``config`` record — the coordinator's per-run ``reset``
therefore doubles as snapshot compaction, so the journal never grows
across runs.

Durability and corruption policy:

* Every record is fsynced before the broker applies its mutation, so
  the journal survives power loss, not just process death.
* A **torn tail** — a final record truncated mid-write by a crash — is
  expected and tolerated: opening or reading the journal silently drops
  an unparseable *final* record (and truncates it on open, so appends
  continue from a clean boundary).
* **Mid-file corruption** is not tolerated: an unparseable record with
  valid records after it means the log has a hole, and replaying across
  a hole would silently diverge from the pre-crash broker.  That raises
  :class:`JournalError` instead.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..exceptions import ReproError
from .backoff import BackoffPolicy
from .broker import InProcessBroker

#: Bumped on any incompatible record-format change; ``config`` records
#: carry it so a replay of a future journal refuses loudly.
JOURNAL_VERSION = 1

#: The mutating broker ops a journal may contain (beyond ``config``).
MUTATION_OPS = ("enqueue", "lease", "heartbeat", "complete", "expire")


class JournalError(ReproError, RuntimeError):
    """A journal that cannot be trusted: mid-file corruption, a missing
    or incompatible ``config`` record, or an unknown operation."""


# ---------------------------------------------------------------------------
# Payload encoding (the canonical copy; ``fleet.net.protocol`` re-uses it).
# ---------------------------------------------------------------------------

def encode_payload(payload: object) -> Optional[str]:
    """Pickle + base64 a job payload so it embeds in a JSON record."""
    if payload is None:
        return None
    return base64.b64encode(pickle.dumps(payload)).decode("ascii")


def decode_payload(text: Optional[str]) -> object:
    """Invert :func:`encode_payload`; ``None`` stays ``None``."""
    if text is None:
        return None
    return pickle.loads(base64.b64decode(text.encode("ascii")))


# ---------------------------------------------------------------------------
# Scanning (shared by open-time recovery and read/replay).
# ---------------------------------------------------------------------------

def _scan(raw: bytes, path: Path
          ) -> Tuple[int, List[Dict[str, object]]]:
    """Parse ``raw`` into records; returns ``(clean_end, records)``.

    ``clean_end`` is the byte offset of the end of the last intact
    record — everything beyond it is a torn tail the caller may drop or
    truncate.  An unparseable record that is *not* the final one raises
    :class:`JournalError` (mid-file corruption).
    """
    records: List[Dict[str, object]] = []
    pos, total = 0, len(raw)
    while pos < total:
        newline = raw.find(b"\n", pos)
        end = total if newline == -1 else newline + 1
        record: Optional[Dict[str, object]] = None
        if newline != -1:
            try:
                parsed = json.loads(raw[pos:newline].decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                parsed = None
            if isinstance(parsed, dict) and "op" in parsed:
                record = parsed
        if record is None:
            if end >= total:
                return pos, records  # torn tail: drop the partial record
            raise JournalError(
                f"corrupt journal record at byte {pos} of {path}: a later "
                f"record is intact, so this is mid-file corruption, not a "
                f"torn tail — refusing to replay across a hole")
        records.append(record)
        pos = end
    return pos, records


class Journal:
    """An append-only JSON-lines log of broker mutations.

    Opening a journal performs crash recovery: a torn final record is
    truncated away so appends resume from a clean boundary, while
    mid-file corruption raises :class:`JournalError`.  Attach the open
    journal to an :class:`~repro.fleet.broker.InProcessBroker` (its
    ``journal=`` parameter, or assignment to ``broker.journal``) and
    every successful mutation is appended, and fsynced, before it is
    applied.
    """

    def __init__(self, path):
        self.path = Path(path)
        #: Records appended through this handle (config records included).
        self.appended = 0
        self.records_on_disk = self._recover()
        self._handle = open(self.path, "ab")

    # -- crash recovery ------------------------------------------------------

    def _recover(self) -> int:
        """Truncate a torn tail; returns the count of intact records."""
        if not self.path.exists():
            return 0
        raw = self.path.read_bytes()
        clean_end, records = _scan(raw, self.path)
        if clean_end < len(raw):
            with open(self.path, "r+b") as handle:
                handle.truncate(clean_end)
        return len(records)

    # -- writing -------------------------------------------------------------

    def append(self, op: str, args: Dict[str, object]) -> None:
        """Write one mutation record (payloads pickled in place)."""
        args = dict(args)
        if "payload" in args:
            args["payload"] = encode_payload(args["payload"])
        line = json.dumps({"op": op, "args": args},
                          separators=(",", ":")).encode("utf-8") + b"\n"
        self._handle.write(line)
        self.flush()
        self.appended += 1
        self.records_on_disk += 1

    def reset(self, *, lease_timeout: float, max_attempts: int,
              backoff: Optional[BackoffPolicy] = None) -> None:
        """Compact to a single fresh ``config`` record, atomically.

        The replacement file is written beside the journal and renamed
        over it, so a crash mid-compaction leaves either the old log or
        the new config — never a mix.
        """
        config = {
            "journal_version": JOURNAL_VERSION,
            "lease_timeout": float(lease_timeout),
            "max_attempts": int(max_attempts),
            "backoff": None if backoff is None else asdict(backoff),
        }
        self._handle.close()
        staging = self.path.with_name(self.path.name + ".compact")
        with open(staging, "wb") as handle:
            handle.write(json.dumps({"op": "config", "args": config},
                                    separators=(",", ":")).encode("utf-8")
                         + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, self.path)
        self._handle = open(self.path, "ab")
        self.appended += 1
        self.records_on_disk = 1

    def flush(self) -> None:
        """Push buffered records through the OS to disk."""
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush and close; the journal can be reopened to resume."""
        if self._handle.closed:
            return
        self.flush()
        self._handle.close()

    def __enter__(self) -> "Journal":
        """Context-manager entry: the open journal."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: flush and close."""
        self.close()


# ---------------------------------------------------------------------------
# Reading and replaying.
# ---------------------------------------------------------------------------

def read_journal(path) -> Tuple[Dict[str, object],
                                List[Tuple[str, Dict[str, object]]]]:
    """Parse a journal into ``(config_args, [(op, args), ...])``.

    Tolerates a torn tail (the partial final record is dropped without
    modifying the file); raises :class:`JournalError` on mid-file
    corruption, an empty journal, or a journal whose first record is
    not ``config``.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}")
    _, records = _scan(raw, path)
    if not records:
        raise JournalError(f"journal {path} holds no intact records")
    first = records[0]
    if first["op"] != "config":
        raise JournalError(
            f"journal {path} does not start with a config record "
            f"(got {first['op']!r}); it was not written by this broker")
    config = first["args"]
    version = config.get("journal_version")
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"journal {path} has journal_version {version!r}; this "
            f"broker replays version {JOURNAL_VERSION}")
    return config, [(r["op"], r.get("args") or {}) for r in records[1:]]


def apply_record(broker: InProcessBroker, op: str,
                 args: Dict[str, object]) -> None:
    """Re-apply one journalled mutation to a broker being rebuilt."""
    if op == "enqueue":
        broker.enqueue(args["key"], decode_payload(args.get("payload")))
    elif op == "lease":
        broker.lease(args["now"])
    elif op == "heartbeat":
        broker.heartbeat(args["lease_id"], args["now"])
    elif op == "complete":
        broker.complete(args["lease_id"], args["now"],
                        values=args.get("values"),
                        elapsed=args.get("elapsed"))
    elif op == "expire":
        broker.expire(args["now"])
    else:
        raise JournalError(f"unknown journal op {op!r}; "
                           f"known ops: {MUTATION_OPS}")


def replay_journal(path) -> InProcessBroker:
    """Rebuild the broker a journal describes, bit-for-bit.

    The returned broker has no journal attached (attach one via
    ``broker.journal = ...`` to resume journalling) and reports how
    many mutations were replayed in ``broker.replayed``.
    """
    config, ops = read_journal(path)
    backoff = (BackoffPolicy(**config["backoff"])
               if config.get("backoff") else None)
    broker = InProcessBroker(lease_timeout=config["lease_timeout"],
                             max_attempts=config["max_attempts"],
                             backoff=backoff)
    for op, args in ops:
        apply_record(broker, op, args)
    broker.replayed = len(ops)
    return broker
