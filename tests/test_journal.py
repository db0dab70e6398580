"""The broker write-ahead journal: replay parity, torn tails, compaction.

The contract under test is the crash-safety tentpole: every broker
mutation is journalled before it is applied, so
:func:`~repro.fleet.journal.replay_journal` must rebuild a byte-lossy
broker *exactly* — queue order, lease ids, attempt counts, backoff
holds, counters, dead letters.  ``InProcessBroker.snapshot()`` equality
is the oracle throughout.

Three layers:

* **Property**: randomized op soups (leases, heartbeats, completions —
  live, late and duplicate — and expiry sweeps: every mutation a
  coordinator or worker can send) replay to snapshot-identical brokers.
* **Crash-at-every-record**: the journal truncated at every record
  boundary (and mid-record) replays to exactly the state after the
  surviving prefix — a torn tail is dropped, never guessed at — while
  corruption *before* intact records refuses to replay at all.
* **Mechanics**: write-ahead ordering (no record for no-op or raising
  calls), reopen-resume, ``reset`` compaction, the durable append path
  and version validation.
"""

import json
import random

import pytest

from repro.fleet import (
    BackoffPolicy,
    InProcessBroker,
    Journal,
    JournalError,
    read_journal,
    replay_journal,
)
from repro.fleet.journal import JOURNAL_VERSION, apply_record


def _journalled_broker(path, **config):
    """A fresh broker logging to ``path`` (config record written)."""
    journal = Journal(path)
    broker = InProcessBroker(journal=journal, **config)
    journal.reset(lease_timeout=broker.lease_timeout,
                  max_attempts=broker.max_attempts, backoff=broker.backoff)
    return broker, journal


def _random_workout(path, seed):
    """Drive a journalled broker through a seeded random op soup."""
    rng = random.Random(seed)
    broker, journal = _journalled_broker(
        path, lease_timeout=5.0, max_attempts=3,
        backoff=BackoffPolicy(base=0.5, cap=4.0, seed=seed))
    now = 0.0
    leases = []
    for step in range(rng.randrange(40, 120)):
        now += rng.random() * 3.0
        op = rng.choice(("enqueue", "lease", "heartbeat", "complete",
                         "expire"))
        if op == "enqueue":
            broker.enqueue(f"cell-{rng.randrange(20)}",
                           payload=("point", step))
        elif op == "lease":
            lease = broker.lease(now)
            if lease is not None:
                leases.append(lease)
        elif op == "heartbeat" and leases:
            broker.heartbeat(rng.choice(leases).lease_id, now)
        elif op == "complete" and leases:
            # Sometimes a live lease, sometimes a long-settled one — the
            # duplicate/late absorption paths must journal too.
            broker.complete(rng.choice(leases).lease_id, now,
                            values=[float(step)], elapsed=0.125)
        elif op == "expire":
            broker.expire(now)
    journal.close()
    return broker


def _scripted_journal(path):
    """A small deterministic journal exercising every mutation kind."""
    broker, journal = _journalled_broker(
        path, lease_timeout=2.0, max_attempts=2,
        backoff=BackoffPolicy(base=0.25, cap=1.0))
    broker.enqueue("alpha", payload=("pt", 1))
    broker.enqueue("beta")
    first = broker.lease(1.0)
    broker.heartbeat(first.lease_id, 1.5)
    broker.lease(2.0)
    broker.complete(first.lease_id, 2.5, values=[1.0, 2.0], elapsed=0.1)
    broker.complete(first.lease_id, 2.6, values=[1.0, 2.0], elapsed=0.1)
    broker.expire(5.0)                              # attempt 1 of 2
    retry = broker.lease(10.0)                      # past the backoff hold
    broker.expire(100.0)                            # exhausts beta -> dead
    assert retry is not None and broker.counters["dead"] == 1
    journal.close()
    return broker


class TestReplayParity:
    def test_randomized_op_soups_replay_bit_for_bit(self, tmp_path):
        for seed in range(8):
            path = tmp_path / f"soup-{seed}.wal"
            live = _random_workout(path, seed)
            replayed = replay_journal(path)
            assert replayed.snapshot() == live.snapshot(), f"seed {seed}"
            assert replayed.counters == live.counters
            assert replayed.replayed > 0
            assert live.replayed == 0  # only rebuilt brokers report it

    def test_replayed_payloads_round_trip(self, tmp_path):
        path = tmp_path / "payload.wal"
        broker, journal = _journalled_broker(path)
        broker.enqueue("k", payload=("point", {"nested": [1.5, None]}))
        journal.close()
        lease = replay_journal(path).lease(0.0)
        assert lease.payload == ("point", {"nested": [1.5, None]})

    def test_reopened_journal_resumes_appending(self, tmp_path):
        """Stop, reopen, mutate more: the journal covers both lives."""
        path = tmp_path / "resume.wal"
        broker, journal = _journalled_broker(path, lease_timeout=2.0)
        broker.enqueue("early")
        lease = broker.lease(1.0)
        journal.close()
        # "Restart": replay, then attach a reopened journal and go on.
        resumed = replay_journal(path)
        resumed.journal = Journal(path)
        resumed.complete(lease.lease_id, 2.0, values=[9.0], elapsed=0.5)
        resumed.enqueue("late")
        resumed.journal.close()
        final = replay_journal(path)
        assert final.snapshot() == resumed.snapshot()
        assert final.result("early") == ([9.0], 0.5)
        assert final.state("late") == "queued"


class TestCrashTruncation:
    def test_crash_at_every_record_boundary_and_mid_record(self, tmp_path):
        path = tmp_path / "scripted.wal"
        _scripted_journal(path)
        lines = path.read_bytes().splitlines(keepends=True)
        config, ops = read_journal(path)
        assert len(lines) == len(ops) + 1  # config + one line per op
        # The expected state after each surviving prefix, rebuilt
        # incrementally with the same apply path replay uses.
        reference = InProcessBroker(lease_timeout=config["lease_timeout"],
                                    max_attempts=config["max_attempts"],
                                    backoff=BackoffPolicy(**config["backoff"]))
        expected = [reference.snapshot()]
        for op, args in ops:
            apply_record(reference, op, args)
            expected.append(reference.snapshot())
        for survivors in range(1, len(lines) + 1):
            crash = tmp_path / f"crash-{survivors}.wal"
            prefix = b"".join(lines[:survivors])
            # Clean cut at the record boundary.
            crash.write_bytes(prefix)
            assert replay_journal(crash).snapshot() == expected[survivors - 1]
            # Torn cut partway through the next record: the partial
            # final record must be dropped, not half-applied.
            if survivors < len(lines):
                torn = prefix + lines[survivors][:len(lines[survivors]) // 2]
                crash.write_bytes(torn)
                assert (replay_journal(crash).snapshot()
                        == expected[survivors - 1])

    def test_opening_truncates_the_torn_tail(self, tmp_path):
        path = tmp_path / "torn.wal"
        _scripted_journal(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # mid-record crash
        journal = Journal(path)
        journal.close()
        clean = path.read_bytes()
        assert raw.startswith(clean) and clean.endswith(b"\n")
        assert len(clean) < len(raw)

    def test_mid_file_corruption_refuses_to_replay(self, tmp_path):
        path = tmp_path / "holed.wal"
        _scripted_journal(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"}garbage{\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="mid-file"):
            replay_journal(path)
        with pytest.raises(JournalError, match="mid-file"):
            Journal(path)

    def test_a_journal_of_only_torn_bytes_has_no_records(self, tmp_path):
        path = tmp_path / "stub.wal"
        path.write_bytes(b'{"op": "conf')
        with pytest.raises(JournalError, match="no intact records"):
            read_journal(path)
        journal = Journal(path)  # recovery truncates it
        assert journal.records_on_disk == 0
        journal.close()


class TestWriteAheadDiscipline:
    def test_no_op_calls_leave_no_record(self, tmp_path):
        path = tmp_path / "noop.wal"
        broker, journal = _journalled_broker(path)
        broker.enqueue("only")
        written = journal.appended
        assert broker.enqueue("only") is False        # duplicate key
        assert broker.lease(-100.0) is None           # nothing eligible yet?
        assert broker.heartbeat(987654, 0.0) is False  # never issued
        assert broker.expire(0.0) == []               # nothing to reap
        assert journal.appended == written
        with pytest.raises(KeyError):
            broker.complete(987654, 0.0)              # raising call
        assert journal.appended == written
        journal.close()

    def test_unjournalled_broker_behaves_identically(self, tmp_path):
        """The hook is optional: journal=None costs and changes nothing."""
        path = tmp_path / "hooked.wal"
        journalled = _scripted_journal(path)
        bare = InProcessBroker(lease_timeout=2.0, max_attempts=2,
                               backoff=BackoffPolicy(base=0.25, cap=1.0))
        bare.enqueue("alpha", payload=("pt", 1))
        bare.enqueue("beta")
        first = bare.lease(1.0)
        bare.heartbeat(first.lease_id, 1.5)
        bare.lease(2.0)
        bare.complete(first.lease_id, 2.5, values=[1.0, 2.0], elapsed=0.1)
        bare.complete(first.lease_id, 2.6, values=[1.0, 2.0], elapsed=0.1)
        bare.expire(5.0)
        bare.lease(10.0)
        bare.expire(100.0)
        assert bare.snapshot() == journalled.snapshot()


class TestCompactionAndValidation:
    def test_reset_compacts_to_a_single_config_record(self, tmp_path):
        path = tmp_path / "compact.wal"
        broker, journal = _journalled_broker(path)
        for index in range(10):
            broker.enqueue(f"cell-{index}")
        assert journal.records_on_disk == 11
        journal.reset(lease_timeout=9.0, max_attempts=5,
                      backoff=BackoffPolicy(seed=42))
        assert journal.records_on_disk == 1
        journal.close()
        config, ops = read_journal(path)
        assert ops == []
        assert config["lease_timeout"] == 9.0
        assert config["backoff"]["seed"] == 42
        fresh = replay_journal(path)
        assert fresh.outstanding() == 0 and fresh.max_attempts == 5

    def test_first_record_must_be_config(self, tmp_path):
        path = tmp_path / "headless.wal"
        path.write_text(json.dumps(
            {"op": "enqueue", "args": {"key": "k"}}) + "\n")
        with pytest.raises(JournalError, match="config"):
            read_journal(path)

    def test_future_journal_version_refuses(self, tmp_path):
        path = tmp_path / "future.wal"
        path.write_text(json.dumps(
            {"op": "config",
             "args": {"journal_version": JOURNAL_VERSION + 1,
                      "lease_timeout": 5.0, "max_attempts": 3}}) + "\n")
        with pytest.raises(JournalError, match="journal_version"):
            read_journal(path)

    @pytest.mark.parametrize("op", ["teleport", "fail"])
    def test_unknown_op_refuses_to_replay(self, tmp_path, op):
        path = tmp_path / "odd.wal"
        broker, journal = _journalled_broker(path)
        journal.append(op, {"lease_id": 0, "now": 1.0})
        journal.close()
        with pytest.raises(JournalError, match="unknown journal op"):
            replay_journal(path)

    def test_always_fsync_appends_and_replays(self, tmp_path):
        path = tmp_path / "durable.wal"
        journal = Journal(path)
        broker = InProcessBroker(journal=journal)
        journal.reset(lease_timeout=broker.lease_timeout,
                      max_attempts=broker.max_attempts,
                      backoff=broker.backoff)
        broker.enqueue("durable-cell")
        journal.close()
        assert replay_journal(path).state("durable-cell") == "queued"
