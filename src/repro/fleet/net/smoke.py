"""Networked-fleet smoke: ``PYTHONPATH=src python -m repro.fleet.net.smoke``.

The acceptance gate for the socket tier, with *real* processes — no
threads standing in for workers:

* a broker subprocess (``python -m repro broker --port 0``);
* two worker subprocesses (``python -m repro fleet-worker``), the first
  scheduled to die mid-lease (``os._exit``) on the first attempt of the
  first cell, the survivor scheduled to drop one completion — both
  faults forced at exact ``DIGEST:ATTEMPT`` coordinates read from the
  committed record in ``benchmarks/results``;
* a coordinator subprocess (``python -m repro run --executor fleet
  --broker``) that must reproduce the committed record's ``run_id``
  bit-for-bit despite the chaos, with ``repro diff --against-catalog``
  exiting 0 as the verdict.

Two further scenarios pin the worker-cache eviction policy under real
processes: an unpinned LRU cache bounded at ``--cache-max-cells 3``
ends the run holding at most three cells, while the same bound with
``--results-dir`` pinning keeps every committed record's cell on disk.

The broker-crash scenario is the recovery gate: a *journalled* broker
(``--journal``) is SIGKILLed mid-run — queue populated, leases live,
completions already dropped — and restarted on the same port from its
write-ahead journal.  The coordinator and worker ride out the downtime
by reconnecting, the replayed broker resumes the run exactly where it
died, and the record must still carry the committed ``run_id`` with
``repro diff --against-catalog`` exit 0.  The restarted broker is then
SIGTERMed and must exit 0 (clean shutdown, journal flushed).

The CI ``fleet-net`` job runs this from the repo root and fails on any
assertion; it exits 0 printing ``[fleet-net] ok``.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .worker import KILL_EXIT_STATUS

#: The bench every scenario runs: the cheapest catalog entry (one
#: panel, five cells at laptop scale, committed run_id).
_BENCH = "ablation_truncation_threshold"
_STEM = "ablation_threshold"
_RECORD = Path("benchmarks/results") / f"{_STEM}.json"


def _spawn(args: Sequence[str], **kwargs) -> subprocess.Popen:
    """One repro subprocess with stdout captured as text."""
    return subprocess.Popen([sys.executable, "-m", "repro", *args],
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, **kwargs)


def _await_broker(broker: subprocess.Popen) -> str:
    """The address the broker subprocess printed at startup."""
    line = broker.stdout.readline()
    marker = "listening on "
    if marker not in line:
        raise AssertionError(f"unexpected broker banner: {line!r}")
    return line.split(marker, 1)[1].split()[0]


def _await_exit(process: subprocess.Popen, timeout: float = 60.0) -> int:
    """The process's exit status, with its output echoed on timeout."""
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        raise AssertionError(
            f"subprocess did not exit within {timeout}s: "
            f"{process.args}\n{process.stdout.read()}")


def _reap(workers: List[subprocess.Popen]) -> None:
    """Terminate any still-polling worker subprocesses."""
    for worker in workers:
        if worker.poll() is None:
            worker.terminate()
    for worker in workers:
        if worker.poll() is None:
            worker.wait(timeout=10.0)


def _journal_ops(journal: Path) -> Dict[str, int]:
    """Count the intact records per op in a (possibly live) journal."""
    counts: Dict[str, int] = {}
    if not journal.exists():
        return counts
    for line in journal.read_bytes().splitlines():
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            continue  # a torn tail mid-write; recovery drops it too
        if isinstance(record, dict) and "op" in record:
            counts[record["op"]] = counts.get(record["op"], 0) + 1
    return counts


def _await_journal(journal: Path, wanted: Dict[str, int],
                   timeout: float = 60.0) -> Dict[str, int]:
    """Poll until the journal holds at least ``wanted`` records per op."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        counts = _journal_ops(journal)
        if all(counts.get(op, 0) >= n for op, n in wanted.items()):
            return counts
        time.sleep(0.05)
    raise AssertionError(f"journal never reached {wanted}; "
                         f"last saw {_journal_ops(journal)}")


def _cells_on_disk(cache_dir: Path) -> List[str]:
    """Every cell digest currently stored under a worker cache."""
    return sorted(path.stem for path in cache_dir.rglob("*.json"))


def _run_coordinator(address: str, results_dir: Path) -> dict:
    """One catalog bench through the networked fleet; the run record."""
    run = _spawn(["run", _BENCH, "--executor", "fleet",
                  "--broker", address, "--results-dir", str(results_dir)])
    status = _await_exit(run, timeout=120.0)
    output = run.stdout.read()
    assert status == 0, f"coordinator failed ({status}):\n{output}"
    return json.loads((results_dir / f"{_STEM}.json").read_text())


def _assert_diff_clean(results_dir: Path) -> None:
    """``repro diff --against-catalog`` must exit 0 on the fresh record."""
    diff = _spawn(["diff", str(results_dir / f"{_STEM}.json"),
                   "--against-catalog", _BENCH])
    status = _await_exit(diff)
    output = diff.stdout.read()
    assert status == 0, f"repro diff exited {status}:\n{output}"


def _scenario_chaos(address: str, scratch: Path, digests: List[str],
                    run_id: str) -> None:
    """Kill one worker mid-lease, drop one completion, demand run_id parity.

    The doomed worker starts alone so it necessarily leases the first
    queued cell (lease order is queue order) and dies on it for real —
    ``os._exit`` mid-lease, exit status :data:`KILL_EXIT_STATUS`.  The
    survivor starts only after that death, inherits the retry, and
    additionally loses one completion message of its own; every fault
    is repaired by lease expiry + requeue, and the record must still
    carry the committed ``run_id``.
    """
    results_dir = scratch / "chaos-results"
    doomed = _spawn(["fleet-worker", "--broker", address, "--poll", "0.05",
                     "--kill", f"{digests[0]}:0"])
    coordinator = _spawn(["run", _BENCH, "--executor", "fleet",
                          "--broker", address,
                          "--results-dir", str(results_dir)])
    survivor: Optional[subprocess.Popen] = None
    try:
        assert _await_exit(doomed, timeout=90.0) == KILL_EXIT_STATUS, \
            "the doomed worker did not die with the kill status"
        survivor = _spawn(["fleet-worker", "--broker", address,
                           "--poll", "0.05", "--drop", f"{digests[1]}:0"])
        status = _await_exit(coordinator, timeout=120.0)
        output = coordinator.stdout.read()
        assert status == 0, f"coordinator failed ({status}):\n{output}"
    finally:
        _reap([worker for worker in (doomed, survivor, coordinator)
               if worker is not None])
    record = json.loads((results_dir / f"{_STEM}.json").read_text())
    assert record["run_id"] == run_id, (record["run_id"], run_id)
    counters = record["fleet"]["counters"]
    assert counters["expired"] >= 2, counters    # the kill and the drop
    assert counters["retried"] >= 2, counters
    assert counters["dead"] == 0, counters
    _assert_diff_clean(results_dir)
    print(f"[fleet-net] chaos run reproduced run_id {run_id} "
          f"(expired={counters['expired']} retried={counters['retried']}); "
          f"diff clean")


def _scenario_eviction(address: str, scratch: Path,
                       digests: List[str]) -> None:
    """A bounded unpinned worker cache ends the run within its bound."""
    cache_dir = scratch / "lru-cells"
    worker = _spawn(["fleet-worker", "--broker", address, "--poll", "0.05",
                     "--cache", str(cache_dir), "--cache-max-cells", "3"])
    try:
        record = _run_coordinator(address, scratch / "lru-results")
    finally:
        _reap([worker])
    assert record["run_id"], record
    kept = _cells_on_disk(cache_dir)
    assert 0 < len(kept) <= 3, kept
    assert set(kept) <= set(digests), (kept, digests)
    print(f"[fleet-net] LRU bound held: {len(kept)}/{len(digests)} "
          f"cells on disk (max 3)")


def _scenario_pins(address: str, scratch: Path, digests: List[str]) -> None:
    """Record pins exempt every committed record's cell from the bound."""
    cache_dir = scratch / "pinned-cells"
    worker = _spawn(["fleet-worker", "--broker", address, "--poll", "0.05",
                     "--cache", str(cache_dir), "--cache-max-cells", "3",
                     "--results-dir", str(_RECORD.parent)])
    try:
        _run_coordinator(address, scratch / "pinned-results")
    finally:
        _reap([worker])
    kept = _cells_on_disk(cache_dir)
    assert set(digests) <= set(kept), (kept, digests)
    print(f"[fleet-net] record pins survived the bound: "
          f"{len(digests)} pinned cells kept")


def _scenario_broker_crash(scratch: Path, digests: List[str],
                           run_id: str) -> None:
    """SIGKILL a journalled broker mid-run; restart it; demand parity.

    The worker drops every cell's first-attempt completion, so by the
    time the broker dies the journal holds enqueues and dangling leases
    that only retries can settle — state a memory-only broker would
    lose unrecoverably.  The restarted broker replays the journal on
    the same port; the coordinator and worker, which have been
    reconnecting under backoff the whole time, resume against the
    rebuilt state, and the run must still reproduce the committed
    ``run_id``.  Finally the broker gets SIGTERM and must exit 0: the
    clean-shutdown path flushes and closes the journal.
    """
    journal = scratch / "broker.wal"
    results_dir = scratch / "crash-results"
    broker = _spawn(["broker", "--port", "0", "--lease-timeout", "3",
                     "--journal", str(journal)])
    address = _await_broker(broker)
    port = address.rsplit(":", 1)[1]
    drops = [flag for digest in digests
             for flag in ("--drop", f"{digest}:0")]
    worker = _spawn(["fleet-worker", "--broker", address,
                     "--poll", "0.05", *drops])
    coordinator = _spawn(["run", _BENCH, "--executor", "fleet",
                          "--broker", address,
                          "--results-dir", str(results_dir)])
    restarted: Optional[subprocess.Popen] = None
    try:
        try:
            # Wait for real in-flight state: the full queue plus at
            # least one live lease — then kill without ceremony.
            _await_journal(journal, {"enqueue": len(digests), "lease": 1})
            broker.kill()
            broker.wait(timeout=10.0)
            restarted = _spawn(["broker", "--port", port,
                                "--lease-timeout", "3",
                                "--journal", str(journal)])
            assert _await_broker(restarted) == address
            status = _await_exit(coordinator, timeout=180.0)
            output = coordinator.stdout.read()
            assert status == 0, f"coordinator failed ({status}):\n{output}"
        finally:
            _reap([broker, worker, coordinator])
        record = json.loads((results_dir / f"{_STEM}.json").read_text())
        assert record["run_id"] == run_id, (record["run_id"], run_id)
        counters = record["fleet"]["counters"]
        assert counters["replayed"] > 0, counters
        assert counters["retried"] >= len(digests), counters
        assert counters["dead"] == 0, counters
        _assert_diff_clean(results_dir)
        # The clean-shutdown satellite: SIGTERM -> flush, close, exit 0.
        restarted.send_signal(signal.SIGTERM)
        assert _await_exit(restarted, timeout=10.0) == 0, \
            "SIGTERM did not shut the journalled broker down cleanly"
        assert _journal_ops(journal), "journal vanished on clean shutdown"
    finally:
        if restarted is not None:
            _reap([restarted])
    print(f"[fleet-net] broker SIGKILL + journal replay reproduced "
          f"run_id {run_id} (replayed={counters['replayed']} "
          f"retried={counters['retried']}); SIGTERM exit 0; diff clean")


def main() -> int:
    """Run every networked-fleet scenario against one broker subprocess."""
    committed = json.loads(_RECORD.read_text())
    digests = [cell["digest"] for cell in committed["panels"][0]["cells"]]
    broker = _spawn(["broker", "--port", "0", "--lease-timeout", "3"])
    try:
        address = _await_broker(broker)
        print(f"[fleet-net] broker subprocess on {address}")
        with tempfile.TemporaryDirectory() as tmp:
            scratch = Path(tmp)
            _scenario_chaos(address, scratch, digests, committed["run_id"])
            _scenario_eviction(address, scratch, digests)
            _scenario_pins(address, scratch, digests)
            _scenario_broker_crash(scratch, digests, committed["run_id"])
    finally:
        broker.terminate()
        assert broker.wait(timeout=10.0) == 0, \
            "SIGTERM did not shut the shared broker down cleanly"
    print("[fleet-net] ok")
    return 0


if __name__ == "__main__":  # pragma: no cover - the CI fleet-net job
    sys.exit(main())
