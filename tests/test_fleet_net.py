"""The networked fleet: wire protocol, socket contract parity, workers.

The tentpole guarantee under test: moving the broker behind a TCP
socket and the workers into their own loops changes *nothing* about the
values — a grid computed by real leased workers over the wire is
bit-identical to a serial run, under worker kills, dropped completions,
dropped client connections, and redelivered leases, because the
transport only moves digest-addressed jobs and idempotent completions.

Three layers, cheapest first: pure protocol round-trips, the
:class:`~repro.fleet.net.SocketBroker` satisfying the broker method
contract verbatim against a live :class:`~repro.fleet.net.BrokerServer`
(same assertions the in-process broker passes, explicit ``now``
preserved), and whole-fleet runs — :class:`~repro.fleet.FleetExecutor`
with ``FleetOptions.broker`` coordinating
:class:`~repro.fleet.net.FleetWorker` loops that the tests start on
threads.
"""

import sys
import threading
import time

import pytest

from repro.evaluation import run_grid
from repro.evaluation.scenarios import point_fingerprint
from repro.evaluation import build_jobs
from repro.fleet import (
    DEAD,
    DONE,
    LEASED,
    QUEUED,
    BackoffPolicy,
    BrokerBusyError,
    FaultSchedule,
    FleetError,
    FleetExecutor,
    FleetOptions,
    read_journal,
    replay_journal,
)
from repro.fleet.net import (
    BrokerServer,
    FleetWorker,
    SocketBroker,
    protocol,
)

def _fleet_point(series, x, rng):
    """A module-level grid point: deterministic given the job's rng."""
    return float(series) * float(x) + float(rng.normal())


X_VALUES = [1, 2, 3]
SERIES_VALUES = [10, 20]
N_TRIALS = 3
GRID_SEED = 11

#: Wall-clock-fast lease policy for the real-worker tests: a killed
#: worker's lease expires in half a second, retries release almost
#: immediately, and the whole chaos run stays under a few seconds.
FAST = dict(lease_timeout=0.5, max_attempts=3,
            backoff=BackoffPolicy(base=0.05, cap=0.2))


def _grid_digests():
    """Cell digests exactly as ``run_grid`` derives them (code token in)."""
    jobs = build_jobs("x", X_VALUES, "series", SERIES_VALUES,
                      n_trials=N_TRIALS, seed=GRID_SEED,
                      code_token=point_fingerprint(_fleet_point))
    return [job.digest for job in jobs]


def _run(executor):
    """The acceptance grid through any executor."""
    return run_grid(_fleet_point, "x", X_VALUES, "series", SERIES_VALUES,
                    n_trials=N_TRIALS, seed=GRID_SEED, executor=executor)


@pytest.fixture()
def server():
    """A live broker server on an ephemeral port."""
    with BrokerServer(lease_timeout=5.0, max_attempts=3) as live:
        yield live


@pytest.fixture()
def broker(server):
    """A client of ``server``, closed after the test."""
    with SocketBroker(server.address) as client:
        yield client


class TestProtocol:
    def test_payload_round_trip(self):
        payload = ("point", {"nested": [1.5, None]})
        assert protocol.decode_payload(
            protocol.encode_payload(payload)) == payload
        assert protocol.encode_payload(None) is None
        assert protocol.decode_payload(None) is None

    def test_result_round_trip(self):
        assert protocol.result_from_wire(
            protocol.result_to_wire(([1.0, 2.0], 0.25))) == ([1.0, 2.0], 0.25)
        assert protocol.result_to_wire(None) is None
        assert protocol.result_from_wire(None) is None

    def test_parse_address(self):
        assert protocol.parse_address("127.0.0.1:8421") == ("127.0.0.1", 8421)
        for bad in ("nocolon", ":9", "host:notaport", "host:70000"):
            with pytest.raises(ValueError):
                protocol.parse_address(bad)

    def test_remote_keyerror_is_reraised_as_keyerror(self):
        with pytest.raises(KeyError):
            protocol.raise_remote("KeyError", "'unknown lease id 7'")
        with pytest.raises(ValueError):
            protocol.raise_remote("ValueError", "nope")
        with pytest.raises(protocol.ProtocolError):
            protocol.raise_remote("RuntimeError", "anything else")


class TestSocketContractParity:
    """The broker method contract, verbatim, over the wire."""

    def test_lease_lifecycle_with_explicit_now(self, broker):
        assert broker.lease_timeout == 5.0 and broker.max_attempts == 3
        assert broker.enqueue("k1", ("point", "job")) is True
        assert broker.enqueue("k1") is False  # idempotent by key
        lease = broker.lease(now=100.0)
        assert lease.key == "k1" and lease.attempt == 0
        assert lease.deadline == 105.0
        assert lease.payload == ("point", "job")
        assert broker.lease(now=100.0) is None  # nothing else queued
        assert broker.heartbeat(lease.lease_id, now=104.0) is True
        # The heartbeat extended the deadline: 104 + 5 = 109.
        assert broker.expire(now=108.0) == []
        assert broker.complete(lease.lease_id, now=108.5,
                               values=[1.0, 2.0, 3.0],
                               elapsed=0.125) == "completed"
        assert broker.state("k1") == DONE
        assert broker.result("k1") == ([1.0, 2.0, 3.0], 0.125)
        assert broker.outstanding() == 0
        counters = broker.counters
        assert counters["completed"] == 1 and counters["heartbeats"] == 1

    def test_unknown_lease_id_raises_keyerror_through_the_wire(self, broker):
        with pytest.raises(KeyError):
            broker.complete(999, now=1.0)
        assert broker.heartbeat(999, now=1.0) is False

    def test_fail_is_not_a_wire_op(self, broker):
        """No worker reports a failed attempt: expiry is the only path
        back to the queue, so the server refuses ``fail``."""
        broker.enqueue("k")
        lease = broker.lease(now=1.0)
        with pytest.raises(protocol.ProtocolError, match="unknown op"):
            broker.call("fail", lease_id=lease.lease_id, now=2.0)
        assert broker.state("k") == LEASED

    def test_expiry_retry_and_dead_letter_over_the_wire(self, broker):
        broker.enqueue("doomed")
        for attempt in range(3):
            # A thousand seconds apart: far past any backoff hold.
            now = 1000.0 * (attempt + 1)
            lease = broker.lease(now=now)
            assert lease is not None and lease.attempt == attempt
            reaped = broker.expire(now=now + 10.0)
            assert lease.lease_id in reaped
        assert broker.state("doomed") == DEAD
        letters = broker.dead_letters
        assert len(letters) == 1
        assert letters[0].key == "doomed" and letters[0].attempts == 3
        assert broker.counters["dead"] == 1

    def test_duplicate_delivery_over_the_socket(self, broker):
        """A lease expires and the cell is redelivered; both workers
        complete it — the straggler lands late, the retry is absorbed."""
        broker.enqueue("twice")
        first = broker.lease(now=10.0)
        assert broker.expire(now=20.0) == [first.lease_id]
        retry = broker.lease(now=1000.0)
        assert retry.attempt == first.attempt + 1
        assert retry.lease_id != first.lease_id
        assert broker.complete(first.lease_id, now=1001.0,
                               values=[7.0]) == "late"
        assert broker.complete(retry.lease_id, now=1001.5,
                               values=[7.0]) == "duplicate"
        counters = broker.counters
        assert counters["late"] == 1 and counters["duplicates"] == 1
        # The first completion's values stick.
        assert broker.result("twice") == ([7.0], None)

    def test_dropped_connection_mid_complete_is_idempotent(self, broker):
        """A client that loses the ack resends; the broker absorbs it."""
        broker.enqueue("flaky")
        lease = broker.lease(now=1.0)
        assert broker.complete(lease.lease_id, now=2.0,
                               values=[5.0]) == "completed"
        # The ack was "lost": the client reconnects and resends the
        # exact same completion (what the retry loop in call() does).
        broker.close()
        assert broker.complete(lease.lease_id, now=2.5,
                               values=[5.0]) == "duplicate"
        counters = broker.counters
        assert counters["completed"] == 1 and counters["duplicates"] == 1
        assert broker.result("flaky") == ([5.0], None)

    def test_reset_installs_a_fresh_broker(self, server, broker):
        broker.enqueue("old")
        with SocketBroker(server.address, lease_timeout=2.0,
                          max_attempts=5, reset=True) as fresh:
            assert fresh.lease_timeout == 2.0 and fresh.max_attempts == 5
            assert fresh.counters["enqueued"] == 0
            with pytest.raises(KeyError):
                fresh.state("old")

    def test_batched_enqueue_answers_per_item(self, broker):
        assert broker.enqueue_all([("a", 1), ("b", None)]) == [True, True]
        assert broker.enqueue_all([("b", 2), ("c", 3)]) == [False, True]
        assert broker.lease(now=1.0).payload == 1
        cells, counters, letters = broker.settle(["a", "c"])
        assert cells == {"a": (LEASED, None), "c": (QUEUED, None)}
        assert counters["enqueued"] == 3 and letters == []


def _spawn_workers(server, n, **kwargs):
    """Start ``n`` worker loops on daemon threads against ``server``."""
    workers, threads = [], []
    for index in range(n):
        worker = FleetWorker(SocketBroker(server.address),
                             poll_interval=0.02,
                             label=f"w{index}", **kwargs)
        thread = threading.Thread(target=worker.run, daemon=True)
        workers.append(worker)
        threads.append(thread)
        thread.start()
    return workers, threads


def _reap_workers(workers, threads):
    """Stop every worker loop, join its thread, close its connection."""
    for worker in workers:
        worker.stop()
    for thread in threads:
        thread.join(timeout=10.0)
    for worker in workers:
        worker.broker.close()


def _spy_ops(patch):
    """The list of wire ops this thread sends from now on, by name."""
    caller, ops, call = threading.get_ident(), [], SocketBroker.call

    def spy(self, op, **args):
        if threading.get_ident() == caller:
            ops.append(op)
        return call(self, op, **args)
    patch.setattr(SocketBroker, "call", spy)
    return ops


def _coordinator_ops(server, monkeypatch, x_values):
    """The wire ops the coordinator sends for one healthy grid run."""
    workers, threads = _spawn_workers(server, 2)
    remote = FleetExecutor(FleetOptions(
        broker=server.address, poll_interval=0.02, run_timeout=60.0,
        **FAST))
    grid = (_fleet_point, "x", x_values, "series", SERIES_VALUES)
    kwargs = dict(n_trials=N_TRIALS, seed=GRID_SEED)
    try:
        with monkeypatch.context() as patch:
            ops = _spy_ops(patch)
            fleet = run_grid(*grid, executor=remote, **kwargs)
    finally:
        _reap_workers(workers, threads)
    assert fleet == run_grid(*grid, executor="serial", **kwargs)
    return ops


class TestRealWorkers:
    """Networked FleetExecutor + FleetWorker loops on wall clock."""

    def test_networked_grid_is_bit_identical_to_serial(self, server):
        serial = _run("serial")
        remote = FleetExecutor(FleetOptions(
            broker=server.address, poll_interval=0.02, run_timeout=60.0,
            **FAST))
        workers, threads = _spawn_workers(server, 2)
        try:
            assert _run(remote) == serial
        finally:
            _reap_workers(workers, threads)
        assert remote.stats.completed == len(_grid_digests())
        assert remote.stats.dead == 0
        assert sum(w.leased for w in workers) == len(_grid_digests())

    def test_faultless_run_wire_ops_are_pinned(self, server, monkeypatch):
        """The coordinator's round trips for one healthy run: 3 + k."""
        ops = _coordinator_ops(server, monkeypatch, X_VALUES)
        assert ops[:2] == ["reset", "enqueue"] and ops[-1] == "settle"
        assert ops[2:-1] and ops[2:-1] == ["outstanding"] * len(ops[2:-1])

    def test_round_trips_do_not_grow_with_the_cell_count(self, server,
                                                          monkeypatch):
        small = _coordinator_ops(server, monkeypatch, X_VALUES)
        large = _coordinator_ops(server, monkeypatch,
                                 X_VALUES + [x + 10 for x in X_VALUES])
        assert ([op for op in small if op != "outstanding"]
                == [op for op in large if op != "outstanding"]
                == ["reset", "enqueue", "settle"])

    def test_lost_enqueue_ack_still_settles_every_cell(self, server,
                                                        monkeypatch):
        """The batch lands but its reply is lost; the resent batch is
        refused key by key, and the run still reads every cell back."""
        dispatch, lost = server.dispatch, []

        def drop_first_enqueue_ack(op, args):
            result = dispatch(op, args)
            if op == "enqueue" and not lost:
                lost.append(result)
                server._server.close_connections()
            return result
        monkeypatch.setattr(server, "dispatch", drop_first_enqueue_ack)
        serial = _run("serial")
        workers, threads = _spawn_workers(server, 2)
        remote = FleetExecutor(FleetOptions(
            broker=server.address, poll_interval=0.02, run_timeout=60.0,
            **FAST))
        try:
            assert _run(remote) == serial
        finally:
            _reap_workers(workers, threads)
        assert lost == [[True] * len(_grid_digests())]
        assert remote.stats.reconnects >= 1

    def test_worker_killed_mid_lease_retries_elsewhere(self, server):
        """A worker dies holding a lease; the survivor finishes the grid."""
        digests = _grid_digests()
        serial = _run("serial")
        # The doomed worker dies on the first attempt of one known
        # cell; its twin carries no fault schedule and survives.
        doomed_faults = FaultSchedule(kill={(digests[0], 0)})
        died = []
        doomed = FleetWorker(SocketBroker(server.address),
                             poll_interval=0.02, label="doomed",
                             faults=doomed_faults,
                             on_kill=lambda: died.append(True))
        healthy = FleetWorker(SocketBroker(server.address),
                              poll_interval=0.02, label="healthy")
        threads = [threading.Thread(target=w.run, daemon=True)
                   for w in (doomed, healthy)]
        remote = FleetExecutor(FleetOptions(
            broker=server.address, poll_interval=0.02, run_timeout=60.0,
            **FAST))
        result_box = {}

        def coordinate():
            result_box["run"] = _run(remote)

        coordinator = threading.Thread(target=coordinate, daemon=True)
        try:
            # Start the doomed worker first so it leases digests[0]
            # (lease order is queue order) and dies; only then bring up
            # the survivor, which inherits the retry.
            threads[0].start()
            coordinator.start()
            while not died and coordinator.is_alive():
                time.sleep(0.01)
            threads[1].start()
            coordinator.join(timeout=60.0)
            assert not coordinator.is_alive(), "networked run did not settle"
            assert result_box["run"] == serial
        finally:
            _reap_workers([doomed, healthy], threads)
        assert died == [True]
        assert remote.stats.expired >= 1
        assert remote.stats.retried >= 1
        assert remote.stats.dead == 0

    def test_dropped_completion_is_retried_and_visible(self, server):
        digests = _grid_digests()
        serial = _run("serial")
        faults = FaultSchedule(drop={(digests[1], 0)})
        workers, threads = _spawn_workers(server, 2, faults=faults)
        remote = FleetExecutor(FleetOptions(
            broker=server.address, poll_interval=0.02, run_timeout=60.0,
            **FAST))
        try:
            assert _run(remote) == serial
        finally:
            _reap_workers(workers, threads)
        assert sum(w.dropped for w in workers) == 1
        assert remote.stats.expired >= 1
        assert remote.stats.retried >= 1

    def test_worker_local_cache_completes_without_recompute(
            self, server, tmp_path):
        from repro.evaluation import ResultCache
        serial = _run("serial")
        cache = ResultCache(tmp_path / "cells")
        workers, threads = _spawn_workers(server, 1, cache=cache)
        remote = FleetExecutor(FleetOptions(
            broker=server.address, poll_interval=0.02, run_timeout=60.0,
            **FAST))
        try:
            assert _run(remote) == serial      # cold: computes + fills
            assert _run(remote) == serial      # warm: all cache hits
        finally:
            _reap_workers(workers, threads)
        assert workers[0].cache_hits == len(_grid_digests())

    def test_settle_timeout_without_workers_raises(self, server):
        remote = FleetExecutor(FleetOptions(
            broker=server.address, poll_interval=0.02, run_timeout=0.3))
        with pytest.raises(FleetError, match="did not settle"):
            _run(remote)


class TestFactoryWiring:
    def test_malformed_broker_address_fails_at_option_construction(self):
        with pytest.raises(ValueError):
            FleetOptions(broker="no-port-here")


class TestWorkerOptions:
    def test_nonpositive_heartbeat_interval_is_rejected(self, server):
        with SocketBroker(server.address) as broker:
            for bad in (0.0, -1.0):
                with pytest.raises(ValueError, match="heartbeat_interval"):
                    FleetWorker(broker, heartbeat_interval=bad)

    def test_poll_at_or_above_the_socket_timeout_is_rejected(self, server,
                                                              capsys):
        """A long-poll the socket read cannot outlast is refused up front:
        it would time out mid-wait and resend in a loop."""
        from repro.fleet.net.worker import main
        with SocketBroker(server.address, timeout=2.0) as broker:
            with pytest.raises(ValueError, match=r"\(2\.0\).*\(2\.0\)"):
                FleetWorker(broker, poll_interval=2.0)
        with pytest.raises(ValueError,
                           match=r"poll_interval must be in \(0, 30\)"):
            FleetOptions(poll_interval=30.0)
        assert main(["--broker", server.address, "--poll", "45"]) == 2
        err = capsys.readouterr().err
        assert "poll_interval (45.0)" in err and "(30.0)" in err

    def test_missing_pin_store_is_refused_before_polling(self, server,
                                                         tmp_path, capsys):
        from repro.fleet.net.worker import main
        assert main(["--broker", server.address,
                     "--cache", str(tmp_path / "cells"),
                     "--results-dir", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--cache-max-cells", "3"], "need --cache"),
        (["--results-dir", "benchmarks/results"], "need --cache"),
        (["--cache", "{cells}", "--cache-max-cells", "0"],
         "max_cells must be >= 1"),
    ])
    def test_cache_options_are_checked_before_contacting_the_broker(
            self, tmp_path, capsys, args, message):
        """Nothing listens at the broker address, so reaching it would
        fail with exit 1 instead of the usage error."""
        from repro.fleet.net.worker import main
        args = [arg.format(cells=tmp_path / "cells") for arg in args]
        assert main(["--broker", "127.0.0.1:1", *args]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command, flag", [
        ("fleet-worker", "--cache-max-bytes"),
        ("fleet-worker", "--cache-max-age"),
        ("fleet-worker", "--reconnect-timeout"),
        ("fleet-worker", "--idle-exit"),
        ("fleet-worker", "--heartbeat-interval"),
        ("fleet-worker", "--fault-seed"),
        ("fleet-worker", "--kill-rate"),
        ("fleet-worker", "--drop-rate"),
        ("broker", "--journal-fsync"),
    ])
    def test_removed_flags_are_usage_errors(self, command, flag, capsys):
        from repro.fleet.net import server, worker
        main = worker.main if command == "fleet-worker" else server.main
        with pytest.raises(SystemExit) as exit_info:
            main(["--broker", "127.0.0.1:1", flag, "1"]
                 if command == "fleet-worker" else [flag, "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestLongPoll:
    """``wait`` on ``lease``/``outstanding``: the broker answers on change."""

    def test_blocked_worker_leases_a_late_cell_at_once(self, server):
        # A no-op kill on its first lease ends the loop right there.
        worker = FleetWorker(SocketBroker(server.address), poll_interval=2.0,
                             faults=FaultSchedule(kill={("late", 0)}),
                             on_kill=lambda: None, label="long-poll")
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            time.sleep(0.1)
            enqueued = time.monotonic()
            with SocketBroker(server.address) as coordinator:
                coordinator.enqueue("late")
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert time.monotonic() - enqueued < 0.5
            assert worker.leased == 1
        finally:
            worker.stop()
            worker.broker.close()

    def test_idle_worker_does_not_spin(self, server):
        broker = SocketBroker(server.address)
        calls = []
        lease = broker.lease
        broker.lease = lambda now, wait=None: (calls.append(now),
                                               lease(now, wait=wait))[1]
        worker = FleetWorker(broker, poll_interval=0.2)
        threading.Timer(1.0, worker.stop).start()
        try:
            assert worker.run() == 0
        finally:
            broker.close()
        assert 1 <= len(calls) <= 7

    def test_settle_wait_returns_on_the_last_completion(self, server):
        broker = SocketBroker(server.address)
        broker.enqueue("only")
        lease = broker.lease(time.time())
        box = {}

        def settle():
            with SocketBroker(server.address) as observer:
                box["outstanding"] = observer.outstanding(wait=5.0)
                box["returned"] = time.monotonic()
        waiter = threading.Thread(target=settle, daemon=True)
        waiter.start()
        time.sleep(0.2)
        completed = time.monotonic()
        assert broker.complete(lease.lease_id, time.time(),
                               values=[1.0]) == "completed"
        waiter.join(timeout=5.0)
        broker.close()
        assert not waiter.is_alive()
        assert box["outstanding"] == 0
        assert box["returned"] - completed < 0.5

    def test_waited_lease_deadline_is_fresh_and_replays(self, tmp_path):
        journal = tmp_path / "broker.wal"
        with BrokerServer(lease_timeout=5.0, journal=str(journal)) as live:
            box = {}

            def lease():
                with SocketBroker(live.address) as broker:
                    box["lease"] = broker.lease(time.time(), wait=2.0)
                    box["granted"] = time.time()
            waiter = threading.Thread(target=lease, daemon=True)
            waiter.start()
            time.sleep(0.5)
            with SocketBroker(live.address) as coordinator:
                coordinator.enqueue("waited")
            waiter.join(timeout=5.0)
            assert not waiter.is_alive()
            assert box["lease"].key == "waited"
            assert box["lease"].deadline >= box["granted"] + 5.0 - 0.05
            assert (replay_journal(journal).snapshot()
                    == live._broker.snapshot())

    def test_concurrent_long_polls_lease_each_cell_once(self, server):
        """More waiting workers than cores, fast thread switches: every
        cell is leased and completed exactly once, none lost or doubled."""
        cells = [f"cell-{index}" for index in range(40)]
        leased, stop = [], threading.Event()

        def work():
            with SocketBroker(server.address) as broker:
                while not stop.is_set():
                    lease = broker.lease(time.time(), wait=0.2)
                    if lease is not None:
                        leased.append(lease.key)
                        broker.complete(lease.lease_id, time.time(),
                                        values=[1.0])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=work, daemon=True)
                   for _ in range(6)]
        try:
            for thread in threads:
                thread.start()
            with SocketBroker(server.address) as coordinator:
                for key in cells:
                    coordinator.enqueue(key)
                assert coordinator.outstanding(wait=10.0) == 0
                counters = coordinator.counters
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(leased) == sorted(cells)
        assert counters["completed"] == len(cells)
        assert counters["duplicates"] == 0

    def test_client_refuses_a_protocol_1_broker(self, server, monkeypatch):
        dispatch = server.dispatch

        def old_broker(op, args):
            result = dispatch(op, args)
            return dict(result, protocol=1) if op == "ping" else result
        monkeypatch.setattr(server, "dispatch", old_broker)
        with pytest.raises(protocol.ProtocolError, match="protocol 1"):
            SocketBroker(server.address)

    def test_client_refuses_a_protocol_2_reset(self, server, monkeypatch):
        """A protocol-2 broker answers ``reset`` with True, not the info."""
        dispatch = server.dispatch
        monkeypatch.setattr(server, "dispatch", lambda op, args: (
            True if op == "reset" else dispatch(op, args)))
        with pytest.raises(protocol.ProtocolError,
                           match="protocol 2 or older"):
            SocketBroker(server.address, reset=True)


class TestSettleWaitReaps:
    """``outstanding(now=...)`` reaps: the coordinator sends no ``expire``."""

    @pytest.mark.parametrize("max_attempts", [3, 1])
    def test_dangling_lease_is_retried_or_dead_lettered(self, monkeypatch,
                                                        max_attempts):
        digests = _grid_digests()
        ops = _spy_ops(monkeypatch)
        # In-process workers: the kill abandons the lease, the thread
        # re-enters its loop, and only a reap frees the cell again.
        remote = FleetExecutor(FleetOptions(
            n_workers=2, poll_interval=0.02, run_timeout=30.0,
            faults=FaultSchedule(kill={(digests[0], 0)}),
            **dict(FAST, max_attempts=max_attempts)))
        result = _run(remote)
        assert "expire" not in ops
        assert remote.stats.expired == 1
        if max_attempts == 1:
            assert [d["digest"] for d in remote.dead_letters] == digests[:1]
            assert result.series[SERIES_VALUES[0]][0].mean == 0.0
        else:
            assert result == _run("serial")
            assert remote.stats.retried == 1 and not remote.dead_letters

    def test_reap_inside_outstanding_is_journalled_and_replays(self,
                                                               tmp_path):
        journal = tmp_path / "broker.wal"
        with BrokerServer(lease_timeout=5.0, journal=str(journal)) as live:
            with SocketBroker(live.address) as broker:
                broker.enqueue_all([("a", ("point", 1)), ("b", None)])
                lease = broker.lease(now=10.0)
                assert broker.outstanding(now=12.0) == 2  # not yet due
                assert broker.outstanding(now=20.0, wait=0.01) == 2
                counters = broker.counters
                assert broker.lease(now=1000.0).key == lease.key
            assert counters["expired"] == 1 and counters["retried"] == 1
            assert [op for op, _ in read_journal(journal)[1]] == [
                "enqueue", "enqueue", "lease", "expire", "lease"]
            assert (replay_journal(journal).snapshot()
                    == live._broker.snapshot())


#: Fast reconnect backoff so the outage tests finish in milliseconds.
QUICK_RECONNECT = BackoffPolicy(base=0.02, factor=2.0, cap=0.05, jitter=0.0)


class TestReconnectAndRecovery:
    """Broker death: client reconnects, journal replay, refused resets."""

    def test_client_reconnects_across_server_restart(self):
        first = BrokerServer(lease_timeout=5.0, max_attempts=3).start()
        port = first.port
        broker = SocketBroker(first.address, reconnect=QUICK_RECONNECT)
        assert broker.enqueue("doomed") is True
        first.stop()
        # Same port, fresh (journal-less) broker: the client must ride
        # the severed connection into the replacement transparently.
        second = BrokerServer(port=port, lease_timeout=5.0,
                              max_attempts=3).start()
        try:
            assert broker.outstanding() == 0  # unjournalled state died
            assert broker.enqueue("doomed") is True  # and the key is free
        finally:
            broker.close()
            second.stop()
        assert broker.reconnects >= 1

    def test_call_fails_once_the_reconnect_deadline_passes(self):
        server = BrokerServer().start()
        broker = SocketBroker(server.address, reconnect=QUICK_RECONNECT,
                              reconnect_timeout=0.3)
        server.stop()
        started = time.monotonic()
        with pytest.raises(ConnectionError, match="unreachable for 0.3s"):
            broker.outstanding()
        assert time.monotonic() - started >= 0.3

    def test_reconnect_timeout_must_be_positive(self, server):
        with pytest.raises(ValueError, match="reconnect_timeout"):
            SocketBroker(server.address, reconnect_timeout=0.0)

    def test_reset_refused_while_leases_outstanding(self, server, broker):
        broker.enqueue("busy")
        assert broker.lease(now=time.time()) is not None
        with pytest.raises(BrokerBusyError, match="reset refused"):
            SocketBroker(server.address, reset=True)
        # The in-flight run survived the refused reset untouched.
        assert broker.state("busy") == LEASED
        with SocketBroker(server.address, reset=True,
                          force_reset=True) as forced:
            assert forced.counters["enqueued"] == 0

    def test_worker_retries_lease_polls_while_broker_is_down(self):
        server = BrokerServer().start()
        broker = SocketBroker(server.address, reconnect=QUICK_RECONNECT,
                              reconnect_timeout=0.1)
        server.stop()
        worker = FleetWorker(broker, poll_interval=0.01,
                             retry=BackoffPolicy(base=0.02, cap=0.05,
                                                 jitter=0.0))
        threading.Timer(0.8, worker.stop).start()
        assert worker.run() == 0  # survived the outage until stopped
        assert worker.broker_retries >= 2

    def test_journalled_server_restart_resumes_state(self, tmp_path):
        journal = tmp_path / "broker.wal"
        first = BrokerServer(lease_timeout=5.0, max_attempts=3,
                             journal=str(journal)).start()
        port = first.port
        broker = SocketBroker(first.address, reconnect=QUICK_RECONNECT)
        broker.enqueue("persistent", ("point", 1))
        lease = broker.lease(now=10.0)
        first.stop()
        second = BrokerServer(port=port, journal=str(journal)).start()
        try:
            # The replayed broker still holds the pre-crash lease; the
            # client completes it as if nothing happened.
            assert second.replayed == 2  # enqueue + lease
            assert broker.state("persistent") == LEASED
            assert broker.complete(lease.lease_id, now=11.0,
                                   values=[4.0]) == "completed"
            assert broker.result("persistent") == ([4.0], None)
            counters = broker.counters
            assert counters["replayed"] == 2
            assert counters["completed"] == 1
            # A wire reset compacts the journal back to config-only.
            SocketBroker(second.address, reset=True).close()
            assert read_journal(journal)[1] == []
        finally:
            broker.close()
            second.stop()

    def test_broker_crash_mid_run_replays_and_stays_bit_identical(
            self, tmp_path):
        journal = tmp_path / "broker.wal"
        serial = _run("serial")
        digests = _grid_digests()
        # Every first attempt drops its completion, so leases dangle and
        # the run is guaranteed to still be in flight when we crash.
        faults = FaultSchedule(drop={(digest, 0) for digest in digests})
        first = BrokerServer(journal=str(journal), **FAST).start()
        port = first.port
        workers, threads = _spawn_workers(first, 2, faults=faults)
        remote = FleetExecutor(FleetOptions(
            broker=first.address, poll_interval=0.02, run_timeout=60.0,
            **FAST))
        box = {}
        coordinator = threading.Thread(
            target=lambda: box.update(run=_run(remote)), daemon=True)
        first_stopped = False
        second = None
        try:
            coordinator.start()
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if (journal.exists()
                        and b'"op":"lease"' in journal.read_bytes()):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("no lease was journalled within 30s")
            first.stop()          # the crash: state survives only on disk
            first_stopped = True
            second = BrokerServer(port=port, journal=str(journal)).start()
            assert second.replayed > 0
            coordinator.join(timeout=60.0)
            assert not coordinator.is_alive(), ("networked run did not "
                                                "settle after the restart")
            assert box["run"] == serial
        finally:
            _reap_workers(workers, threads)
            if not first_stopped:
                first.stop()
            if second is not None:
                second.stop()
        assert remote.stats.replayed > 0
        assert remote.stats.reconnects >= 1
        assert remote.stats.retried >= len(digests)
        assert remote.stats.dead == 0
