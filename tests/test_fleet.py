"""The fleet executor: broker protocol, fault injection, run-id parity.

The tentpole guarantees under test: the work-queue executor is
bit-identical to the serial executor — including under injected worker
kills and dropped completions — because jobs are digest-addressed and
completion is idempotent; a lease that misses its heartbeats is
requeued with capped exponential backoff; bounded retries end in a dead
letter that the run record surfaces and ``repro diff`` classifies as
value drift (exit 1), never as a corrupt record (exit 3).

The broker state machine is driven with explicit instants, so its tests
are exact.  Executor runs use the in-process fleet — a loopback broker
server and worker threads on the wall clock — with half-second leases
(:data:`FAST`), so they assert invariants (values, settled counts,
faults visibly absorbed) rather than exact counts, which depend on
thread timing.
"""

import gc
import json
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.evaluation import build_jobs, get_executor, run_grid
from repro.evaluation import ResultCache
from repro.evaluation.scenarios import point_fingerprint
from repro.fleet import (
    DEAD,
    DONE,
    LEASED,
    QUEUED,
    BackoffPolicy,
    FaultSchedule,
    FleetExecutor,
    FleetOptions,
    FleetStats,
    InProcessBroker,
)
from repro.results import diff_records, load_record, save_record
from repro.service import ServiceCore

REPO_ROOT = Path(__file__).parent.parent
RESULTS = REPO_ROOT / "benchmarks" / "results"

#: One panel, five cells at laptop scale — cheap enough to compute live.
CHEAP_BENCH = "ablation_truncation_threshold"
CHEAP_STEM = "ablation_threshold"

#: Wall-clock-fast fleet: a killed worker's lease expires in half a
#: second, retries release almost at once, and idle loops poll often.
FAST = dict(lease_timeout=0.5, heartbeat_interval=0.15, poll_interval=0.02,
            backoff=BackoffPolicy(base=0.05, cap=0.2))


def _fast(**overrides):
    """:data:`FAST` fleet options, with per-test overrides."""
    return FleetOptions(**{**FAST, **overrides})


def _fleet_point(series, x, rng):
    """A module-level grid point: deterministic given the job's rng."""
    return float(series) * float(x) + float(rng.normal())


#: The acceptance grid: 4 x-values x 2 series = 8 cells.
X_VALUES = [1, 2, 3, 4]
SERIES_VALUES = [10, 20]
N_TRIALS = 3
GRID_SEED = 11


def _grid_digests():
    """The 8 cell digests exactly as ``run_grid`` will derive them.

    ``run_grid`` folds the point's code fingerprint into every digest,
    so scripted fault coordinates must be built the same way or they
    silently target nothing.
    """
    jobs = build_jobs("x", X_VALUES, "series", SERIES_VALUES,
                      n_trials=N_TRIALS, seed=GRID_SEED,
                      code_token=point_fingerprint(_fleet_point))
    return [job.digest for job in jobs]


def _run(executor):
    """The acceptance grid through any executor."""
    return run_grid(_fleet_point, "x", X_VALUES, "series", SERIES_VALUES,
                    n_trials=N_TRIALS, seed=GRID_SEED, executor=executor)


class TestBackoffPolicy:
    def test_equal_policies_give_equal_schedules(self):
        """Jitter is seeded, never drawn from a global RNG."""
        a = BackoffPolicy(seed=3)
        b = BackoffPolicy(seed=3)
        assert a.schedule("cell", 8) == b.schedule("cell", 8)
        # A different seed (or key) moves the jitter.
        assert BackoffPolicy(seed=4).schedule("cell", 8) != a.schedule(
            "cell", 8)
        assert a.schedule("other", 8) != a.schedule("cell", 8)

    def test_monotone_nondecreasing_up_to_the_cap(self):
        policy = BackoffPolicy(base=0.5, factor=2.0, cap=30.0, jitter=0.1)
        for key in ("a", "b", "c"):
            delays = policy.schedule(key, 12)
            assert all(lo <= hi for lo, hi in zip(delays, delays[1:]))
            assert delays[0] >= policy.base
            # Saturates at exactly the cap and stays there.
            assert delays[-1] == policy.cap

    def test_jitter_only_fuzzes_upward_within_bound(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, cap=1000.0, jitter=0.25)
        for attempt in range(6):
            raw = policy.base * policy.factor ** attempt
            delay = policy.delay("k", attempt)
            assert raw <= delay <= raw * 1.25

    def test_invalid_schedules_are_rejected_at_construction(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(base=2.0, cap=1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            # factor < 1 + jitter could rewind the schedule.
            BackoffPolicy(factor=1.05, jitter=0.1)
        with pytest.raises(ValueError):
            BackoffPolicy().delay("k", -1)


class TestFaultSchedule:
    def test_default_schedule_injects_nothing(self):
        quiet = FaultSchedule()
        assert not any(quiet.kill_worker(f"d{i}", a)
                       or quiet.drop_completion(f"d{i}", a)
                       for i in range(20) for a in range(3))

    def test_decisions_replay_bit_for_bit(self):
        a = FaultSchedule(seed=9, kill_rate=0.3, drop_rate=0.3)
        b = FaultSchedule(seed=9, kill_rate=0.3, drop_rate=0.3)
        events = [(f"digest{i}", attempt)
                  for i in range(50) for attempt in range(3)]
        assert ([a.kill_worker(d, t) for d, t in events]
                == [b.kill_worker(d, t) for d, t in events])
        assert ([a.drop_completion(d, t) for d, t in events]
                == [b.drop_completion(d, t) for d, t in events])
        # A nonzero rate actually fires somewhere.
        assert any(a.kill_worker(d, t) for d, t in events)

    def test_scripted_sets_force_exact_coordinates(self):
        plan = FaultSchedule(kill={("cell", 1)}, drop={("lost", 0)},
                             poison={"cursed"})
        assert not plan.kill_worker("cell", 0)
        assert plan.kill_worker("cell", 1)
        assert plan.drop_completion("lost", 0)
        assert not plan.drop_completion("lost", 1)
        # Poison kills every attempt: the dead-letter guarantee.
        assert all(plan.kill_worker("cursed", attempt)
                   for attempt in range(10))

    def test_rates_outside_unit_interval_are_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule(kill_rate=1.5)
        with pytest.raises(ValueError):
            FaultSchedule(drop_rate=-0.1)


def _next_eligible(broker):
    """When the earliest backoff hold on a queued task releases."""
    holds = [task["not_before"] for task in broker.snapshot()["tasks"].values()
             if task["state"] == QUEUED]
    return min(holds) if holds else None


class TestBrokerProtocol:
    def _broker(self, **kwargs):
        kwargs.setdefault("lease_timeout", 5.0)
        kwargs.setdefault("backoff", BackoffPolicy(base=1.0, jitter=0.0))
        return InProcessBroker(**kwargs)

    def test_enqueue_is_idempotent_per_key(self):
        broker = self._broker()
        assert broker.enqueue("a") is True
        assert broker.enqueue("a") is False
        assert broker.counters["enqueued"] == 1

    def test_happy_path_lease_then_complete(self):
        broker = self._broker()
        broker.enqueue("a", payload="job-a")
        lease = broker.lease(now=0.0)
        assert lease.key == "a" and lease.attempt == 0
        assert lease.payload == "job-a"
        assert broker.state("a") == LEASED
        assert broker.complete(lease.lease_id, now=1.0) == "completed"
        assert broker.state("a") == DONE
        assert broker.outstanding() == 0

    def test_leases_deliver_oldest_eligible_first(self):
        broker = self._broker()
        for key in ("a", "b", "c"):
            broker.enqueue(key)
        assert [broker.lease(0.0).key for _ in range(3)] == ["a", "b", "c"]
        assert broker.lease(0.0) is None

    def test_heartbeat_extends_the_deadline(self):
        broker = self._broker()
        broker.enqueue("a")
        lease = broker.lease(now=0.0)
        assert broker.heartbeat(lease.lease_id, now=4.0) is True
        # Without the beat the lease would have died at t=5.
        assert broker.expire(now=6.0) == []
        assert broker.state("a") == LEASED
        # The extended deadline (4 + 5) is still enforced.
        assert broker.expire(now=9.0) == [lease.lease_id]

    def test_expired_lease_requeues_with_backoff_hold(self):
        broker = self._broker()
        broker.enqueue("a")
        lease = broker.lease(now=0.0)
        assert broker.expire(now=5.0) == [lease.lease_id]
        assert broker.state("a") == QUEUED
        assert broker.counters["expired"] == 1
        assert broker.counters["retried"] == 1
        # The backoff hold keeps the task off the queue...
        hold = _next_eligible(broker)
        assert hold == 5.0 + broker.backoff.delay("a", 0)
        assert broker.lease(now=hold - 0.5) is None
        # ...and the retry is a fresh attempt.
        retry = broker.lease(now=hold)
        assert retry.attempt == 1
        # A beat on the reaped lease tells the worker to stand down.
        assert broker.heartbeat(lease.lease_id, now=hold) is False

    def test_late_completion_is_accepted_then_duplicates_absorbed(self):
        """A straggler's result equals a retry's: digest addressing."""
        broker = self._broker()
        broker.enqueue("a")
        first = broker.lease(now=0.0)
        broker.expire(now=5.0)
        hold = _next_eligible(broker)
        second = broker.lease(now=hold)
        # The original worker finally reports in: accepted as late.
        assert broker.complete(first.lease_id, now=hold + 1) == "late"
        assert broker.state("a") == DONE
        # The retry's completion is now a counted no-op.
        assert broker.complete(second.lease_id, now=hold + 2) == "duplicate"
        assert broker.counters["late"] == 1
        assert broker.counters["duplicates"] == 1
        assert broker.counters["completed"] == 1

    def test_retry_exhaustion_produces_one_dead_letter(self):
        broker = self._broker(max_attempts=2)
        broker.enqueue("a", payload="job-a")
        now = 0.0
        for _ in range(2):
            broker.lease(now)
            broker.expire(now + 5.0)
            eligible = _next_eligible(broker)
            now = eligible if eligible is not None else now + 5.0
        assert broker.state("a") == DEAD
        assert broker.outstanding() == 0
        assert broker.lease(now) is None
        [letter] = broker.dead_letters
        assert letter.key == "a" and letter.attempts == 2
        assert letter.reason == "lease expired after 2 attempts"
        assert letter.payload == "job-a"
        assert broker.counters["dead"] == 1

    def test_constructor_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            InProcessBroker(lease_timeout=0.0)
        with pytest.raises(ValueError):
            InProcessBroker(max_attempts=0)

    def test_lease_owner_index_is_pruned_once_tasks_resolve(self):
        """Regression: a long-lived broker must not leak one lease-index
        entry per lease forever (exactly what the networked tier, whose
        broker outlives every run, would hit)."""
        broker = self._broker(max_attempts=2)
        # "a": completes on its second attempt after one expiry.
        broker.enqueue("a")
        broker.lease(now=0.0)
        broker.expire(now=5.0)
        retry = broker.lease(now=_next_eligible(broker))
        assert broker.complete(retry.lease_id, now=20.0) == "completed"
        # "b": exhausts its retries into a dead letter.
        broker.enqueue("b")
        now = 20.0
        for _ in range(2):
            broker.lease(now)
            broker.expire(now + 5.0)
            eligible = _next_eligible(broker)
            now = eligible if eligible is not None else now + 5.0
        assert broker.state("a") == DONE and broker.state("b") == DEAD
        assert broker.outstanding() == 0
        # Four leases were issued; none may linger in the index.
        assert broker._lease_owner == {}

    def test_straggler_completion_after_prune_is_a_duplicate(self):
        """A pruned (but once-issued) lease id is absorbed, not an error;
        a never-issued id is still a loud caller bug."""
        broker = self._broker()
        broker.enqueue("a")
        first = broker.lease(now=0.0)
        broker.expire(now=5.0)
        second = broker.lease(now=_next_eligible(broker))
        assert broker.complete(second.lease_id, now=20.0) == "completed"
        # The index was pruned at completion; the straggler's id is gone
        # but must still be absorbed idempotently.
        assert broker.complete(first.lease_id, now=21.0) == "duplicate"
        assert broker.heartbeat(first.lease_id, now=21.0) is False
        assert broker.counters["duplicates"] == 1
        with pytest.raises(KeyError):
            broker.complete(999, now=22.0)

    def test_completion_values_ship_through_the_broker(self):
        """The networked channel home: first completion pins the values,
        duplicates never overwrite them."""
        broker = self._broker()
        broker.enqueue("a")
        lease = broker.lease(now=0.0)
        assert broker.result("a") is None
        assert broker.complete(lease.lease_id, now=1.0,
                               values=[1.0, 2.0], elapsed=0.25) == "completed"
        assert broker.result("a") == ([1.0, 2.0], 0.25)
        # A resent completion carrying other values is absorbed.
        assert broker.complete(lease.lease_id, now=2.0,
                               values=[9.0, 9.0], elapsed=9.0) == "duplicate"
        assert broker.result("a") == ([1.0, 2.0], 0.25)


class TestFleetStats:
    def test_merge_accumulates_every_counter(self):
        a = FleetStats(leased=2, completed=2)
        b = FleetStats(leased=3, retried=1, dead=1)
        a.merge(b)
        assert a.leased == 5 and a.completed == 2
        assert a.retried == 1 and a.dead == 1

    def test_as_dict_mirrors_the_fields_and_active_detects_work(self):
        stats = FleetStats()
        assert not stats.active()
        payload = stats.as_dict()
        assert set(payload) == {
            "enqueued", "leased", "heartbeats", "completed", "duplicates",
            "late", "expired", "retried", "dead", "reconnects", "replayed"}
        stats.enqueued = 1
        assert stats.active()


class TestEngineRegistration:
    def test_get_executor_resolves_fleet(self):
        executor = get_executor("fleet")
        assert isinstance(executor, FleetExecutor)
        sized = get_executor("fleet", max_workers=2)
        assert sized.options.n_workers == 2

    def test_unknown_executor_error_lists_fleet(self):
        with pytest.raises(ValueError, match="fleet"):
            get_executor("boat")

    def test_fleet_options_validation(self):
        with pytest.raises(ValueError):
            FleetOptions(n_workers=0)
        with pytest.raises(ValueError):
            FleetOptions(max_attempts=0)


def _raising_point(series, x, rng):
    """A module-level point whose every call fails."""
    raise RuntimeError(f"point failed at x={x}")


def _lambda_point():
    """A point the fleet cannot ship to its workers."""
    return lambda series, x, rng: float(series) * float(x)


class TestFleetExecutor:
    def test_empty_grid_is_a_no_op(self):
        assert FleetExecutor().run([]) == []

    def test_faultless_fleet_matches_serial_bit_for_bit(self):
        executor = FleetExecutor(_fast())
        fleet = _run(executor)
        serial = _run("serial")
        assert fleet.series == serial.series
        stats = executor.stats
        assert stats.enqueued == stats.completed == 8
        assert stats.retried == stats.dead == stats.expired == 0

    def test_acceptance_grid_survives_kill_and_drop(self):
        """8 cells, one worker killed mid-job and one completion lost in
        transit: both cells retry elsewhere and the grid is still
        bit-identical to serial."""
        digests = _grid_digests()
        faults = FaultSchedule(kill=frozenset({(digests[0], 0)}),
                               drop=frozenset({(digests[1], 0)}))
        executor = FleetExecutor(_fast(n_workers=4, faults=faults))

        fleet = _run(executor)
        serial = _run("serial")

        assert fleet.series == serial.series
        stats = executor.stats
        assert stats.completed == 8
        assert stats.retried >= 2       # kill + drop both requeued
        assert stats.expired >= 2
        assert stats.dead == 0
        assert executor.dead_letters == []

    def test_fleet_cells_land_in_the_cache_and_rerun_is_free(self, tmp_path):
        first = FleetExecutor(_fast())
        run_grid(_fleet_point, "x", X_VALUES, "series", SERIES_VALUES,
                 n_trials=N_TRIALS, seed=GRID_SEED, executor=first,
                 cache=ResultCache(tmp_path))
        assert first.stats.enqueued == 8
        warm = ResultCache(tmp_path)
        second = FleetExecutor(_fast())
        rerun = run_grid(_fleet_point, "x", X_VALUES, "series",
                         SERIES_VALUES, n_trials=N_TRIALS, seed=GRID_SEED,
                         executor=second, cache=warm)
        # Every cell hit the cache; the fleet never even spun up.
        assert (warm.hits, warm.misses) == (8, 0)
        assert not second.stats.active()
        assert rerun.series == _run("serial").series

    def test_poisoned_cell_dead_letters_under_the_record_policy(self,
                                                                tmp_path):
        digests = _grid_digests()
        poisoned = digests[0]
        executor = FleetExecutor(_fast(
            faults=FaultSchedule(poison=frozenset({poisoned}))))
        cache = ResultCache(tmp_path)
        result = run_grid(_fleet_point, "x", X_VALUES, "series",
                          SERIES_VALUES, n_trials=N_TRIALS, seed=GRID_SEED,
                          executor=executor, cache=cache)
        stats = executor.stats
        assert stats.dead == 1
        assert stats.expired >= executor.options.max_attempts
        [letter] = executor.dead_letters
        assert letter["digest"] == poisoned
        assert letter["attempts"] == executor.options.max_attempts
        assert "lease expired" in letter["reason"]
        # The placeholder never poisons the cache...
        jobs = build_jobs("x", X_VALUES, "series", SERIES_VALUES,
                          n_trials=N_TRIALS, seed=GRID_SEED,
                          code_token=point_fingerprint(_fleet_point))
        assert cache.get(jobs[0]) is None
        assert all(cache.get(job) is not None for job in jobs[1:])
        # ...and every healthy cell still matches serial.
        serial = _run("serial")
        for series in SERIES_VALUES:
            for fleet_stat, serial_stat in zip(result.series[series],
                                               serial.series[series]):
                if fleet_stat != serial_stat:
                    assert fleet_stat.mean == 0.0
        payload = executor.record_payload()
        assert payload["counters"]["dead"] == 1
        assert payload["dead_letters"][0]["digest"] == poisoned

    @pytest.mark.parametrize("broker", [None, "127.0.0.1:1"])
    def test_unpicklable_point_fails_before_any_broker_call(self, broker):
        """A lambda fails with the engine's TypeError before any broker
        is contacted or worker thread started (nothing listens on the
        networked address, so reaching it would raise otherwise)."""
        before = set(threading.enumerate())
        fleet = FleetExecutor(_fast(broker=broker, reconnect_timeout=0.1))
        with pytest.raises(TypeError, match="fleet executor needs a "
                                            "picklable point function"):
            run_grid(_lambda_point(), "x", [1], "series", [2], n_trials=1,
                     seed=0, executor=fleet)
        assert set(threading.enumerate()) == before
        assert not fleet.stats.active()

    def test_point_error_in_a_worker_thread_fails_the_run(self):
        """A raising point fails the run with its own exception, as under
        serial, instead of stalling until ``run_timeout``."""
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="point failed at x="):
            run_grid(_raising_point, "x", X_VALUES, "series", SERIES_VALUES,
                     n_trials=N_TRIALS, seed=GRID_SEED,
                     executor=FleetExecutor(_fast(run_timeout=30.0)))
        assert set(threading.enumerate()) == before

    def test_long_poll_does_not_delay_teardown(self):
        """Workers blocked in a 5 s lease long-poll are woken at teardown,
        and the coordinator's settle wait ends on the last completion."""
        executor = FleetExecutor(_fast(n_workers=2, poll_interval=5.0))
        started = time.monotonic()
        assert _run(executor).series == _run("serial").series
        assert time.monotonic() - started < 2.0

    @pytest.mark.parametrize("outcome", ["settled", "raised"])
    def test_in_process_fleet_leaves_nothing_behind(self, outcome):
        """No broker, handler, worker or heartbeat thread and no socket
        outlives a run — a successful one, or one that raised."""
        executor = FleetExecutor(_fast())
        before = set(threading.enumerate())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            if outcome == "settled":
                assert _run(executor).series == _run("serial").series
            else:
                with pytest.raises(RuntimeError, match="point failed at x="):
                    run_grid(_raising_point, "x", X_VALUES, "series",
                             SERIES_VALUES, n_trials=N_TRIALS,
                             seed=GRID_SEED, executor=executor)
            assert set(threading.enumerate()) == before
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []


class TestServiceTierFleet:
    def test_service_fleet_run_matches_committed_baseline(self, tmp_path):
        """Bench/CLI/served parity extends to the fleet executor."""
        committed = json.loads(
            (RESULTS / f"{CHEAP_STEM}.json").read_text())
        core = ServiceCore(cache=tmp_path / "cache", fleet=_fast())
        run = core.run_bench(CHEAP_BENCH, executor="fleet")
        assert run.record.run_id == committed["run_id"]
        assert run.record.executor == "fleet"
        assert run.record.fleet is not None
        n_cells = run.record.n_cells()
        assert run.record.fleet["counters"]["completed"] == n_cells
        # Core-lifetime counters feed /stats and cache stats --json.
        assert core.fleet_stats.completed == n_cells

    def test_fleet_telemetry_rides_records_without_moving_run_id(
            self, tmp_path):
        core = ServiceCore(cache=tmp_path / "cache", fleet=_fast())
        fleet_run = core.run_bench(CHEAP_BENCH, executor="fleet")
        serial_run = ServiceCore(
            cache=tmp_path / "cache2").run_bench(CHEAP_BENCH)
        assert fleet_run.record.run_id == serial_run.record.run_id
        path = save_record(fleet_run.record, tmp_path / "fleet.json")
        reloaded = load_record(path)
        assert reloaded.run_id == fleet_run.record.run_id
        assert reloaded.fleet == fleet_run.record.fleet
        # Serial records carry no fleet key at all — byte-stable.
        assert serial_run.record.fleet is None
        assert "fleet" not in json.loads(
            save_record(serial_run.record,
                        tmp_path / "serial.json").read_text())

    def test_dead_letter_diffs_as_value_drift_not_corruption(self, tmp_path):
        """Retry exhaustion must read as 'same experiment, wrong numbers'
        (exit 1) — comparable provenance, never a corrupt record."""
        committed = load_record(RESULTS / f"{CHEAP_STEM}.json")
        poisoned = committed.panels[0].cells[0].digest
        core = ServiceCore(
            cache=tmp_path / "cache",
            fleet=_fast(faults=FaultSchedule(poison=frozenset({poisoned}))))
        broken = core.run_bench(CHEAP_BENCH, executor="fleet").record
        assert broken.fleet["counters"]["dead"] == 1
        assert broken.fleet["dead_letters"][0]["digest"] == poisoned
        diff = diff_records(committed, broken, "baseline", "fleet")
        assert not diff.provenance_drift
        assert diff.value_drift
        assert diff.exit_code == 1
        assert "VALUE DRIFT" in diff.format_summary()

    @pytest.mark.parametrize("entry", ["bench", "spec"])
    def test_max_workers_sizes_the_fleet_pool(self, entry, tmp_path,
                                              monkeypatch):
        """``--executor fleet --max-workers N`` runs N workers, as
        ``get_executor("fleet", max_workers=N)`` does; the core's own
        fleet options are left untouched."""
        sizes = []
        run = FleetExecutor.run

        def spy(self, payloads):
            sizes.append(self.options.n_workers)
            return run(self, payloads)

        monkeypatch.setattr(FleetExecutor, "run", spy)
        core = ServiceCore(cache=tmp_path / "cache", fleet=_fast())
        if entry == "bench":
            core.run_bench(CHEAP_BENCH, executor="fleet", max_workers=2)
        else:
            from repro.evaluation import ExperimentSpec
            spec = ExperimentSpec.from_dict({
                "name": "pool_size", "solver": "private_lasso",
                "data": "l1_linear", "metric": "excess_risk",
                "solver_kwargs": {"delta": 1e-5},
                "data_kwargs": {
                    "n": 100,
                    "features": {"name": "lognormal", "sigma": 0.6},
                    "noise": {"name": "gaussian", "scale": 0.1}},
                "sweep": {"name": "epsilon", "target": "solver.epsilon",
                          "values": [1.0]},
                "series": {"name": "d", "target": "data.d", "values": [4]},
                "n_trials": 1, "seed": 0})
            core.run_spec(spec, executor="fleet", max_workers=2)
        assert sizes and set(sizes) == {2}
        assert core.fleet.n_workers == FleetOptions().n_workers
