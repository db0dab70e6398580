"""The fleet executor: broker protocol, fault injection, run-id parity.

The tentpole guarantees under test: the work-queue executor is
bit-identical to the serial executor — including under injected worker
kills, dropped completions, suppressed heartbeats, and duplicated
deliveries — because jobs are digest-addressed and completion is
idempotent; a lease that misses its heartbeats is requeued with capped
exponential backoff; bounded retries end in a dead letter that the run
record surfaces and ``repro diff`` classifies as value drift (exit 1),
never as a corrupt record (exit 3).

Everything here runs on virtual time (:class:`repro.fleet.ManualClock`):
a "5 second" lease expires in microseconds of wall clock, on an exactly
reproducible tick.
"""

import json
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
    FleetError,
    FleetExecutor,
    FleetOptions,
    FleetStats,
    InProcessBroker,
    ManualClock,
)
from repro.results import diff_records, load_record, save_record
from repro.service import ServiceCore

REPO_ROOT = Path(__file__).parent.parent
BASELINES = REPO_ROOT / "benchmarks" / "baselines"

#: One panel, five cells at laptop scale — cheap enough to compute live.
CHEAP_BENCH = "ablation_truncation_threshold"


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


class TestManualClock:
    def test_advance_moves_time_and_sleep_never_blocks(self):
        clock = ManualClock(start=5.0)
        assert clock.now() == 5.0
        assert clock.advance(2.5) == 7.5
        clock.sleep(60.0)  # a wall-clock minute, instantly
        assert clock.now() == 67.5

    def test_time_is_monotonic_by_contract(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-0.1)


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
                       or quiet.duplicate_delivery(f"d{i}", a)
                       or quiet.delay_heartbeat(f"d{i}", a)
                       for i in range(20) for a in range(3))

    def test_decisions_replay_bit_for_bit(self):
        a = FaultSchedule(seed=9, kill_rate=0.3, drop_rate=0.3,
                          duplicate_rate=0.3, delay_rate=0.3)
        b = FaultSchedule(seed=9, kill_rate=0.3, drop_rate=0.3,
                          duplicate_rate=0.3, delay_rate=0.3)
        events = [(f"digest{i}", attempt)
                  for i in range(50) for attempt in range(3)]
        assert ([a.kill_worker(d, t) for d, t in events]
                == [b.kill_worker(d, t) for d, t in events])
        assert ([a.drop_completion(d, t) for d, t in events]
                == [b.drop_completion(d, t) for d, t in events])
        # A nonzero rate actually fires somewhere.
        assert any(a.kill_worker(d, t) for d, t in events)

    def test_scripted_sets_force_exact_coordinates(self):
        plan = FaultSchedule(kill={("cell", 1)}, duplicate={"twin"},
                             poison={"cursed"})
        assert not plan.kill_worker("cell", 0)
        assert plan.kill_worker("cell", 1)
        # Duplicates fire on the first dispatch only.
        assert plan.duplicate_delivery("twin", 0)
        assert not plan.duplicate_delivery("twin", 1)
        # Poison kills every attempt: the dead-letter guarantee.
        assert all(plan.kill_worker("cursed", attempt)
                   for attempt in range(10))

    def test_rates_outside_unit_interval_are_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule(kill_rate=1.5)
        with pytest.raises(ValueError):
            FaultSchedule(delay_rate=-0.1)


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
        hold = broker.next_eligible()
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
        hold = broker.next_eligible()
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
            eligible = broker.next_eligible()
            now = eligible if eligible is not None else now + 5.0
        assert broker.state("a") == DEAD
        assert broker.outstanding() == 0
        assert broker.lease(now) is None
        [letter] = broker.dead_letters
        assert letter.key == "a" and letter.attempts == 2
        assert letter.reason == "lease expired after 2 attempts"
        assert letter.payload == "job-a"
        assert broker.counters["dead"] == 1

    def test_explicit_fail_requeues_without_waiting_for_expiry(self):
        broker = self._broker()
        broker.enqueue("a")
        lease = broker.lease(now=0.0)
        assert broker.fail(lease.lease_id, now=1.0, reason="oom") == "requeued"
        assert broker.state("a") == QUEUED
        retry = broker.lease(now=broker.next_eligible())
        broker.complete(retry.lease_id, now=10.0)
        # Failing a finished task is a no-op.
        assert broker.fail(retry.lease_id, now=11.0) == "ignored"

    def test_duplicate_lease_shares_the_attempt_number(self):
        """A twin delivery is the same attempt arriving twice."""
        broker = self._broker()
        broker.enqueue("a")
        assert broker.duplicate_lease("a", now=0.0) is None  # still QUEUED
        original = broker.lease(now=0.0)
        twin = broker.duplicate_lease("a", now=1.0)
        assert twin.attempt == original.attempt == 0
        assert twin.lease_id != original.lease_id
        assert broker.counters["duplicated"] == 1
        assert broker.complete(twin.lease_id, now=2.0) == "completed"
        assert broker.complete(original.lease_id, now=3.0) == "duplicate"
        assert broker.duplicate_lease("a", now=4.0) is None  # DONE now

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
        retry = broker.lease(now=broker.next_eligible())
        assert broker.complete(retry.lease_id, now=20.0) == "completed"
        # "b": exhausts its retries into a dead letter.
        broker.enqueue("b")
        now = 20.0
        for _ in range(2):
            broker.lease(now)
            broker.expire(now + 5.0)
            eligible = broker.next_eligible()
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
        second = broker.lease(now=broker.next_eligible())
        assert broker.complete(second.lease_id, now=20.0) == "completed"
        # The index was pruned at completion; the straggler's id is gone
        # but must still be absorbed idempotently.
        assert broker.complete(first.lease_id, now=21.0) == "duplicate"
        assert broker.fail(first.lease_id, now=21.0) == "ignored"
        assert broker.heartbeat(first.lease_id, now=21.0) is False
        assert broker.counters["duplicates"] == 1
        with pytest.raises(KeyError):
            broker.complete(999, now=22.0)
        with pytest.raises(KeyError):
            broker.fail(999, now=22.0)

    def test_completion_values_ship_through_the_broker(self):
        """The networked channel home: first completion pins the values,
        duplicates never overwrite them."""
        broker = self._broker()
        broker.enqueue("a")
        lease = broker.lease(now=0.0)
        assert broker.result("a") is None
        twin = broker.duplicate_lease("a", now=0.5)
        assert broker.complete(lease.lease_id, now=1.0,
                               values=[1.0, 2.0], elapsed=0.25) == "completed"
        assert broker.result("a") == ([1.0, 2.0], 0.25)
        assert broker.complete(twin.lease_id, now=2.0,
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
            "enqueued", "leased", "duplicated", "heartbeats", "completed",
            "duplicates", "late", "expired", "retried", "dead", "killed",
            "dropped", "reconnects", "replayed"}
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
            FleetOptions(tick=0.0)
        with pytest.raises(ValueError):
            FleetOptions(max_attempts=0)
        with pytest.raises(ValueError):
            FleetOptions(dead_letter_policy="shrug")


class TestFleetExecutor:
    def test_empty_grid_is_a_no_op(self):
        assert FleetExecutor().run([]) == []

    def test_faultless_fleet_matches_serial_bit_for_bit(self):
        executor = FleetExecutor()
        fleet = _run(executor)
        serial = _run("serial")
        assert fleet.series == serial.series
        stats = executor.stats
        assert stats.enqueued == stats.completed == 8
        assert stats.retried == stats.dead == stats.expired == 0

    def test_acceptance_grid_survives_kill_drop_delay_duplicate(self):
        """The issue's acceptance bar: 8 cells, >=1 killed worker and
        >=1 duplicated completion, run_id-grade parity with serial."""
        digests = _grid_digests()
        probe = FleetExecutor()
        kill_target, drop_target = digests[0], digests[1]
        faulted = {kill_target, drop_target}
        # Heartbeat suppression only bites cells outliving the lease.
        long_cells = [d for d in digests if d not in faulted
                      and probe._duration(d) > 5.0]
        delay_target = long_cells[0] if long_cells else None
        faulted |= {delay_target} if delay_target else set()
        # The duplicate twin shares its original's attempt number, so a
        # target with another scripted fault would die twice — pick the
        # longest-running clean cell to guarantee the twin dispatches.
        dup_target = max((d for d in digests if d not in faulted),
                         key=probe._duration)
        faults = FaultSchedule(
            kill=frozenset({(kill_target, 0)}),
            drop=frozenset({(drop_target, 0)}),
            delay=frozenset({(delay_target, 0)} if delay_target else ()),
            duplicate=frozenset({dup_target}))
        executor = FleetExecutor(FleetOptions(n_workers=4, faults=faults))

        fleet = _run(executor)
        serial = _run("serial")

        assert fleet.series == serial.series
        stats = executor.stats
        assert stats.killed == 1        # a worker died mid-job
        assert stats.dropped == 1       # a completion was lost in transit
        assert stats.duplicated == 1    # a cell was delivered twice
        assert stats.duplicates >= 1    # ...and the loser was absorbed
        assert stats.retried >= 2       # kill + drop both requeued
        assert stats.expired >= 2
        assert stats.dead == 0
        assert executor.dead_letters == []

    def test_fleet_cells_land_in_the_cache_and_rerun_is_free(self, tmp_path):
        first = FleetExecutor()
        run_grid(_fleet_point, "x", X_VALUES, "series", SERIES_VALUES,
                 n_trials=N_TRIALS, seed=GRID_SEED, executor=first,
                 cache=ResultCache(tmp_path))
        assert first.stats.enqueued == 8
        warm = ResultCache(tmp_path)
        second = FleetExecutor()
        rerun = run_grid(_fleet_point, "x", X_VALUES, "series",
                         SERIES_VALUES, n_trials=N_TRIALS, seed=GRID_SEED,
                         executor=second, cache=warm)
        # Every cell hit the cache; the fleet never even spun up.
        assert (warm.hits, warm.misses) == (8, 0)
        assert not second.stats.active()
        assert rerun.series == _run("serial").series

    def test_poisoned_cell_raises_under_the_raise_policy(self):
        digests = _grid_digests()
        options = FleetOptions(
            faults=FaultSchedule(poison=frozenset({digests[0]})),
            dead_letter_policy="raise")
        with pytest.raises(FleetError, match="dead-lettered"):
            _run(FleetExecutor(options))

    def test_poisoned_cell_dead_letters_under_the_record_policy(self,
                                                                tmp_path):
        digests = _grid_digests()
        poisoned = digests[0]
        executor = FleetExecutor(FleetOptions(
            faults=FaultSchedule(poison=frozenset({poisoned}))))
        cache = ResultCache(tmp_path)
        result = run_grid(_fleet_point, "x", X_VALUES, "series",
                          SERIES_VALUES, n_trials=N_TRIALS, seed=GRID_SEED,
                          executor=executor, cache=cache)
        stats = executor.stats
        assert stats.dead == 1 and stats.killed == executor.options.max_attempts
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


class TestServiceTierFleet:
    def test_service_fleet_run_matches_committed_baseline(self, tmp_path):
        """Bench/CLI/served parity extends to the fleet executor."""
        committed = json.loads(
            (BASELINES / f"{CHEAP_BENCH}.json").read_text())
        core = ServiceCore(cache=tmp_path / "cache")
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
        core = ServiceCore(cache=tmp_path / "cache")
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
        committed = load_record(BASELINES / f"{CHEAP_BENCH}.json")
        poisoned = committed.panels[0].cells[0].digest
        core = ServiceCore(
            cache=tmp_path / "cache",
            fleet=FleetOptions(
                faults=FaultSchedule(poison=frozenset({poisoned}))))
        broken = core.run_bench(CHEAP_BENCH, executor="fleet").record
        assert broken.fleet["counters"]["dead"] == 1
        assert broken.fleet["dead_letters"][0]["digest"] == poisoned
        diff = diff_records(committed, broken, "baseline", "fleet")
        assert not diff.provenance_drift
        assert diff.value_drift
        assert diff.exit_code == 1
        assert "VALUE DRIFT" in diff.format_summary()
