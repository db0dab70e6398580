"""Property harness: random grids x random fault schedules, exact parity.

Each case draws a grid shape, worker count, and fault rates from a
seeded ``random.Random`` — so the "random" schedule is frozen forever —
and asserts the two fleet invariants the design promises for *any*
schedule:

* **Bit-identity.**  The fleet's series equal the serial executor's,
  whatever was killed or dropped along the way.
* **Exactly-once results.**  ``run_grid`` observes every cell digest
  exactly once (retries and late completions are absorbed inside the
  broker), and a warm-cache rerun computes nothing at all.

The fleet runs in process on the wall clock — worker threads against a
loopback broker, half-second leases — so which worker leases what, and
the exact counters, depend on thread timing; the fault decisions
themselves stay pure functions of ``(seed, digest, attempt)``.

``max_attempts`` is set high enough that no drawn schedule exhausts a
cell's retries — each case asserts ``dead == 0`` so a rate change that
breaks that assumption fails loudly instead of silently weakening the
parity check to "parity except where cells died".
"""

import random

import pytest

from repro.evaluation import ResultCache, run_grid
from repro.fleet import (
    BackoffPolicy,
    FaultSchedule,
    FleetExecutor,
    FleetOptions,
)

N_CASES = 5


def _property_point(series, x, rng):
    """A module-level grid point: deterministic given the job's rng."""
    return float(series) + float(x) * float(rng.normal())


def _draw_case(case: int):
    """One frozen-random configuration: grid, fleet size, fault rates."""
    rng = random.Random(1000 + case)
    x_values = list(range(1, rng.randint(2, 4) + 1))
    series_values = [10 * (i + 1) for i in range(rng.randint(1, 3))]
    grid = dict(n_trials=rng.randint(1, 3), seed=rng.randint(0, 10 ** 6))
    faults = FaultSchedule(
        seed=case,
        kill_rate=rng.uniform(0.0, 0.25),
        drop_rate=rng.uniform(0.0, 0.2))
    options = FleetOptions(n_workers=rng.randint(1, 4), max_attempts=8,
                           faults=faults, lease_timeout=0.5,
                           heartbeat_interval=0.15, poll_interval=0.02,
                           backoff=BackoffPolicy(base=0.05, cap=0.2))
    return x_values, series_values, grid, options


@pytest.mark.parametrize("case", range(N_CASES))
def test_random_faults_preserve_bit_identity_and_exactly_once(
        case, tmp_path):
    x_values, series_values, grid, options = _draw_case(case)
    n_cells = len(x_values) * len(series_values)
    executor = FleetExecutor(options)
    seen = []
    cache = ResultCache(tmp_path)

    fleet = run_grid(_property_point, "x", x_values, "series", series_values,
                     executor=executor, cache=cache,
                     on_cell=lambda job, values, elapsed:
                     seen.append(job.digest), **grid)
    serial = run_grid(_property_point, "x", x_values, "series",
                      series_values, **grid)

    # Bit-identity, whatever the schedule injected.
    assert fleet.series == serial.series
    # The schedule was chosen to never exhaust retries; a dead letter
    # here means the case needs retuning, not that parity may be waived.
    assert executor.stats.dead == 0
    assert executor.stats.completed == n_cells
    # Exactly once: every digest observed once, none missing, none twice.
    assert len(seen) == len(set(seen)) == n_cells
    assert (cache.hits, cache.misses) == (0, n_cells)
    # Every scheduled fault cost a lease expiry and a retry.
    faults = options.faults
    if any(faults.kill_worker(digest, 0) or faults.drop_completion(digest, 0)
           for digest in seen):
        assert executor.stats.expired > 0 and executor.stats.retried > 0


@pytest.mark.parametrize("case", range(N_CASES))
def test_warm_cache_rerun_never_spins_the_fleet_up(case, tmp_path):
    x_values, series_values, grid, options = _draw_case(case)
    n_cells = len(x_values) * len(series_values)
    cold = FleetExecutor(options)
    run_grid(_property_point, "x", x_values, "series", series_values,
             executor=cold, cache=ResultCache(tmp_path), **grid)

    warm_cache = ResultCache(tmp_path)
    warm = FleetExecutor(options)
    rerun = run_grid(_property_point, "x", x_values, "series", series_values,
                     executor=warm, cache=warm_cache, **grid)

    assert (warm_cache.hits, warm_cache.misses) == (n_cells, 0)
    assert not warm.stats.active()
    serial = run_grid(_property_point, "x", x_values, "series",
                      series_values, **grid)
    assert rerun.series == serial.series
