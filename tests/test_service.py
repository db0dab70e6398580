"""The service core: coalescing, the sharded cache, and run-id parity.

The tentpole guarantees under test: N concurrent requests for one cold
cell digest trigger exactly one engine computation (single-flight); the
cache reads, lists and prunes cells only in its sharded layout; and the
bench, CLI, and service execution paths produce run records with equal
``run_id`` for the same catalog entry.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.evaluation import ResultCache, SingleFlight, build_jobs, run_grid
from repro.exceptions import ResultsError
from repro.results import load_record, save_record
from repro.service import ServiceCore

REPO_ROOT = Path(__file__).parent.parent

#: The cheapest catalog entry: one panel, five cells at laptop scale.
CHEAP_BENCH = "ablation_truncation_threshold"

_CALLS_LOCK = threading.Lock()
_CALLS = {"n": 0}


def _counting_point(series, x, rng):
    """Module-level point that counts every engine invocation."""
    with _CALLS_LOCK:
        _CALLS["n"] += 1
    return float(series) * float(x) + float(rng.normal())


def _reset_calls():
    with _CALLS_LOCK:
        _CALLS["n"] = 0


class TestSingleFlightCoalescing:
    N_CLIENTS = 8

    def _grid_kwargs(self, cache, flight):
        # code_tag="" keys cells by coordinates alone: the counting
        # point mutates module state on every call, which the default
        # code fingerprint (rightly) folds into the digest — stable
        # digests across racing threads need the opt-out.
        return dict(n_trials=3, seed=7, executor="serial", cache=cache,
                    flight=flight, code_tag="")

    def test_concurrent_cold_grid_computes_each_cell_once(self, tmp_path):
        """Eight simultaneous cold runs -> one computation per digest."""
        cache = ResultCache(tmp_path)
        flight = SingleFlight()
        sweep_values, series_values = [1, 2, 3], [10, 20]
        n_cells = len(sweep_values) * len(series_values)
        barrier = threading.Barrier(self.N_CLIENTS)
        _reset_calls()

        def run_once(_):
            barrier.wait()
            return run_grid(_counting_point, "x", sweep_values,
                            "series", series_values,
                            **self._grid_kwargs(cache, flight))

        with ThreadPoolExecutor(max_workers=self.N_CLIENTS) as pool:
            results = list(pool.map(run_once, range(self.N_CLIENTS)))

        # The headline: every cell's trials ran exactly once, however
        # many clients raced for them.
        assert _CALLS["n"] == n_cells * 3
        for result in results[1:]:
            assert result.series == results[0].series

    def test_coalesced_results_match_an_uncontended_run(self, tmp_path):
        """Coalescing must not change the numbers, only the work."""
        cache = ResultCache(tmp_path / "contended")
        flight = SingleFlight()
        barrier = threading.Barrier(4)

        def run_once(_):
            barrier.wait()
            return run_grid(_counting_point, "x", [1, 2], "series", [5],
                            **self._grid_kwargs(cache, flight))

        with ThreadPoolExecutor(max_workers=4) as pool:
            contended = list(pool.map(run_once, range(4)))
        solo = run_grid(_counting_point, "x", [1, 2], "series", [5],
                        **self._grid_kwargs(None, None))
        for result in contended:
            assert result.series == solo.series

    def test_flight_counters_split_leaders_from_followers(self, tmp_path):
        """Followers are counted as coalesced, never as extra leaders."""
        cache = ResultCache(tmp_path)
        flight = SingleFlight()
        barrier = threading.Barrier(self.N_CLIENTS)
        _reset_calls()

        def run_once(_):
            barrier.wait()
            return run_grid(_counting_point, "x", [1, 2, 3, 4], "series",
                            [10], **self._grid_kwargs(cache, flight))

        with ThreadPoolExecutor(max_workers=self.N_CLIENTS) as pool:
            list(pool.map(run_once, range(self.N_CLIENTS)))
        # Exactly one computation per digest is the hard guarantee; the
        # counters must account for every claim without inventing work.
        assert _CALLS["n"] == 4 * 3
        assert flight.led >= 4
        assert flight.led + flight.coalesced <= self.N_CLIENTS * 4

    def test_failed_leader_propagates_to_followers(self, tmp_path):
        """A crashing computation fails everyone waiting on it."""
        flight = SingleFlight()
        barrier = threading.Barrier(2)

        def bad_point(series, x, rng):
            barrier.wait(timeout=10)
            raise RuntimeError("boom")

        def run_once(_):
            with pytest.raises(RuntimeError):
                run_grid(bad_point, "x", [1], "series", [2], n_trials=1,
                         seed=0, flight=flight)
            return True

        with ThreadPoolExecutor(max_workers=2) as pool:
            assert all(pool.map(run_once, range(2)))
        # The map must not leak the dead flight: a retry starts fresh.
        assert flight.pending() == 0


class TestShardMigration:
    def test_new_cells_land_in_shards(self, tmp_path):
        """Writes go to the two-hex-prefix shard, reads find them."""
        job = build_jobs("x", [3], "series", [4], n_trials=2, seed=1)[0]
        cache = ResultCache(tmp_path)
        cache.put(job, [9.0, 8.0])
        shard_file = tmp_path / job.digest[:2] / f"{job.digest}.json"
        assert shard_file.is_file()
        assert not (tmp_path / f"{job.digest}.json").exists()
        assert cache.get(job) == [9.0, 8.0]
        # A top-level <digest>.json is neither read nor listed.
        other = build_jobs("x", [5], "series", [4], n_trials=2, seed=1)[0]
        (tmp_path / f"{other.digest}.json").write_text(json.dumps([1.5, 2.5]))
        assert cache.get(other) is None
        assert cache.read_values(other.digest) is None
        assert [path.stem for path in cache.iter_cells()] == [job.digest]

    def test_iter_cells_walks_both_layouts(self, tmp_path):
        """Every sharded cell file is enumerated exactly once."""
        jobs = build_jobs("x", [1, 2], "series", [3], n_trials=1, seed=0)
        cache = ResultCache(tmp_path)
        for job in jobs:
            cache.put(job, [1.0])
        stems = sorted(path.stem for path in cache.iter_cells())
        assert stems == sorted(job.digest for job in jobs)

    def test_scan_and_prune_cover_both_layouts(self, tmp_path):
        """cache stats / prune see (and delete) sharded orphan cells."""
        core = ServiceCore()
        shard = tmp_path / "ff"
        shard.mkdir()
        sharded = shard / ("f" * 32 + ".json")
        sharded.write_text("[2.0]")
        split = core.scan_cache(tmp_path, set())
        assert split["orphaned"] == [sharded]
        core.prune_cache(tmp_path, set())
        assert not sharded.exists()


class TestRunIdParity:
    """Bench, CLI, and service runs of one entry share one run_id."""

    def test_service_run_matches_committed_baseline(self, tmp_path):
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "results"
             / "ablation_threshold.json").read_text())
        core = ServiceCore(cache=tmp_path / "cache")
        run = core.run_bench(CHEAP_BENCH)
        assert run.record.run_id == baseline["run_id"]
        assert run.record.config_digest == baseline["config_digest"]

    def test_cli_run_matches_service_run(self, tmp_path):
        from repro.cli import main

        core = ServiceCore(cache=tmp_path / "cache")
        service_run = core.run_bench(CHEAP_BENCH)
        results_dir = tmp_path / "results"
        assert main(["run", CHEAP_BENCH, "--results-dir",
                     str(results_dir)]) == 0
        stem = service_run.definition.result_stem
        cli_record = load_record(results_dir / f"{stem}.json")
        assert cli_record.run_id == service_run.record.run_id
        # The tables agree byte-for-byte too.
        table = (results_dir / f"{stem}.txt").read_text()
        assert table == "".join(service_run.blocks)

    def test_timings_are_recorded_but_excluded_from_run_id(self, tmp_path):
        """Wall-times ride along without perturbing record identity."""
        core = ServiceCore(cache=tmp_path / "cache")
        run = core.run_bench(CHEAP_BENCH)
        assert run.record.timings is not None
        assert all(t is None or t >= 0.0
                   for row in run.record.timings for t in row)
        path = save_record(run.record, tmp_path / "with_timings.json")
        reloaded = load_record(path)
        assert reloaded.timings == run.record.timings
        assert reloaded.run_id == run.record.run_id


class TestServiceCoreQueries:
    def test_load_record_by_stem_and_by_catalog_name(self):
        core = ServiceCore(results_dir=REPO_ROOT / "benchmarks" / "results")
        by_stem = core.load_record("fig05")
        by_name = core.load_record("fig05_lasso_lognormal")
        assert by_stem.run_id == by_name.run_id

    def test_load_record_without_store_raises(self):
        with pytest.raises(ResultsError):
            ServiceCore().load_record("fig05")

    def test_cell_values_rejects_non_hex_digests(self, tmp_path):
        core = ServiceCore(cache=tmp_path)
        assert core.cell_values("../../etc/passwd") is None
        assert core.cell_values("ZZ" * 16) is None
        assert core.cell_values("ab" * 16) is None  # hex but absent

    def test_catalog_entries_cover_every_bench(self):
        from repro.experiments import bench_names

        core = ServiceCore()
        names = [d.name for d in core.catalog_entries()]
        assert names == list(bench_names())
