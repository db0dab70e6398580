"""Tests for the parallel, cache-aware experiment engine.

The load-bearing properties: cell seeds are stable digests of the cell
coordinates (never the process-salted builtin ``hash``), the serial,
thread, and fleet executors are bit-identical, and the on-disk cache
recomputes only the missing cells.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.evaluation import (
    EXECUTORS,
    ResultCache,
    SerialExecutor,
    ThreadExecutor,
    build_jobs,
    get_executor,
    run_grid,
)
from repro.evaluation.engine import canonical_token, cell_seed_words
from repro.exceptions import ConfigurationError

SRC_DIR = pathlib.Path(__file__).parent.parent / "src"


def _linear_point(series, x, rng):
    """Module-level (hence picklable) point function for executor tests."""
    return float(series) * float(x) + float(rng.normal())


class _CountingExecutor:
    """Serial executor that records how many jobs it was asked to run."""

    def __init__(self):
        self.calls = 0
        self._inner = SerialExecutor()

    def run(self, payloads):
        self.calls += len(payloads)
        return self._inner.run(payloads)


class TestSeeding:
    def test_pinned_cell_seeds(self):
        """Regression pin: exact per-cell seed material for a known grid.

        These constants were computed from the stable blake2b digest of
        the cell coordinates; they must never change across processes,
        platforms, or ``PYTHONHASHSEED`` values.  (The old seeding used
        ``hash(str(series_value))``, which is process-salted.)
        """
        jobs = build_jobs("n", [10, 20], "d", [5], n_trials=2, seed=7)
        assert [job.spawn_key for job in jobs] == [
            (2366456720, 51034412),
            (1037081866, 783733681),
        ]
        assert [job.digest for job in jobs] == [
            "8ab5efe58115810023f5687ec7921202",
            "a62b4cd800e50c2e5e2d3ce667477ee0",
        ]

    def test_seeds_depend_on_values_not_indices(self):
        """The same coordinates get the same seed wherever they sit in
        the grid, so extending a sweep keeps existing cells valid."""
        short = build_jobs("n", [20], "d", [5], n_trials=2, seed=7)
        long = build_jobs("n", [10, 20], "d", [5], n_trials=2, seed=7)
        assert short[0].spawn_key == long[1].spawn_key
        assert short[0].digest == long[1].digest

    def test_duplicate_series_values_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            build_jobs("n", [1, 2], "d", [5, 5], n_trials=1, seed=0)

    def test_distinct_cells_distinct_seeds(self):
        jobs = build_jobs("n", [1, 2, 3], "d", [10, 20], n_trials=2, seed=0)
        keys = {job.spawn_key for job in jobs}
        assert len(keys) == len(jobs)

    def test_root_seed_changes_results_not_spawn_words(self):
        a = build_jobs("n", [1], "d", [1], n_trials=2, seed=0)[0]
        b = build_jobs("n", [1], "d", [1], n_trials=2, seed=1)[0]
        # The digest words come from the coordinates; the root seed
        # enters through the entropy (and the cache digest).
        assert a.spawn_key == b.spawn_key
        assert a.entropy != b.entropy
        assert a.digest != b.digest

    def test_seed_sequence_root_accepted(self):
        root = np.random.SeedSequence(42, spawn_key=(3,))
        job = build_jobs("n", [1], "d", [1], n_trials=2, seed=root)[0]
        assert job.entropy == 42
        assert job.spawn_key[0] == 3

    @pytest.mark.parametrize("bad", [None, 1.5, "7", True,
                                     np.random.default_rng(0)])
    def test_unsupported_seed_types_raise(self, bad):
        with pytest.raises(TypeError):
            run_grid(lambda s, x, rng: 0.0, "n", [1], "d", [1], seed=bad)

    def test_canonical_token_type_tags(self):
        assert canonical_token(1) != canonical_token("1")
        assert canonical_token(1) != canonical_token(1.0)
        assert canonical_token(np.float64(0.5)) == canonical_token(0.5)

    def test_canonical_token_separator_injection_rejected(self):
        # Free-form payloads are length-prefixed, so a value embedding
        # the token separators cannot mimic another coordinate list.
        assert canonical_token(["a,s:b"]) != canonical_token(["a", "b"])
        assert canonical_token(("a", "b")) == canonical_token(["a", "b"])
        assert canonical_token("a\x1fb") != canonical_token("ab")

    def test_canonical_token_arrays_digest_full_buffer(self):
        # numpy repr elides big arrays; the token must not.
        a = np.zeros(5000)
        b = np.zeros(5000)
        b[2500] = 1.0
        assert canonical_token(a) != canonical_token(b)
        assert canonical_token(a) == canonical_token(np.zeros(5000))

    def test_canonical_token_sets_are_order_independent(self):
        built_one_way = {"alpha", "beta", "gamma"}
        built_another = set()
        for item in ("gamma", "alpha", "beta"):
            built_another.add(item)
        assert canonical_token(built_one_way) == canonical_token(built_another)

    def test_canonical_token_rejects_default_repr_objects(self):
        # A default repr is just a per-process memory address — seeding
        # from it would silently reintroduce the cross-process bug.
        class Opaque:
            pass

        with pytest.raises(TypeError, match="memory address"):
            canonical_token(Opaque())

    def test_canonical_token_custom_repr_is_process_stable(self):
        class Config:
            def __repr__(self):
                return f"Config(x=1, inner={object.__repr__(self)})"

        token = canonical_token(Config())
        # Embedded addresses are stripped, so two instances agree.
        assert token == canonical_token(Config())
        assert "0x" in token and "object at 0x>" in token

    def test_canonical_token_preserves_hex_literal_state(self):
        # Only the default-repr ' at 0x...' address pattern is stripped;
        # hex literals that carry state must keep distinguishing values.
        class Spec:
            def __init__(self, flags):
                self.flags = flags

            def __repr__(self):
                return f"Spec({self.flags:#x})"

        assert canonical_token(Spec(0x0F)) != canonical_token(Spec(0xFF))

    def test_cell_seed_words_are_stable_across_calls(self):
        assert (cell_seed_words("d", 5, "n", 10)
                == cell_seed_words("d", 5, "n", 10))


class TestCrossProcessReproducibility:
    def test_sweep_identical_under_different_hash_seeds(self):
        """The headline bugfix: two processes with different
        ``PYTHONHASHSEED`` values must produce identical sweep means."""
        script = (
            "from repro.evaluation import run_grid\n"
            "r = run_grid(lambda s, x, rng: {'a': 1, 'b': 2}[s] * float(x) + rng.normal(),\n"
            "             'n', [1, 2, 4], 'd', ['a', 'b'], n_trials=3, seed=123)\n"
            "print([[v.hex() for v in r.means(k)] for k in ['a', 'b']])\n"
        )
        outputs = []
        for hash_seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           [str(SRC_DIR)] +
                           ([os.environ["PYTHONPATH"]]
                            if os.environ.get("PYTHONPATH") else [])))
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestExecutors:
    def test_thread_matches_serial_bit_for_bit(self):
        kwargs = dict(n_trials=4, seed=11)
        serial = run_grid(_linear_point, "n", [1, 2, 3], "d", [5, 7],
                          executor="serial", **kwargs)
        threads = run_grid(_linear_point, "n", [1, 2, 3], "d", [5, 7],
                           executor="thread", max_workers=4, **kwargs)
        for d in (5, 7):
            assert serial.means(d).tolist() == threads.means(d).tolist()
            assert ([s.std for s in serial.series[d]]
                    == [s.std for s in threads.series[d]])

    def test_thread_executor_accepts_closures(self):
        # Unlike the fleet, threads share the interpreter: no
        # pickling requirement, so closure points parallelise too.
        offset = 2.5
        serial = run_grid(lambda s, x, rng: offset * x + rng.normal(),
                          "n", [1, 2], "d", [1], n_trials=3, seed=4)
        threads = run_grid(lambda s, x, rng: offset * x + rng.normal(),
                           "n", [1, 2], "d", [1], n_trials=3, seed=4,
                           executor="thread")
        assert serial.means(1).tolist() == threads.means(1).tolist()

    def test_closure_rejected_with_clear_error(self):
        offset = 1.0
        with pytest.raises(TypeError, match="picklable"):
            run_grid(lambda s, x, rng: offset, "n", [1], "d", [1],
                     n_trials=1, seed=0, executor="fleet")

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            get_executor("threads")
        with pytest.raises(ValueError, match="serial, thread, fleet"):
            get_executor("process")
        with pytest.raises(TypeError):
            get_executor(42)

    def test_executor_names_resolve(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread"), ThreadExecutor)
        assert EXECUTORS == ("serial", "thread", "fleet")

    def test_invalid_pool_parameters_rejected(self):
        with pytest.raises(ValueError):
            ThreadExecutor(max_workers=0)

    def test_executor_instance_passthrough(self):
        counting = _CountingExecutor()
        result = run_grid(_linear_point, "n", [1, 2], "d", [3],
                          n_trials=2, seed=0, executor=counting)
        assert counting.calls == 2
        assert len(result.series[3]) == 2


class TestResultCache:
    def test_second_run_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_grid(_linear_point, "n", [1, 2], "d", [3, 4],
                         n_trials=3, seed=5, cache=cache)
        assert cache.misses == 4 and cache.hits == 0
        counting = _CountingExecutor()
        second = run_grid(_linear_point, "n", [1, 2], "d", [3, 4],
                          n_trials=3, seed=5, cache=cache, executor=counting)
        assert counting.calls == 0
        assert cache.hits == 4
        for d in (3, 4):
            assert first.means(d).tolist() == second.means(d).tolist()

    def test_extending_grid_recomputes_only_missing(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_grid(_linear_point, "n", [1, 2], "d", [3], n_trials=2, seed=0,
                 cache=cache)
        counting = _CountingExecutor()
        run_grid(_linear_point, "n", [1, 2, 4], "d", [3], n_trials=2, seed=0,
                 cache=cache, executor=counting)
        assert counting.calls == 1  # only the new x=4 cell

    def test_cache_keys_separate_seeds_trials_and_tags(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = dict(n_trials=2, cache=cache)
        run_grid(_linear_point, "n", [1], "d", [1], seed=0, **base)
        for kwargs in (dict(seed=1), dict(seed=0, cache_tag="other")):
            counting = _CountingExecutor()
            run_grid(_linear_point, "n", [1], "d", [1], executor=counting,
                     **base, **kwargs)
            assert counting.calls == 1
        counting = _CountingExecutor()
        run_grid(_linear_point, "n", [1], "d", [1], seed=0, n_trials=3,
                 cache=cache, executor=counting)
        assert counting.calls == 1

    def test_non_numeric_cache_payload_is_a_miss(self, tmp_path):
        import json as json_mod

        cache = ResultCache(tmp_path)
        run_grid(_linear_point, "n", [1], "d", [1], n_trials=3, seed=0,
                 cache=cache)
        for path in tmp_path.glob("**/*.json"):
            path.write_text(json_mod.dumps([None, 1.0, "x"]))
        fresh = ResultCache(tmp_path)
        result = run_grid(_linear_point, "n", [1], "d", [1], n_trials=3,
                          seed=0, cache=fresh)
        assert fresh.hits == 0 and fresh.misses == 1
        assert np.isfinite(result.means(1)).all()

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_grid(_linear_point, "n", [1], "d", [1], n_trials=2, seed=0,
                 cache=cache)
        for path in tmp_path.glob("**/*.json"):
            path.write_text("not json")
        fresh = ResultCache(tmp_path)
        result = run_grid(_linear_point, "n", [1], "d", [1], n_trials=2,
                          seed=0, cache=fresh)
        assert fresh.hits == 0 and fresh.misses == 1
        assert np.isfinite(result.means(1)).all()

    def test_completed_cells_survive_midgrid_failure(self, tmp_path):
        # Both runs pin an explicit code_tag: by default a fixed point
        # function has a new fingerprint, which (correctly) retires the
        # failed run's cells too — here we isolate the survival
        # property itself, as a caller managing versions by hand would.
        cache = ResultCache(tmp_path)

        def exploding_point(series, x, rng):
            if x == 3:
                raise RuntimeError("boom")
            return float(x)

        with pytest.raises(RuntimeError):
            run_grid(exploding_point, "n", [1, 2, 3], "d", [0],
                     n_trials=1, seed=0, cache=cache, code_tag="panel")
        # The two cells finished before the failure were persisted...
        assert len(list(tmp_path.glob("**/*.json"))) == 2
        # ...so a rerun with a fixed point recomputes only the third.
        counting = _CountingExecutor()
        fixed = run_grid(_linear_point, "n", [1, 2, 3], "d", [0],
                         n_trials=1, seed=0, cache=ResultCache(tmp_path),
                         executor=counting, code_tag="panel")
        assert counting.calls == 1
        assert len(fixed.series[0]) == 3

    def test_cache_dir_path_accepted(self, tmp_path):
        run_grid(_linear_point, "n", [1], "d", [1], n_trials=2, seed=0,
                 cache=str(tmp_path / "cells"))
        assert list((tmp_path / "cells").glob("**/*.json"))


class TestRunGrid:
    def test_same_root_seed_reproducible_in_process(self):
        run = lambda: run_grid(_linear_point, "n", [1, 2, 4], "d", [1, 10],
                               n_trials=3, seed=0)
        assert run().means(10).tolist() == run().means(10).tolist()

    @pytest.mark.parametrize("bad", [0, -1, True, 2.0])
    def test_bad_n_trials_rejected_before_any_cell_is_cached(self, tmp_path,
                                                            bad):
        counting = _CountingExecutor()
        with pytest.raises(ConfigurationError,
                           match="n_trials must be a positive integer"):
            run_grid(_linear_point, "n", [1, 2], "d", [3], n_trials=bad,
                     seed=0, cache=tmp_path, executor=counting)
        assert counting.calls == 0
        assert not list(tmp_path.glob("**/*.json"))

    def test_numpy_integer_n_trials_accepted(self):
        as_int = build_jobs("n", [1], "d", [1], n_trials=3, seed=0)
        as_numpy = build_jobs("n", [1], "d", [1], n_trials=np.int64(3),
                              seed=0)
        assert [job.digest for job in as_numpy] == [job.digest
                                                    for job in as_int]
