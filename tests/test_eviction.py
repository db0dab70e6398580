"""Cell-store eviction: LRU bounds that never touch baseline pins.

The multi-machine cell-store policy (``docs/engine.md``, "Networked
fleet"): a long-lived fleet worker's cache is bounded by
``ResultCache(max_cells=...)`` — a cell-count limit applied
oldest-first over the sharded layout — while digests pinned by
committed baseline records are never evicted, reusing the same
keep-set logic as ``cache prune``.
"""

import os

import pytest

from repro.evaluation import ResultCache, build_jobs


def _jobs(n, n_trials=3):
    """``n`` distinct digest-keyed jobs from a real grid."""
    jobs = build_jobs("x", list(range(n)), "series", ["s"],
                      n_trials=n_trials, seed=0)
    assert len(jobs) == n
    return jobs


def _fill(cache, jobs, start=1_000_000.0, step=10.0):
    """Write one cell per job with strictly increasing mtimes."""
    for index, job in enumerate(jobs):
        cache.put(job, [float(index)] * job.n_trials)
        path = cache._path(job.digest)
        stamp = start + index * step
        os.utime(path, (stamp, stamp))


def _stems(cache):
    return {path.stem for path in cache.iter_cells()}


class TestMaxCells:
    def test_bounds_must_be_positive(self, tmp_path):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_cells"):
                ResultCache(tmp_path, max_cells=bad)

    def test_unbounded_policy_is_a_no_op(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = _jobs(4)
        for job in jobs:
            cache.put(job, [1.0] * job.n_trials)
        assert cache.evict() == []
        assert len(_stems(cache)) == 4
        assert cache.evicted == 0


class TestLruEviction:
    def test_max_cells_drops_the_oldest_first(self, tmp_path):
        jobs = _jobs(6)
        cache = ResultCache(tmp_path, max_cells=6)
        _fill(cache, jobs)
        cache.max_cells = 3
        victims = cache.evict()
        assert {v.stem for v in victims} == {j.digest for j in jobs[:3]}
        assert _stems(cache) == {j.digest for j in jobs[3:]}
        assert cache.evicted == 3

    def test_put_keeps_the_cache_within_the_bound(self, tmp_path):
        jobs = _jobs(8)
        cache = ResultCache(tmp_path, max_cells=3)
        for job in jobs:
            cache.put(job, [0.0] * job.n_trials)
            assert len(_stems(cache)) <= 3
        # The most recent writes survive.
        assert jobs[-1].digest in _stems(cache)

    def test_get_hit_refreshes_recency(self, tmp_path):
        jobs = _jobs(4)
        cache = ResultCache(tmp_path, max_cells=4)
        _fill(cache, jobs)
        # Touch the oldest cell: it becomes the youngest.
        assert cache.get(jobs[0]) == [0.0] * jobs[0].n_trials
        cache.max_cells = 2
        cache.evict()
        survivors = _stems(cache)
        assert jobs[0].digest in survivors
        assert jobs[1].digest not in survivors


class TestBaselinePins:
    def test_pinned_cells_are_never_evicted(self, tmp_path):
        jobs = _jobs(6)
        pins = {jobs[0].digest, jobs[1].digest}  # the two oldest
        cache = ResultCache(tmp_path, max_cells=6, pinned=pins)
        _fill(cache, jobs)
        cache.max_cells = 3
        victims = cache.evict()
        # The three oldest *unpinned* cells go instead.
        assert {v.stem for v in victims} == {j.digest for j in jobs[2:5]}
        assert pins <= _stems(cache)

    def test_all_pinned_cache_may_exceed_its_bounds(self, tmp_path):
        jobs = _jobs(4)
        cache = ResultCache(tmp_path, max_cells=1,
                            pinned={j.digest for j in jobs})
        _fill(cache, jobs)
        assert cache.evict() == []
        assert len(_stems(cache)) == 4
