"""Fan a figure-style sweep grid out over threads and fleet workers.

Demonstrates the experiment engine, ``run_grid`` (architecture:
``docs/engine.md``):

* every (series, sweep, trial) cell is an independently seeded job, so
  the ``thread`` and ``fleet`` executors reproduce the ``serial``
  executor bit-for-bit;
* an on-disk cell cache makes an immediate re-run near-instant — only
  missing cells are recomputed;
* cache keys include a fingerprint of the point function's bytecode,
  so editing the point below would invalidate its cached cells
  automatically.

The point function must be picklable for the *fleet* executor — a
module-level function like ``noisy_quadratic``, or a
``Scenario``/``PointSpec`` dataclass (``repro.evaluation.scenarios``).
Here the fleet is in process: a loopback broker and worker threads,
the same lease/complete protocol that networked ``repro fleet-worker``
processes speak.  The ``thread`` executor has no pickling requirement
(threads share the interpreter) and shines when the point is dominated
by BLAS calls, which release the GIL.
"""

import tempfile
import time

import numpy as np

from repro.evaluation import PointSpec, ResultCache, run_grid


def noisy_quadratic(series, x, rng, scale=1.0):
    """A stand-in for one figure cell: O(ms) of real numpy work."""
    dim = int(series)
    samples = rng.normal(size=(int(x), dim))
    w = scale * rng.normal(size=dim) / np.sqrt(dim)
    return float(np.mean((samples @ w) ** 2))


#: The same point as a picklable scenario: parameters ride along as
#: dataclass fields, and both field edits and code edits re-key the
#: cell cache.
POINT = PointSpec.of(noisy_quadratic, scale=1.0)


def timed(label, **kwargs):
    start = time.perf_counter()
    result = run_grid(POINT, "n", [1000, 2000, 4000, 8000],
                      "d", [64, 128], n_trials=6, seed=2026, **kwargs)
    elapsed = time.perf_counter() - start
    print(f"{label:>28}: {elapsed:6.2f}s")
    return result, elapsed


def main():
    serial, t_serial = timed("serial executor")
    threads, t_threads = timed("thread executor", executor="thread",
                               max_workers=4)
    fleet, t_fleet = timed("in-process fleet", executor="fleet",
                           max_workers=2)
    for d in (64, 128):
        assert serial.means(d).tolist() == threads.means(d).tolist(), \
            "executors must agree bit-for-bit"
        assert serial.means(d).tolist() == fleet.means(d).tolist(), \
            "executors must agree bit-for-bit"
    print(f"{'serial/thread ratio':>28}: {t_serial / t_threads:6.2f}x "
          "(identical results; BLAS releases the GIL)")
    print(f"{'serial/fleet ratio':>28}: {t_serial / t_fleet:6.2f}x "
          "(identical results, same seeds; leases cost broker round trips)")

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        timed("cold cache", cache=cache)
        _, t_warm = timed("warm cache", cache=cache)
        print(f"{'cache hits':>28}: {cache.hits} cells "
              f"(re-run took {t_warm:.3f}s)")

        # A different parameterisation is a different fingerprint: the
        # warm cache is not fooled, the cells are recomputed.
        rescaled = PointSpec.of(noisy_quadratic, scale=2.0)
        misses_before = cache.misses
        run_grid(rescaled, "n", [1000, 2000, 4000, 8000], "d", [64, 128],
                 n_trials=6, seed=2026, cache=cache)
        print(f"{'after scale=2.0 edit':>28}: {cache.misses - misses_before} "
              "misses (code-aware keys retire stale cells)")

    print()
    print(serial.format_table(title="mean squared projection vs n"))


if __name__ == "__main__":
    main()
