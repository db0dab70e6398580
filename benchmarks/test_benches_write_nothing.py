"""Benches print their tables and write nothing.

``benchmarks/results/`` is the committed record store the checks in
``tests/`` compare against.  A bench that rewrote it before those checks
ran would hide exactly the drift they exist to catch, so a bench run
must leave every file there untouched — same names, same bytes, not
even rewritten in place.  ``python -m repro run <name>`` is the one
command that re-pins a record.
"""

from pathlib import Path

from _common import run_catalog_bench

RESULTS = Path(__file__).parent / "results"


def _snapshot():
    """Every file under the store with its bytes and modification time."""
    return {path.name: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in sorted(RESULTS.iterdir())}


def test_bench_leaves_the_committed_store_untouched():
    before = _snapshot()
    table, = run_catalog_bench("ablation_truncation_threshold")
    assert table["excess_risk"]
    assert _snapshot() == before
