"""The ``python -m repro`` CLI and the bench env-knob fail-fast."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.evaluation import build_jobs
from repro.experiments import claimed_digests
from repro.results import (
    ResultsStore,
    RunRecord,
    RunRecorder,
    compute_config_digest,
    compute_run_id,
    load_record,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

TINY_SPEC = "\n".join([
    'name = "cli_tiny"',
    'solver = "private_lasso"',
    'data = "l1_linear"',
    'metric = "excess_risk"',
    'n_trials = 2',
    'seed = 3',
    '[data_kwargs]',
    'n = 300',
    'features = {name = "lognormal", sigma = 0.6}',
    '[sweep]',
    'name = "epsilon"',
    'target = "solver.epsilon"',
    'values = [0.5, 2.0]',
    '[series]',
    'name = "d"',
    'target = "data.d"',
    'values = [4, 8]',
])


class TestList:
    def test_lists_catalog_and_components(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig05_lasso_lognormal" in out
        assert "ablation_peeling_vs_dense" in out
        assert "solvers:" in out and "private_lasso" in out
        assert "metrics:" in out and "excess_risk" in out
        assert "distributions:" in out and "lognormal" in out


class TestRun:
    def test_unknown_name_fails_with_menu(self, capsys):
        assert main(["run", "fig99_nope"]) == 1
        err = capsys.readouterr().err
        assert "unknown catalog scenario" in err
        assert "fig05_lasso_lognormal" in err

    def test_missing_spec_file_fails(self, capsys):
        assert main(["run", "no/such/spec.toml"]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_spec_run_cold_then_warm(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        cache_dir = tmp_path / "cells"
        assert main(["run", str(spec_path), "--cache", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "cli_tiny" in out and "epsilon" in out
        assert "hits=0 misses=4" in out
        # Warm rerun: every cell must come from the cache.
        assert main(["run", str(spec_path), "--cache", str(cache_dir)]) == 0
        assert "hits=4 misses=0" in capsys.readouterr().out

    def test_trials_override_changes_cache_keys(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        cache_dir = tmp_path / "cells"
        main(["run", str(spec_path), "--cache", str(cache_dir)])
        capsys.readouterr()
        assert main(["run", str(spec_path), "--cache", str(cache_dir),
                     "--trials", "1"]) == 0
        assert "hits=0 misses=4" in capsys.readouterr().out

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_bad_trials_fail_before_any_cell_is_cached(self, tmp_path,
                                                       capsys, trials):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        cache_dir = tmp_path / "cells"
        for target in ("fig07_sparse_lognormal_noise", str(spec_path)):
            assert main(["run", target, "--trials", trials,
                         "--cache", str(cache_dir)]) == 1
            assert ("error: n_trials must be a positive integer"
                    in capsys.readouterr().err)
        assert not list(cache_dir.glob("**/*.json"))

    def test_removed_process_executor_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig05_lasso_lognormal", "--executor", "process"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err


def _spec_record(tmp_path, capsys, stem="run_a"):
    """Run the tiny spec once with ``--record``; return the record path."""
    spec_path = tmp_path / "tiny.toml"
    spec_path.write_text(TINY_SPEC)
    record_path = tmp_path / f"{stem}.json"
    assert main(["run", str(spec_path), "--record", str(record_path)]) == 0
    out = capsys.readouterr().out
    assert f"[record] wrote {record_path}" in out
    return record_path


def _perturbed_copy(record_path, target, mutate):
    """Write a deliberately edited (re-stamped) copy of a record."""
    payload = json.loads(record_path.read_text())
    mutate(payload)
    payload["config_digest"] = compute_config_digest(payload)
    payload["run_id"] = compute_run_id(payload)
    target.write_text(json.dumps(payload))
    return target


class TestDiff:
    """Exit codes: 0 identical, 1 value drift, 2 provenance, 3 errors."""

    def test_identical_records_exit_zero(self, tmp_path, capsys):
        record = _spec_record(tmp_path, capsys)
        assert main(["diff", str(record), str(record)]) == 0
        out = capsys.readouterr().out
        assert "verdict: identical (exit 0)" in out
        assert "values: identical" in out

    def test_value_drift_exits_one(self, tmp_path, capsys):
        record = _spec_record(tmp_path, capsys)

        def bump_mean(payload):
            payload["panels"][0]["cells"][0]["stats"]["mean"] += 0.5

        drifted = _perturbed_copy(record, tmp_path / "drift.json", bump_mean)
        assert main(["diff", str(record), str(drifted)]) == 1
        out = capsys.readouterr().out
        assert "value drift" in out
        assert "stats.mean" in out
        assert "provenance: identical" in out

    def test_provenance_drift_exits_two(self, tmp_path, capsys):
        record = _spec_record(tmp_path, capsys)

        def new_fingerprint(payload):
            payload["panels"][0]["point_fingerprint"] = "deadbeef"

        drifted = _perturbed_copy(record, tmp_path / "prov.json",
                                  new_fingerprint)
        assert main(["diff", str(record), str(drifted)]) == 2
        out = capsys.readouterr().out
        assert "INCOMPATIBLE PROVENANCE" in out
        assert "point_fingerprint" in out

    def test_json_output_round_trips(self, tmp_path, capsys):
        record = _spec_record(tmp_path, capsys)

        def bump_mean(payload):
            payload["panels"][0]["cells"][0]["stats"]["mean"] += 0.5

        drifted = _perturbed_copy(record, tmp_path / "drift.json", bump_mean)
        code = main(["diff", str(record), str(drifted), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == code == 1
        assert payload["value_drift"] and not payload["provenance_drift"]
        assert payload["a"]["run_id"] == load_record(record).run_id
        (entry,) = [e for e in payload["entries"]
                    if e["severity"] == "value"]
        assert entry["field"] == "stats.mean"

    def test_unreadable_record_exits_three(self, tmp_path, capsys):
        record = _spec_record(tmp_path, capsys)
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        assert main(["diff", str(record), str(bad)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_against_catalog_reads_the_results_dir(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        committed = (REPO_ROOT / "benchmarks" / "results"
                     / "ablation_threshold.json")
        (store / "ablation_threshold.json").write_text(committed.read_text())

        def bump_mean(payload):
            payload["panels"][0]["cells"][0]["stats"]["mean"] += 0.5

        drifted = _perturbed_copy(committed, tmp_path / "drift.json",
                                  bump_mean)
        assert main(["diff", str(drifted), "--against-catalog",
                     "ablation_truncation_threshold",
                     "--results-dir", str(store)]) == 1
        out = capsys.readouterr().out
        assert f"baseline {store / 'ablation_threshold.json'}" in out

    def test_against_catalog_resolves_the_committed_record(
            self, tmp_path, capsys, monkeypatch):
        # Run from the repo root, a catalog name resolves through its
        # result stem to the committed benchmarks/results/fig05.json.
        committed = REPO_ROOT / "benchmarks" / "results" / "fig05.json"
        fresh = tmp_path / "fig05.json"
        fresh.write_text(committed.read_text())
        monkeypatch.chdir(REPO_ROOT)
        assert main(["diff", str(fresh), "--against-catalog",
                     "fig05_lasso_lognormal"]) == 0
        out = capsys.readouterr().out
        assert "baseline benchmarks/results/fig05.json" in out
        assert "verdict: identical (exit 0)" in out

    def test_against_catalog_unknown_name_exits_three_with_menu(
            self, tmp_path, capsys):
        record = _spec_record(tmp_path, capsys)
        assert main(["diff", str(record), "--against-catalog",
                     "fig99_nope"]) == 3
        err = capsys.readouterr().err
        assert "unknown catalog scenario 'fig99_nope'" in err
        assert "fig05_lasso_lognormal" in err  # the registry menu

    def test_against_catalog_without_a_store_exits_three(
            self, tmp_path, capsys, monkeypatch):
        record = _spec_record(tmp_path, capsys)
        monkeypatch.chdir(tmp_path)  # no benchmarks/ here
        assert main(["diff", str(record), "--against-catalog",
                     "fig05_lasso_lognormal"]) == 3
        assert "no results directory" in capsys.readouterr().err

    def test_requires_exactly_one_comparison_target(self, tmp_path, capsys):
        record = _spec_record(tmp_path, capsys)
        assert main(["diff", str(record)]) == 3
        assert "exactly one" in capsys.readouterr().err
        assert main(["diff", str(record), str(record),
                     "--against-catalog", "x"]) == 3


class TestRecordPath:
    def test_record_path_is_honoured_exactly(self, tmp_path, capsys):
        # --record out.rec must write out.rec, not rewrite it to .json.
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SPEC)
        target = tmp_path / "out.rec"
        assert main(["run", str(spec_path), "--record", str(target)]) == 0
        assert f"[record] wrote {target}" in capsys.readouterr().out
        assert target.exists()
        assert load_record(target).name == "cli_tiny"


class TestResultsCommands:
    def test_list_shows_records(self, tmp_path, capsys):
        record_path = _spec_record(tmp_path, capsys)
        assert main(["results", "list", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run_a.json" in out
        assert "name=cli_tiny kind=spec" in out
        assert load_record(record_path).run_id in out

    def test_list_empty_directory(self, tmp_path, capsys):
        assert main(["results", "list", "--dir", str(tmp_path)]) == 0
        assert "runs=0" in capsys.readouterr().out

    def test_show_prints_provenance_and_table(self, tmp_path, capsys):
        record_path = _spec_record(tmp_path, capsys)
        assert main(["results", "show", str(record_path)]) == 0
        out = capsys.readouterr().out
        assert "name=cli_tiny kind=spec" in out
        assert "run_id=" in out and "fingerprint=" in out
        assert "epsilon" in out  # the rebuilt table block

    def test_show_json_round_trips(self, tmp_path, capsys):
        record_path = _spec_record(tmp_path, capsys)
        assert main(["results", "show", str(record_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert RunRecord.from_dict(payload) == load_record(record_path)

    def test_show_corrupt_record_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["results", "show", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


def _write_cell(cache, digest, values):
    """Write one cell file where ``ResultCache`` keeps it; its path."""
    path = cache / digest[:2] / f"{digest}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(values))
    return path


class TestCacheMaintenance:
    def _fake_cache(self, tmp_path, n_claimed=3, n_orphans=2):
        """A cache with files named by real claimed digests plus orphans.

        Writing the files directly (instead of running a bench) keeps
        the test fast while exercising exactly the digest-set logic
        prune relies on.
        """
        cache = tmp_path / "cells"
        cache.mkdir()
        claimed = sorted(claimed_digests())[:n_claimed]
        for digest in claimed:
            _write_cell(cache, digest, [0.0, 1.0])
        orphans = [f"{'0' * 31}{i}" for i in range(n_orphans)]
        for digest in orphans:
            _write_cell(cache, digest, [2.0])
        return cache, claimed, orphans

    def test_stats_counts_claimed_and_orphaned(self, tmp_path, capsys):
        cache, claimed, orphans = self._fake_cache(tmp_path)
        assert main(["cache", "stats", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert f"cells={len(claimed) + len(orphans)}" in out
        assert f"claimed={len(claimed)}" in out
        assert f"orphaned={len(orphans)}" in out

    def test_prune_deletes_only_orphans(self, tmp_path, capsys):
        cache, claimed, orphans = self._fake_cache(tmp_path)
        assert main(["cache", "prune", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert f"kept={len(claimed)} deleted={len(orphans)}" in out
        remaining = {p.stem for p in cache.glob("*/*.json")}
        assert remaining == set(claimed)  # every claimed cell survives

    def test_prune_dry_run_deletes_nothing(self, tmp_path, capsys):
        cache, claimed, orphans = self._fake_cache(tmp_path)
        before = sorted(cache.glob("*/*.json"))
        assert main(["cache", "prune", "--cache", str(cache),
                     "--dry-run"]) == 0
        assert "would delete=2" in capsys.readouterr().out
        assert sorted(cache.glob("*/*.json")) == before

    def _baseline_pinned_cache(self, tmp_path):
        """A cache holding one baseline-pinned cell and one true orphan.

        The pinned cell's digest comes from a real engine job built
        with a code token no catalog scenario uses — exactly the state
        after a code edit retires a cell that a committed baseline
        record still references.
        """
        cache = tmp_path / "cells"
        cache.mkdir()
        (job,) = build_jobs("x", [1], "series", ["only"], 2, 123,
                            code_token="retired-code")
        pinned = _write_cell(cache, job.digest, [0.1, 0.2])
        orphan = _write_cell(cache, "f" * 32, [0.3])
        records = tmp_path / "records"
        recorder = RunRecorder(kind="bench", name="pin", result_stem="pin")
        recorder.add_panel(
            title="t", x_name="x", sweep_name="x", series_name="series",
            sweep_values=[1], series_values=["only"], seed=123, n_trials=2,
            point_fingerprint="retired-code", cells=[(job, [0.1, 0.2])])
        ResultsStore(records).save(recorder.finalize())
        return cache, records, pinned, orphan

    def test_prune_never_deletes_baseline_referenced_cells(self, tmp_path,
                                                           capsys):
        cache, records, pinned, orphan = self._baseline_pinned_cache(
            tmp_path)
        assert main(["cache", "prune", "--cache", str(cache),
                     "--results-dir", str(records)]) == 0
        out = capsys.readouterr().out
        assert "kept=1 deleted=1" in out
        assert "baseline=1" in out
        assert pinned.exists()  # the keep-set wins over catalog orphaning
        assert not orphan.exists()

    def test_stats_counts_baseline_pinned_cells_and_records(self, tmp_path,
                                                            capsys):
        cache, records, _, _ = self._baseline_pinned_cache(tmp_path)
        assert main(["cache", "stats", "--cache", str(cache),
                     "--results-dir", str(records)]) == 0
        out = capsys.readouterr().out
        assert "cells=2" in out and "baseline=1" in out and "orphaned=1" in out
        assert f"[records] dir={records} runs=1 cells=1" in out

    def test_prune_warns_loudly_when_no_baselines_found(self, tmp_path,
                                                        capsys, monkeypatch):
        # Outside the repo root the default results dir is absent;
        # prune must say the pins are unprotected, never silently
        # downgrade into deleting record-referenced cells.
        cache = tmp_path / "cells"
        cache.mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["cache", "prune", "--cache", str(cache)]) == 0
        err = capsys.readouterr().err
        assert "warning: no results directory" in err
        assert "NOT protected" in err

    def test_explicit_missing_results_dir_is_an_error(self, tmp_path,
                                                      capsys):
        cache = tmp_path / "cells"
        cache.mkdir()
        assert main(["cache", "prune", "--cache", str(cache),
                     "--results-dir", str(tmp_path / "nope")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_cache_commands_require_a_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
        assert main(["cache", "stats"]) == 1
        assert "no cache directory" in capsys.readouterr().err

    def test_missing_cache_directory_fails(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache",
                     str(tmp_path / "nope")]) == 1
        assert "does not exist" in capsys.readouterr().err


class TestBenchEnvKnobs:
    """`benchmarks/_common.py` must reject bad env knobs at import."""

    def _import_common(self, env_overrides):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_BENCH_EXECUTOR", None)
        env.pop("REPRO_BENCH_CACHE", None)
        env.update(env_overrides)
        return subprocess.run(
            [sys.executable, "-c", "import _common"],
            cwd=REPO_ROOT / "benchmarks", env=env,
            capture_output=True, text=True)

    def test_valid_executor_imports(self):
        result = self._import_common({"REPRO_BENCH_EXECUTOR": "thread"})
        assert result.returncode == 0, result.stderr

    def test_unknown_executor_fails_listing_options(self):
        for value in ("warp", "process"):
            result = self._import_common({"REPRO_BENCH_EXECUTOR": value})
            assert result.returncode != 0
            assert (f"unknown REPRO_BENCH_EXECUTOR value {value!r}"
                    in result.stderr)
            assert "valid options: serial, thread, fleet" in result.stderr

    def test_unwritable_cache_dir_fails(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        result = self._import_common(
            {"REPRO_BENCH_CACHE": str(blocker / "sub")})
        assert result.returncode != 0
        assert "REPRO_BENCH_CACHE" in result.stderr
        assert "not writable" in result.stderr

    def test_writable_cache_dir_is_created(self, tmp_path):
        target = tmp_path / "fresh" / "cells"
        result = self._import_common({"REPRO_BENCH_CACHE": str(target)})
        assert result.returncode == 0, result.stderr
        assert target.is_dir()


def test_entry_points_do_not_import_scipy_stats():
    """The CLI, service and HTTP tier load without ``scipy.stats``.

    ``scipy.stats`` pulls in hundreds of scipy submodules; a stray import
    of it in the numerics would add about half a second and tens of MB to
    every ``repro`` process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli, repro.service, repro.server.http; "
         "print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
