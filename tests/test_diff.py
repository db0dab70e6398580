"""Golden-run regression tests: fresh runs vs committed run records.

``benchmarks/results/`` is the one committed record store, and no test
or bench writes to it.  A fresh in-process run of fig05 or the
truncation-threshold ablation must diff clean against its committed
record — zero value drift, equal fingerprints, equal ``run_id`` — which
is the machine-checkable version of "the committed tables still
reproduce".  Deliberate perturbations
must flip the verdict to the right exit code: 1 for value drift, 2 for
provenance drift (fingerprint, seed, trial count, grid shape).
"""

from pathlib import Path

import pytest

from repro.experiments import bench, bench_recorder
from repro.results import (
    RunRecord,
    compute_config_digest,
    compute_run_id,
    diff_records,
    load_record,
)

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def fresh_record(name):
    """Run the named catalog bench at laptop scale; return its record."""
    definition = bench(name)
    recorder = bench_recorder(definition)
    for panel in definition.panels:
        panel.run(recorder=recorder)
    return recorder.finalize()


def restamped(payload):
    """Load a deliberately edited payload after re-stamping its digests."""
    payload["config_digest"] = compute_config_digest(payload)
    payload["run_id"] = compute_run_id(payload)
    return RunRecord.from_dict(payload)


@pytest.fixture(scope="module")
def ablation_fresh():
    """One fresh ablation run, shared by every test in the module."""
    return fresh_record("ablation_truncation_threshold")


@pytest.fixture(scope="module")
def ablation_baseline():
    """The committed record for the ablation."""
    return load_record(RESULTS / "ablation_threshold.json")


class TestGoldenRuns:
    def test_fig05_matches_committed_baseline(self):
        fresh = fresh_record("fig05_lasso_lognormal")
        baseline = load_record(RESULTS / "fig05.json")
        diff = diff_records(fresh, baseline)
        assert diff.exit_code == 0, diff.format_summary()
        assert diff.identical and not diff.value_drift
        assert fresh.run_id == baseline.run_id
        assert [p.point_fingerprint for p in fresh.panels] == \
               [p.point_fingerprint for p in baseline.panels]

    def test_ablation_matches_committed_baseline(self, ablation_fresh,
                                                 ablation_baseline):
        diff = diff_records(ablation_fresh, ablation_baseline)
        assert diff.exit_code == 0, diff.format_summary()
        assert ablation_fresh.run_id == ablation_baseline.run_id

    def test_baseline_tables_match_committed_text(self, ablation_baseline):
        committed = (RESULTS / "ablation_threshold.txt").read_text()
        assert ablation_baseline.format_tables() == committed


class TestPerturbations:
    def test_value_perturbation_exits_one(self, ablation_fresh,
                                          ablation_baseline):
        payload = ablation_fresh.to_dict()
        payload["panels"][0]["cells"][2]["stats"]["mean"] += 1e-9
        diff = diff_records(restamped(payload), ablation_baseline)
        assert diff.exit_code == 1
        assert diff.value_drift and not diff.provenance_drift
        (entry,) = [e for e in diff.entries if e.severity == "value"]
        assert entry.field == "stats.mean"

    def test_fingerprint_perturbation_exits_two(self, ablation_fresh,
                                                ablation_baseline):
        payload = ablation_fresh.to_dict()
        payload["panels"][0]["point_fingerprint"] = "deadbeef"
        diff = diff_records(restamped(payload), ablation_baseline)
        assert diff.exit_code == 2
        assert diff.provenance_drift
        assert any(e.field == "point_fingerprint" for e in diff.entries)

    def test_seed_perturbation_exits_two(self, ablation_fresh,
                                         ablation_baseline):
        payload = ablation_fresh.to_dict()
        payload["panels"][0]["seed"] += 1
        diff = diff_records(restamped(payload), ablation_baseline)
        assert diff.exit_code == 2
        assert any(e.field == "seed" for e in diff.entries)

    def test_trial_count_perturbation_exits_two(self, ablation_fresh,
                                                ablation_baseline):
        payload = ablation_fresh.to_dict()
        payload["panels"][0]["n_trials"] += 1
        for cell in payload["panels"][0]["cells"]:
            cell["stats"]["n_trials"] += 1
        diff = diff_records(restamped(payload), ablation_baseline)
        assert diff.exit_code == 2
        assert any(e.field == "n_trials" and e.severity == "provenance"
                   for e in diff.entries)

    def test_grid_shape_perturbation_exits_two_without_cell_compare(
            self, ablation_fresh, ablation_baseline):
        payload = ablation_fresh.to_dict()
        dropped = payload["panels"][0]["sweep_values"].pop()
        payload["panels"][0]["cells"] = [
            cell for cell in payload["panels"][0]["cells"]
            if cell["sweep_value"] != dropped]
        diff = diff_records(restamped(payload), ablation_baseline)
        assert diff.exit_code == 2
        assert any(e.field == "sweep_values" for e in diff.entries)
        # Grids differ, so cells do not correspond: no spurious value
        # drift may be reported on top of the shape mismatch.
        assert not diff.value_drift

    def test_provenance_dominates_value_drift(self, ablation_fresh,
                                              ablation_baseline):
        payload = ablation_fresh.to_dict()
        payload["panels"][0]["point_fingerprint"] = "deadbeef"
        payload["panels"][0]["cells"][0]["stats"]["mean"] += 1.0
        diff = diff_records(restamped(payload), ablation_baseline)
        assert diff.exit_code == 2  # incompatible wins over drifted values
        # A changed fingerprint is *expected* to move every value, so
        # the cells are not compared at all: no wall of value-drift
        # entries under the one provenance line that explains them.
        assert not diff.value_drift
        assert not any(e.severity == "value" for e in diff.entries)

    def test_executor_difference_is_a_note_not_drift(self, ablation_fresh,
                                                     ablation_baseline):
        payload = ablation_fresh.to_dict()
        payload["executor"] = "thread"
        diff = diff_records(RunRecord.from_dict(payload), ablation_baseline)
        assert diff.exit_code == 0
        assert any(e.severity == "note" and e.field == "executor"
                   for e in diff.entries)

    def test_bench_name_mismatch_is_provenance_drift(self, ablation_baseline):
        other = load_record(RESULTS / "fig05.json")
        diff = diff_records(other, ablation_baseline)
        assert diff.exit_code == 2
        assert any(e.location == "run" and e.field == "name"
                   for e in diff.entries)
