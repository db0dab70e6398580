"""Chaos smoke: the serving tier on a fault-injected fleet, fig05 parity.

The end-to-end claim: boot the real HTTP server over a service core
whose in-process fleet kills workers and drops completions at nonzero
rates — then ``POST /run`` the committed fig05 bench through it and get
the committed baseline's ``run_id`` back, with the record's provenance and values
identical to the baseline (``diff_records`` exit 0; the executor label
and fleet telemetry are environment notes, excluded from ``run_id`` by
design).  The injected faults must *visibly* fire — a chaos test whose
schedule did nothing proves nothing — so the fleet counters surfaced by
``GET /stats`` are asserted too.

Marked ``slow``: each case computes a real bench at laptop scale on
worker threads, and every injected fault costs a half-second lease
expiry (seconds, not minutes).  Deselect with ``-m "not slow"`` for the
fastest signal.
"""

import json
from pathlib import Path

import pytest

from repro.fleet import BackoffPolicy, FaultSchedule, FleetOptions
from repro.results import diff_records, load_record
from repro.server.smoke import _request, _start_server
from repro.service import ServiceCore

REPO_ROOT = Path(__file__).parent.parent
RESULTS = REPO_ROOT / "benchmarks" / "results"

#: The committed figure record the chaos run must reproduce exactly.
FIG_BENCH = "fig05_lasso_lognormal"

#: Both worker fault modes at a rate that demonstrably fires on this
#: grid; ``max_attempts=6`` keeps the worst-faulted cell clear of retry
#: exhaustion (the test asserts ``dead == 0`` so a retuned rate that
#: breaks this fails loudly rather than quietly relaxing parity).  The
#: half-second lease keeps each injected fault's expiry short.
CHAOS_FLEET = FleetOptions(
    n_workers=4, max_attempts=6, lease_timeout=0.5, heartbeat_interval=0.15,
    poll_interval=0.02, backoff=BackoffPolicy(base=0.05, cap=0.2),
    faults=FaultSchedule(seed=7, kill_rate=0.15, drop_rate=0.1))

pytestmark = pytest.mark.slow


@pytest.fixture()
def chaotic_server(tmp_path):
    """A live server whose fleet executor runs under the chaos schedule."""
    core = ServiceCore(results_dir=RESULTS, cache=tmp_path / "cache",
                       fleet=CHAOS_FLEET)
    server = _start_server(core)
    return core, f"http://{server.host}:{server.port}"


class TestChaosServing:
    def test_posted_fleet_run_reproduces_the_committed_fig05(
            self, chaotic_server, tmp_path):
        core, base = chaotic_server
        committed = json.loads((RESULTS / "fig05.json").read_text())

        body = json.dumps({"name": FIG_BENCH, "executor": "fleet"}).encode()
        status, headers, response = _request(f"{base}/run", method="POST",
                                             body=body)
        assert status == 200
        payload = json.loads(response)
        assert payload["run_id"] == committed["run_id"]
        assert payload["config_digest"] == committed["config_digest"]
        assert headers["etag"] == f'"{committed["run_id"]}"'

        # The schedule actually hurt the fleet — and the fleet absorbed
        # every injury without losing a cell.
        fleet = payload["stats"]["fleet"]
        n_cells = payload["cells"]
        assert fleet["completed"] == n_cells
        assert fleet["leased"] > n_cells
        assert fleet["retried"] > 0 and fleet["expired"] > 0
        assert fleet["dead"] == 0

        # Beyond run_id equality: the computed record is the committed
        # record — same provenance, same numbers, bit for bit.  Only
        # environment notes (executor label) may differ.
        baseline = load_record(RESULTS / "fig05.json")
        rerun = core.run_bench(FIG_BENCH, executor="fleet").record
        diff = diff_records(baseline, rerun, "baseline", "chaos-fleet")
        assert diff.exit_code == 0
        assert diff.identical

    def test_stats_endpoint_exposes_the_fleet_counters(self, chaotic_server):
        core, base = chaotic_server
        body = json.dumps({"name": FIG_BENCH, "executor": "fleet"}).encode()
        assert _request(f"{base}/run", method="POST", body=body)[0] == 200

        status, _, stats_body = _request(f"{base}/stats")
        assert status == 200
        stats = json.loads(stats_body)
        assert stats["fleet"] == core.fleet_stats.as_dict()
        assert stats["fleet"]["completed"] > 0
        assert stats["fleet"]["leased"] >= stats["fleet"]["completed"]

        # A warm repost recomputes nothing: every cell is cached, the
        # fleet never spins up, and the counters hold still.
        before = dict(stats["fleet"])
        status, _, response = _request(f"{base}/run", method="POST",
                                       body=body)
        assert status == 200
        after = json.loads(response)["stats"]["fleet"]
        assert after == before
