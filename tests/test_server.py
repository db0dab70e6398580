"""The HTTP serving tier over real sockets: routes, ETags, coalescing.

Each test boots a :class:`~repro.server.ReproServer` on an ephemeral
port (daemon-thread event loop) against the committed record stores and
drives it with blocking ``urllib`` clients — the same transport the CI
smoke job uses.  The acceptance-critical cases: a served record is
byte-identical to its committed file, conditional requests round-trip
to 304, and concurrent cold ``POST /run`` s coalesce onto one engine
computation per cell digest while returning the committed baseline's
``run_id``.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.server.smoke import _request, _start_server
from repro.service import ServiceCore

REPO_ROOT = Path(__file__).parent.parent
RESULTS = REPO_ROOT / "benchmarks" / "results"

#: One panel, five cells at laptop scale — cheap enough to compute live.
CHEAP_BENCH = "ablation_truncation_threshold"
CHEAP_STEM = "ablation_threshold"


@pytest.fixture()
def served(tmp_path):
    """A live server over the committed stores and a cold tmp cache."""
    core = ServiceCore(results_dir=RESULTS, cache=tmp_path / "cache")
    server = _start_server(core)
    return core, f"http://{server.host}:{server.port}"


class TestQueryEndpoints:
    def test_catalog_lists_every_bench_with_records(self, served):
        _, base = served
        status, _, body = _request(f"{base}/catalog")
        assert status == 200
        payload = json.loads(body)
        names = [entry["name"] for entry in payload["benches"]]
        assert CHEAP_BENCH in names and "fig05_lasso_lognormal" in names
        assert all(entry["has_record"] for entry in payload["benches"])

    def test_served_record_is_byte_identical_to_committed_file(self, served):
        _, base = served
        status, headers, body = _request(f"{base}/records/fig05")
        assert status == 200
        assert body == (RESULTS / "fig05.json").read_bytes()
        run_id = json.loads(body)["run_id"]
        assert headers["etag"] == f'"{run_id}"'

    def test_record_resolves_catalog_name_to_stem(self, served):
        _, base = served
        by_stem = _request(f"{base}/records/fig05")
        by_name = _request(f"{base}/records/fig05_lasso_lognormal")
        assert by_stem[0] == by_name[0] == 200
        assert by_stem[2] == by_name[2]

    def test_etag_round_trip_returns_304_with_empty_body(self, served):
        _, base = served
        _, headers, _ = _request(f"{base}/records/fig05")
        status, _, body = _request(
            f"{base}/records/fig05",
            headers={"If-None-Match": headers["etag"]})
        assert status == 304 and body == b""
        # A stale validator still gets the full representation.
        status, _, body = _request(
            f"{base}/records/fig05", headers={"If-None-Match": '"stale"'})
        assert status == 200 and body

    def test_unknown_resources_404_and_bad_bodies_400(self, served):
        _, base = served
        assert _request(f"{base}/records/no-such")[0] == 404
        assert _request(f"{base}/cells/{'0' * 32}")[0] == 404
        assert _request(f"{base}/cells/../secrets")[0] == 404
        assert _request(f"{base}/nope")[0] == 404
        assert _request(f"{base}/catalog", method="DELETE")[0] == 405
        assert _request(f"{base}/run", method="POST",
                        body=b"{broken")[0] == 400
        assert _request(f"{base}/run", method="POST",
                        body=json.dumps({"n_trials": 3}).encode())[0] == 400
        assert _request(f"{base}/run", method="POST",
                        body=json.dumps({"name": "zzz"}).encode())[0] == 404


class TestComputeEndpoint:
    def test_posted_run_matches_committed_baseline_run_id(self, served):
        _, base = served
        body = json.dumps({"name": CHEAP_BENCH}).encode()
        status, headers, response = _request(f"{base}/run", method="POST",
                                             body=body)
        assert status == 200
        payload = json.loads(response)
        committed = json.loads(
            (RESULTS / f"{CHEAP_STEM}.json").read_text())
        assert payload["run_id"] == committed["run_id"]
        assert headers["etag"] == f'"{committed["run_id"]}"'

    def test_concurrent_cold_runs_coalesce_single_flight(self, served):
        """Eight clients, one cold bench: flights led == cell count."""
        core, base = served
        committed = json.loads(
            (RESULTS / f"{CHEAP_STEM}.json").read_text())
        n_cells = sum(len(panel["cells"]) for panel in committed["panels"])
        body = json.dumps({"name": CHEAP_BENCH}).encode()

        def post(_):
            return _request(f"{base}/run", method="POST", body=body)

        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(post, range(8)))
        run_ids = {json.loads(resp)["run_id"] for status, _, resp in responses}
        assert all(status == 200 for status, _, _ in responses)
        assert run_ids == {committed["run_id"]}
        status, _, stats_body = _request(f"{base}/stats")
        assert status == 200
        stats = json.loads(stats_body)
        assert stats["flight"]["led"] == n_cells
        assert stats["flight"]["led"] == core.flight.led

    def test_cells_are_served_after_a_run_populates_the_cache(self, served):
        _, base = served
        body = json.dumps({"name": CHEAP_BENCH}).encode()
        assert _request(f"{base}/run", method="POST", body=body)[0] == 200
        committed = json.loads(
            (RESULTS / f"{CHEAP_STEM}.json").read_text())
        digest = committed["panels"][0]["cells"][0]["digest"]
        status, headers, cell_body = _request(f"{base}/cells/{digest}")
        assert status == 200
        payload = json.loads(cell_body)
        assert payload["digest"] == digest and payload["values"]
        status, _, cell_body = _request(
            f"{base}/cells/{digest}",
            headers={"If-None-Match": headers["etag"]})
        assert status == 304 and cell_body == b""


class TestHeadLimits:
    def test_oversized_head_is_431_not_a_dropped_connection(self, served):
        # Between _MAX_HEAD (64 KiB) and the stream limit (1 MiB): the
        # head reads fine and the explicit size check must reject it.
        # Before the limit was raised this branch was unreachable —
        # asyncio's default 64 KiB stream limit fired first.
        _, base = served
        status, _, body = _request(f"{base}/catalog",
                                   headers={"X-Pad": "x" * (80 * 1024)})
        assert status == 431
        assert b"head too large" in body

    def test_head_overrunning_the_stream_limit_is_431(self, served):
        # Past the 1 MiB stream limit readuntil raises LimitOverrunError
        # mid-head; the server must still answer 431 instead of letting
        # the exception tear the connection down with no response.
        _, base = served
        status, _, body = _request(f"{base}/catalog",
                                   headers={"X-Pad": "x" * (2 * 1024 * 1024)})
        assert status == 431
        assert b"head too large" in body


class TestWeakEtagComparison:
    def test_weak_if_none_match_hits_304(self, served):
        # RFC 9110 13.1.2: If-None-Match uses weak comparison, so a
        # proxy-weakened W/"tag" must still validate against our strong
        # ETag.
        _, base = served
        _, headers, _ = _request(f"{base}/records/fig05")
        etag = headers["etag"]
        status, _, body = _request(
            f"{base}/records/fig05",
            headers={"If-None-Match": f"W/{etag}"})
        assert status == 304 and body == b""

    def test_weak_tag_in_a_list_of_candidates(self, served):
        _, base = served
        _, headers, _ = _request(f"{base}/records/fig05")
        etag = headers["etag"]
        status, _, _ = _request(
            f"{base}/records/fig05",
            headers={"If-None-Match": f'"miss", W/{etag}'})
        assert status == 304

    def test_non_matching_weak_tag_still_misses(self, served):
        _, base = served
        status, _, _ = _request(
            f"{base}/records/fig05",
            headers={"If-None-Match": 'W/"something-else"'})
        assert status == 200


class TestRunValidation:
    def test_non_positive_n_trials_is_400_naming_the_field(self, served):
        _, base = served
        for bad in (0, -3):
            status, _, body = _request(
                f"{base}/run", method="POST",
                body=json.dumps({"name": CHEAP_BENCH,
                                 "n_trials": bad}).encode())
            assert status == 400, body
            assert b"n_trials must be a positive integer" in body

    def test_removed_process_executor_is_400(self, served):
        _, base = served
        status, _, body = _request(
            f"{base}/run", method="POST",
            body=json.dumps({"name": CHEAP_BENCH,
                             "executor": "process"}).encode())
        assert status == 400, body
        assert b"unknown executor 'process'" in body

    def test_non_bool_full_is_400_naming_the_field(self, served):
        # bool("yes") is True: without route validation a string "full"
        # silently selects the paper-scale grid and 500s much later (or
        # worse, computes for hours).
        _, base = served
        for bad in ("yes", 1, [True]):
            status, _, body = _request(
                f"{base}/run", method="POST",
                body=json.dumps({"name": CHEAP_BENCH,
                                 "full": bad}).encode())
            assert status == 400, body
            assert b"full must be a boolean" in body
