"""The HTTP serving tier over real sockets: routes, ETags, coalescing.

Each test boots a :class:`~repro.server.ReproServer` on an ephemeral
port (daemon-thread event loop) against the committed record stores and
drives it with blocking ``urllib`` clients; CI's ``serve`` job runs this
file.  The acceptance-critical cases: a served record is
byte-identical to its committed file, conditional requests round-trip
to 304, and concurrent cold ``POST /run`` s coalesce onto one engine
computation per cell digest while returning the committed baseline's
``run_id``.
"""

import json
import socket
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from _http import _request, _start_server
from repro.results import load_record, save_record
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


@pytest.fixture()
def served_copy(tmp_path):
    """A live server over a writable copy of one committed record."""
    store = tmp_path / "results"
    store.mkdir()
    (store / "fig05.json").write_bytes((RESULTS / "fig05.json").read_bytes())
    core = ServiceCore(results_dir=store)
    server = _start_server(core)
    return core, f"http://{server.host}:{server.port}", store


def _raw_exchange(base: str, request: bytes) -> bytes:
    """Send one raw request; every byte the server sends before closing."""
    host, port = base[len("http://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


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
        assert _request(f"{base}/cells/../../etc/passwd")[0] == 404
        assert _request(f"{base}/nope")[0] == 404
        assert _request(f"{base}/catalog", method="DELETE")[0] == 405
        assert _request(f"{base}/run", method="POST",
                        body=b"{broken")[0] == 400
        assert _request(f"{base}/run", method="POST",
                        body=json.dumps({"n_trials": 3}).encode())[0] == 400
        assert _request(f"{base}/run", method="POST",
                        body=json.dumps({"name": "zzz"}).encode())[0] == 404


class TestRecordMemo:
    """Records are verified once per file version and served from memory."""

    def test_repeated_and_conditional_gets_verify_once(self, served,
                                                      record_loads):
        _, base = served
        committed = (RESULTS / "fig05.json").read_bytes()
        etag = f'"{json.loads(committed)["run_id"]}"'
        for _ in range(50):
            status, headers, body = _request(f"{base}/records/fig05")
            assert status == 200 and body == committed
            assert headers["etag"] == etag
            status, _, body = _request(f"{base}/records/fig05",
                                       headers={"If-None-Match": etag})
            assert status == 304 and body == b""
        assert record_loads == [RESULTS / "fig05.json"]

    def test_saved_replacement_is_served_with_its_etag(self, served_copy):
        _, base, store = served_copy
        _, headers, _ = _request(f"{base}/records/fig05")
        replacement = load_record(RESULTS / f"{CHEAP_STEM}.json")
        save_record(replacement, store / "fig05.json")
        status, fresh_headers, body = _request(
            f"{base}/records/fig05", headers={"If-None-Match": headers["etag"]})
        assert status == 200
        assert fresh_headers["etag"] == f'"{replacement.run_id}"'
        assert body == (store / "fig05.json").read_bytes()

    def test_in_place_rewrite_with_bad_run_id_is_not_served(self,
                                                           served_copy):
        _, base, store = served_copy
        _, headers, _ = _request(f"{base}/records/fig05")
        run_id = headers["etag"].strip('"')
        path = store / "fig05.json"
        text = path.read_text()
        with open(path, "r+") as fh:  # same inode, same size
            fh.write(text.replace(run_id, "0" * len(run_id)))
        status, _, body = _request(f"{base}/records/fig05")
        assert status == 404
        assert b"run_id" in body and str(store).encode() not in body

    def test_deleted_record_is_404_and_dropped(self, served_copy):
        core, base, store = served_copy
        assert _request(f"{base}/records/fig05")[0] == 200
        (store / "fig05.json").unlink()
        status, _, body = _request(f"{base}/records/fig05")
        assert status == 404 and str(store).encode() not in body
        assert core._records == {}

    def test_catalog_lists_a_bench_registered_after_start(self, served,
                                                          monkeypatch):
        from repro.experiments.catalog import BenchDef
        from repro.registry import CATALOG

        _, base = served
        assert _request(f"{base}/catalog")[0] == 200
        late = BenchDef(name="zz_registered_late", result_stem="zz_late",
                        panels=())
        monkeypatch.setitem(CATALOG._entries, late.name,
                            lambda full=False: late)
        status, _, body = _request(f"{base}/catalog")
        assert status == 200
        names = [entry["name"] for entry in json.loads(body)["benches"]]
        assert names[-1] == late.name


class TestRecordConfinement:
    """``/records/<name>`` reaches nothing outside the record store."""

    def test_absolute_path_is_404_without_the_path(self, served, tmp_path):
        _, base = served
        outside = tmp_path / "probe_outside.json"
        outside.write_bytes((RESULTS / "fig05.json").read_bytes())
        status, _, body = _request(f"{base}/records/{outside}")
        assert status == 404
        assert str(tmp_path).encode() not in body

    def test_dot_dot_does_not_walk_out_and_back_in(self, served):
        _, base = served
        for name in ("../results/fig05", "../results/fig05.json",
                     "../../benchmarks/results/fig05"):
            status, _, body = _request(f"{base}/records/{name}")
            assert status == 404, name
            assert b"/" not in body

    def test_cwd_relative_path_is_404(self, served, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        _, base = served
        for name in ("benchmarks/results/fig05.json", "./fig05.json"):
            assert _request(f"{base}/records/{name}")[0] == 404, name


class TestHead:
    def test_head_reports_the_get_length_and_sends_no_body(self, served):
        _, base = served
        committed = (RESULTS / "fig05.json").read_bytes()
        response = _raw_exchange(
            base, b"HEAD /records/fig05 HTTP/1.1\r\nHost: x\r\n\r\n")
        head, _, rest = response.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        fields = dict(line.split(": ", 1) for line in lines[1:])
        assert fields["Content-Length"] == str(len(committed))
        assert fields["ETag"] == f'"{json.loads(committed)["run_id"]}"'
        assert rest == b""


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
