"""End-to-end smoke harness: ``PYTHONPATH=src python -m repro.server.smoke``.

Boots a real :class:`~repro.server.ReproServer` on an ephemeral port
against the committed ``benchmarks/results`` record store and a
throwaway cell cache, then drives every endpoint over actual HTTP:

* ``GET /catalog`` lists every catalog bench;
* ``GET /records/fig05`` is byte-identical to the committed
  ``benchmarks/results/fig05.json`` and a conditional re-request with
  its ETag returns ``304 Not Modified`` with an empty body;
* eight simultaneous cold ``POST /run`` s of one bench all succeed with
  the committed record's ``run_id``, while ``GET /stats`` proves the
  single-flight guarantee: the flights-led counter equals the bench's
  cell count — one engine computation per digest, however many clients
  asked;
* ``GET /cells/<digest>`` serves a cell the run populated, honours
  ``If-None-Match``, and unknown records/cells/resources 404.

The CI ``serve`` job runs this from the repo root and fails on any
assertion; it exits 0 printing ``[smoke] ok``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..service import ServiceCore
from .http import ReproServer

#: The bench the concurrent cold ``POST /run`` storm computes: the
#: cheapest catalog entry (one panel, five cells at laptop scale).
_BENCH = "ablation_truncation_threshold"
_CLIENTS = 8


def _request(url: str, *, method: str = "GET", body: Optional[bytes] = None,
             headers: Optional[Dict[str, str]] = None
             ) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP exchange; non-2xx statuses return instead of raising."""
    request = urllib.request.Request(url, data=body, method=method,
                                     headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return (response.status,
                    {k.lower(): v for k, v in response.headers.items()},
                    response.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return (exc.code,
                    {k.lower(): v for k, v in exc.headers.items()},
                    exc.read())


def _start_server(core: ServiceCore) -> ReproServer:
    """Run a server on a daemon-thread event loop; return it once bound."""
    server = ReproServer(core)
    started = threading.Event()

    def runner():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    threading.Thread(target=runner, daemon=True).start()
    if not started.wait(timeout=30):
        raise RuntimeError("server failed to start within 30s")
    return server


def main() -> int:
    """Drive every endpoint against the committed stores; 0 on success."""
    results = Path("benchmarks/results")
    assert results.is_dir(), "run from the repo root (benchmarks/results)"
    with tempfile.TemporaryDirectory(prefix="repro-smoke-cache-") as cache:
        core = ServiceCore(results_dir=results, cache=cache)
        server = _start_server(core)
        base = f"http://{server.host}:{server.port}"

        # -- catalog --------------------------------------------------------
        status, headers, body = _request(f"{base}/catalog")
        assert status == 200, f"/catalog -> {status}"
        catalog = json.loads(body)
        names = [entry["name"] for entry in catalog["benches"]]
        assert _BENCH in names, f"{_BENCH} missing from /catalog"
        assert all(entry["has_record"] for entry in catalog["benches"]), \
            "committed records missing for some benches"
        print(f"[smoke] GET /catalog ok ({len(names)} benches)")

        # -- records + ETag round trip -------------------------------------
        status, headers, body = _request(f"{base}/records/fig05")
        assert status == 200, f"/records/fig05 -> {status}"
        committed = (results / "fig05.json").read_bytes()
        assert body == committed, "served fig05 record != committed bytes"
        etag = headers["etag"]
        run_id = json.loads(committed)["run_id"]
        assert etag == f'"{run_id}"', f"record ETag {etag} != run_id"
        status, _, body = _request(f"{base}/records/fig05",
                                   headers={"If-None-Match": etag})
        assert status == 304 and body == b"", \
            f"conditional /records/fig05 -> {status} with {len(body)} bytes"
        print("[smoke] GET /records/fig05 byte-identical; ETag 304 ok")

        # -- concurrent cold POST /run: single-flight ----------------------
        committed_record = core.load_record(_BENCH)
        n_cells = committed_record.n_cells()
        post = json.dumps({"name": _BENCH}).encode()

        def run_once(_):
            return _request(f"{base}/run", method="POST", body=post,
                            headers={"Content-Type": "application/json"})

        with ThreadPoolExecutor(max_workers=_CLIENTS) as pool:
            responses = list(pool.map(run_once, range(_CLIENTS)))
        run_ids = set()
        for status, headers, body in responses:
            assert status == 200, f"POST /run -> {status}: {body!r}"
            run_ids.add(json.loads(body)["run_id"])
        assert run_ids == {committed_record.run_id}, (
            f"served run_ids {run_ids} != committed record "
            f"{committed_record.run_id}")
        status, _, body = _request(f"{base}/stats")
        assert status == 200, f"/stats -> {status}"
        stats = json.loads(body)
        led = stats["flight"]["led"]
        assert led == n_cells, (
            f"single-flight violated: {led} flights led for {n_cells} cold "
            f"cells under {_CLIENTS} concurrent requests")
        print(f"[smoke] POST /run x{_CLIENTS} coalesced: led={led} "
              f"(= {n_cells} cells), coalesced={stats['flight']['coalesced']}, "
              f"run_id={run_ids.pop()}")

        # -- cells ----------------------------------------------------------
        digest = committed_record.panels[0].cells[0].digest
        status, headers, body = _request(f"{base}/cells/{digest}")
        assert status == 200, f"/cells/{digest} -> {status}"
        payload = json.loads(body)
        assert payload["digest"] == digest and payload["values"], \
            f"bad cell payload {payload}"
        status, _, body = _request(
            f"{base}/cells/{digest}",
            headers={"If-None-Match": headers["etag"]})
        assert status == 304 and body == b"", f"conditional cell -> {status}"
        print(f"[smoke] GET /cells/{digest[:12]}… ok; ETag 304 ok")

        # -- error paths -----------------------------------------------------
        assert _request(f"{base}/records/no-such-record")[0] == 404
        assert _request(f"{base}/cells/{'0' * 32}")[0] == 404
        assert _request(f"{base}/cells/../../etc/passwd")[0] == 404
        assert _request(f"{base}/nope")[0] == 404
        assert _request(f"{base}/run", method="POST",
                        body=b"not json")[0] == 400
        assert _request(f"{base}/run", method="POST",
                        body=json.dumps({"name": "nope"}).encode())[0] == 404
        print("[smoke] error paths ok (404/400)")

    print("[smoke] ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
