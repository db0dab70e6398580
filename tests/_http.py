"""HTTP helpers for the serving-tier tests: a live server and a client.

``_start_server`` boots a :class:`~repro.server.ReproServer` on an
ephemeral port on a daemon-thread event loop; ``_request`` is one
blocking ``urllib`` exchange that returns non-2xx statuses instead of
raising.
"""

from __future__ import annotations

import asyncio
import threading
import urllib.error
import urllib.request
from typing import Dict, Optional, Tuple

from repro.server import ReproServer
from repro.service import ServiceCore


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
