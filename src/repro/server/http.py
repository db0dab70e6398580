"""The asyncio HTTP/1.1 implementation behind ``python -m repro serve``.

Deliberately minimal and dependency-free: ``asyncio.start_server`` for
the listener, one short-lived connection per request (``Connection:
close``), and a small router over the service core.  Blocking work —
record loads, cell reads, and above all ``POST /run``'s engine
computations — runs on a dedicated thread pool via
``run_in_executor``, so the event loop keeps serving cache hits while a
cold bench computes.  Coalescing needs no server-side bookkeeping: the
core's shared :class:`~repro.evaluation.SingleFlight` map already
guarantees one computation per cell digest across however many threads
``POST /run`` occupies.

Conditional requests: every stable resource carries a strong ``ETag``
(records use ``run_id`` — content identity by construction; cells use
the digest that *is* their name), and a matching ``If-None-Match``
short-circuits to ``304 Not Modified`` with an empty body.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from ..evaluation import EXECUTORS
from ..exceptions import ReproError, ResultsError
from ..registry import UnknownNameError
from ..service import ServiceCore, catalog_payload, run_payload, stats_payload

#: Upper bound on request head + body bytes; a repro client never needs
#: more, and an unbounded read is a trivial memory DoS.
_MAX_BODY = 1 << 20
_MAX_HEAD = 1 << 16


def _json_bytes(payload: object) -> bytes:
    """Compact, sorted, strict-JSON response body bytes."""
    return (json.dumps(payload, sort_keys=True, allow_nan=False)
            + "\n").encode("utf-8")


class _HttpError(Exception):
    """An error response to be rendered as ``{"error": ...}`` JSON."""

    def __init__(self, status: int, reason: str, message: str):
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.message = message


class ReproServer:
    """One service core behind an asyncio HTTP listener.

    ``port=0`` binds an ephemeral port; read the bound address back
    from :attr:`port` after :meth:`start` (the tests rely on this).
    ``max_workers`` bounds the blocking-work pool — and therefore how
    many ``POST /run`` computations plus disk reads can be in flight at
    once; coalescing keeps the engine work per cold digest at one
    regardless.
    """

    def __init__(self, core: ServiceCore, host: str = "127.0.0.1",
                 port: int = 0, max_workers: int = 16):
        self.core = core
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool = ThreadPoolExecutor(max_workers=max_workers,
                                        thread_name_prefix="repro-serve")

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and resolve the actual port.

        The stream limit is set explicitly: ``readuntil`` raises once a
        head exceeds it, and the default 64 KiB limit coincided with
        ``_MAX_HEAD`` — which made the size check in ``_read_head``
        unreachable and surfaced oversized heads as unhandled
        ``LimitOverrunError`` instead of a 431 response.
        """
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port, limit=_MAX_BODY)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (the ``python -m repro serve`` loop)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop the listener and release the worker pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pool.shutdown(wait=False)

    # -- request plumbing ----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Parse one request, route it, write one response, close."""
        method = None
        try:
            try:
                method, path, headers = await self._read_head(reader)
                body = await self._read_body(reader, headers)
                status, reason, payload, ctype, etag = await self._route(
                    method, path, headers, body)
            except _HttpError as exc:
                status, reason = exc.status, exc.reason
                payload = _json_bytes({"error": exc.message})
                ctype, etag = "application/json", None
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            self._write_response(writer, status, reason, payload, ctype, etag,
                                 send_body=method != "HEAD")
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_head(self, reader: asyncio.StreamReader):
        """The request line and headers, minimally validated."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.LimitOverrunError, ValueError):
            # The head outgrew the stream limit before its terminator
            # arrived; an unhandled overrun would tear the connection
            # down with no response at all.
            raise _HttpError(431, "Request Header Fields Too Large",
                             "request head too large")
        if len(head) > _MAX_HEAD:
            raise _HttpError(431, "Request Header Fields Too Large",
                             "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, "Bad Request",
                             f"malformed request line {lines[0]!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, "Bad Request",
                                 f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        return parts[0], parts[1], headers

    async def _read_body(self, reader: asyncio.StreamReader,
                         headers: Dict[str, str]) -> bytes:
        """The request body, bounded by Content-Length."""
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "Bad Request", "bad Content-Length")
        if length < 0 or length > _MAX_BODY:
            raise _HttpError(413, "Payload Too Large",
                             f"request body of {length} bytes refused")
        return await reader.readexactly(length) if length else b""

    def _write_response(self, writer: asyncio.StreamWriter, status: int,
                        reason: str, payload: bytes, ctype: str,
                        etag: Optional[str], send_body: bool = True) -> None:
        """One complete ``Connection: close`` HTTP/1.1 response.

        A ``HEAD`` response (``send_body=False``) keeps the
        ``Content-Length`` of the body it withholds (RFC 9110 §9.3.2).
        """
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {ctype}",
                f"Content-Length: {len(payload)}",
                "Connection: close"]
        if etag is not None:
            head.append(f"ETag: {etag}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        if send_body:
            writer.write(payload)

    async def _in_pool(self, fn, *args):
        """Run blocking work on the dedicated pool, off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, fn, *args)

    # -- routing -------------------------------------------------------------

    @staticmethod
    def _not_modified(headers: Dict[str, str], etag: str) -> bool:
        """Does the request's ``If-None-Match`` match this ETag?

        RFC 9110 §13.1.2 mandates *weak* comparison for If-None-Match:
        ``W/"x"`` and ``"x"`` match.  Proxies legitimately weaken tags
        they forward, so comparing with the ``W/`` prefix attached
        would silently disable 304s behind such a proxy.
        """
        candidates = headers.get("if-none-match", "")
        if not candidates:
            return False
        if candidates.strip() == "*":
            return True

        def opaque(tag: str) -> str:
            return tag[2:] if tag.startswith("W/") else tag

        return opaque(etag) in [opaque(c.strip())
                                for c in candidates.split(",")]

    async def _route(self, method: str, path: str, headers: Dict[str, str],
                     body: bytes) -> Tuple[int, str, bytes, str,
                                           Optional[str]]:
        """Dispatch one request; returns (status, reason, body, type, etag)."""
        path = path.split("?", 1)[0]
        # HEAD routes as GET; ``_handle`` withholds the body but keeps
        # every header — curl -I and cache validators probe ETags so.
        if method in ("GET", "HEAD"):
            if path == "/catalog":
                return await self._get_catalog(headers)
            if path == "/stats":
                payload = _json_bytes(stats_payload(self.core))
                return 200, "OK", payload, "application/json", None
            if path.startswith("/records/"):
                return await self._get_record(path[len("/records/"):],
                                              headers)
            if path.startswith("/cells/"):
                return await self._get_cell(path[len("/cells/"):], headers)
            raise _HttpError(404, "Not Found", f"unknown resource {path!r}")
        if method == "POST":
            if path == "/run":
                return await self._post_run(headers, body)
            raise _HttpError(404, "Not Found", f"unknown resource {path!r}")
        raise _HttpError(405, "Method Not Allowed",
                         f"method {method!r} not supported")

    async def _get_catalog(self, headers: Dict[str, str]):
        """``GET /catalog`` — the bench listing, ETagged by content."""
        payload = _json_bytes(await self._in_pool(catalog_payload, self.core))
        etag = '"' + hashlib.blake2b(payload, digest_size=8).hexdigest() + '"'
        if self._not_modified(headers, etag):
            return 304, "Not Modified", b"", "application/json", etag
        return 200, "OK", payload, "application/json", etag

    async def _get_record(self, name: str, headers: Dict[str, str]):
        """``GET /records/<name>`` — the manifest, byte-identical to disk."""
        try:
            record = await self._in_pool(self.core.load_record, name)
        except ResultsError as exc:
            raise _HttpError(404, "Not Found", str(exc))
        etag = f'"{record.run_id}"'
        if self._not_modified(headers, etag):
            return 304, "Not Modified", b"", "application/json", etag
        body = self.core.manifest_bytes(record)
        return 200, "OK", body, "application/json", etag

    async def _get_cell(self, digest: str, headers: Dict[str, str]):
        """``GET /cells/<digest>`` — one cached cell's raw trial values."""
        etag = f'"{digest}"'
        if self._not_modified(headers, etag):
            # A cell's content is its name; the digest alone proves
            # freshness, no disk read needed.
            return 304, "Not Modified", b"", "application/json", etag
        values = await self._in_pool(self.core.cell_values, digest)
        if values is None:
            raise _HttpError(404, "Not Found",
                             f"no cached cell with digest {digest!r}")
        return (200, "OK", _json_bytes({"digest": digest, "values": values}),
                "application/json", etag)

    async def _post_run(self, headers: Dict[str, str], body: bytes):
        """``POST /run`` — compute a catalog bench through the core.

        Body: ``{"name": <bench>, "full": bool?, "n_trials": int?,
        "executor": str?}``.  Concurrent cold requests for the same
        entry coalesce onto one engine computation per cell digest.
        """
        try:
            request = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, "Bad Request", f"body is not JSON: {exc}")
        if not isinstance(request, dict) or not isinstance(
                request.get("name"), str):
            raise _HttpError(400, "Bad Request",
                             'body must be {"name": "<bench name>", ...}')
        name = request["name"]
        full = request.get("full", False)
        if not isinstance(full, bool):
            # bool() of a truthy non-bool would silently run the wrong
            # grid scale; name the bad field at the route instead.
            raise _HttpError(400, "Bad Request", "full must be a boolean")
        n_trials = request.get("n_trials")
        if n_trials is not None and (isinstance(n_trials, bool)
                                     or not isinstance(n_trials, int)
                                     or n_trials <= 0):
            raise _HttpError(400, "Bad Request",
                             "n_trials must be a positive integer")
        executor = request.get("executor", "serial")
        if executor not in EXECUTORS:
            raise _HttpError(400, "Bad Request",
                             f"unknown executor {executor!r}")

        def compute():
            return self.core.run_bench(name, full=full, n_trials=n_trials,
                                       executor=executor)

        try:
            run = await self._in_pool(compute)
        except UnknownNameError as exc:
            raise _HttpError(404, "Not Found", str(exc))
        except (ReproError, ValueError, TypeError) as exc:
            raise _HttpError(500, "Internal Server Error", str(exc))
        payload = _json_bytes(run_payload(self.core, run))
        return (200, "OK", payload, "application/json",
                f'"{run.record.run_id}"')


async def _serve_async(core: ServiceCore, host: str, port: int) -> None:
    """Start a server, announce the address, and serve until cancelled."""
    server = ReproServer(core, host=host, port=port)
    await server.start()
    print(f"[serve] listening on http://{server.host}:{server.port} "
          f"(Ctrl-C to stop)", flush=True)
    try:
        await server.serve_forever()
    finally:
        await server.close()


def serve(core: ServiceCore, host: str = "127.0.0.1",
          port: int = 8321) -> int:
    """Blocking entry point for ``python -m repro serve``."""
    try:
        asyncio.run(_serve_async(core, host, port))
    except KeyboardInterrupt:
        print("[serve] stopped")
    return 0
