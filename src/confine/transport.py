"""The protocol's JSON requests: two clients, one route table per role, one server.

``HttpTransport`` and ``LoopbackHub`` expose the same four calls, so the
provisioner service and the miner session never know which one they run
over. ``answer()`` runs a route table and maps service errors to statuses;
``JsonServer`` and the hub both answer through it, so an error reads as
the same status and ``TransportError`` over HTTP and over loopback.
"""

from __future__ import annotations

import json
import logging
import threading
import urllib.error
import urllib.parse
import urllib.request
from http.client import HTTPException
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from typing import Callable

__all__ = [
    "TransportError", "HttpTransport", "LoopbackHub", "JsonServer", "BODY_ALLOWANCE",
    "answer", "provisioner_routes", "segment_routes",
]

log = logging.getLogger(__name__)

# bytes a request body may carry beyond the data it is sized for
BODY_ALLOWANCE = 1024 * 1024

# (method, path) -> call(query, body); body is None for a GET
Routes = dict[tuple[str, str], Callable[[dict, "dict | None"], dict]]


def _no_constant(name: str):
    # json.loads reads Infinity, -Infinity and NaN, which RFC 8259 does not define
    raise ValueError(f"{name} is not a JSON value")


class TransportError(Exception):
    """A peer was unreachable or answered outside the protocol."""

    def __init__(self, url: str, detail: str, status: int | None = None):
        self.url = url
        self.detail = detail
        self.status = status
        super().__init__(f"{url}: {detail}")


class HttpTransport:
    """JSON-over-HTTP client used by the miner and by provisioner pushes."""

    def __init__(self, timeout_s: float = 60.0):
        self.timeout_s = timeout_s

    def _exchange(self, request: urllib.request.Request) -> tuple[int, bytes]:
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            # A 4xx or 5xx answer still carries the peer's JSON error body.
            with exc:
                return exc.code, exc.read()

    def _call(self, url: str, request: urllib.request.Request) -> dict:
        try:
            status, raw = self._exchange(request)
        except (OSError, HTTPException) as exc:  # URLError and timeouts are OSErrors
            raise TransportError(url, str(exc)) from None
        try:
            body = json.loads(raw, parse_constant=_no_constant)
        except ValueError:
            body = None
        if not isinstance(body, dict):
            raise TransportError(url, f"answer is not a JSON object (HTTP {status})", status)
        if status >= 400:
            raise TransportError(url, body.get("error", f"HTTP {status}"), status)
        return body

    def get_case_refs(self, base_url: str, miner_id: str) -> dict:
        url = base_url.rstrip("/") + "/caserefs"
        query = urllib.parse.urlencode({"miner_id": miner_id})
        return self._call(url, urllib.request.Request(f"{url}?{query}"))

    def _post(self, url: str, body: dict) -> dict:
        request = urllib.request.Request(
            url,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        return self._call(url, request)

    def post_cases(self, base_url: str, body: dict) -> dict:
        return self._post(base_url.rstrip("/") + "/cases", body)

    def post_attestation(self, base_url: str, body: dict) -> dict:
        return self._post(base_url.rstrip("/") + "/attestation", body)

    def push_segment(self, callback_url: str, body: dict) -> dict:
        return self._post(callback_url.rstrip("/") + "/segments", body)


def provisioner_routes(service) -> Routes:
    """The provisioner's three requests; any object with these methods serves."""

    def case_refs(query: dict, _body) -> dict:
        miner_id = query.get("miner_id")
        if not miner_id:
            raise ValueError("miner_id query parameter is required")
        return service.serve_case_refs(miner_id)

    return {
        ("GET", "/caserefs"): case_refs,
        ("POST", "/cases"): lambda _query, body: service.handle_case_request(body),
        ("POST", "/attestation"): lambda _query, body: service.handle_attestation(body),
    }


def segment_routes(receive: Callable[[dict], dict]) -> Routes:
    """The miner's callback: every pushed envelope goes to ``receive``."""
    return {("POST", "/segments"): lambda _query, body: receive(body)}


def answer(
    routes: Routes, method: str, path: str, query: dict, body: dict | None
) -> tuple[int, dict]:
    """Run one request against a route table: ``(status, JSON object)``."""
    call = routes.get((method, path))
    if call is None:
        return 404, {"error": "not found"}
    try:
        return 200, call(query, body)
    except PermissionError as exc:
        return 403, {"error": str(exc)}
    except ValueError as exc:
        return 400, {"error": str(exc)}
    except Exception:
        log.exception("unhandled error answering %s %s", method, path)
        return 500, {"error": "internal error"}


class _JsonHandler(BaseHTTPRequestHandler):
    server_version = "confine/0.1"
    # seconds each socket read may wait before the connection is dropped
    timeout = 30

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._answer(None)

    def do_POST(self) -> None:  # noqa: N802
        length = self.headers.get("Content-Length", "0")
        # rfile.read(-1) would wait for the client to close the connection
        if not length.isdecimal():
            self._send(400, {"error": f"bad Content-Length {length!r}"})
            return
        # refused before reading, so an announced size is never allocated
        if int(length) > self.server.max_body:
            self._send(413, {"error": f"body of {length} bytes exceeds {self.server.max_body}"})
            return
        raw = self.rfile.read(int(length))
        if len(raw) < int(length):
            return  # the client closed early; an answer would meet a closed socket
        try:
            body = json.loads(raw, parse_constant=_no_constant)
            if not isinstance(body, dict):
                raise ValueError("body must be a JSON object")
        except ValueError as exc:
            self._send(400, {"error": f"bad JSON body: {exc}"})
            return
        self._answer(body)

    def _answer(self, body: dict | None) -> None:
        url = urllib.parse.urlsplit(self.path)
        query = dict(urllib.parse.parse_qsl(url.query))
        self._send(*answer(self.server.routes, self.command, url.path, query, body))

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt: str, *args) -> None:
        log.debug("%s %s", self.address_string(), fmt % args)


class JsonServer:
    """HTTP server answering one route table, one daemon thread per connection.

    A provisioner may serve many miners, so a slow or stalled client holds
    only its own thread; the handler timeout ends that thread once the
    client goes silent. A subclass that sets ``serial`` serves every
    connection from one long-lived thread instead.
    """

    serial = False

    def __init__(self, routes: Routes, max_body: int, host: str = "127.0.0.1", port: int = 0):
        server = HTTPServer if self.serial else ThreadingHTTPServer
        self._httpd = server((host, port), _JsonHandler)
        self._httpd.routes = routes
        self._httpd.max_body = max_body
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "JsonServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)


class LoopbackHub:
    """In-process transport that keeps experiment sweeps free of socket overhead.

    Provisioners register under their base URL, segment receivers under the
    miner's callback URL, and each URL answers the routes registered there.
    Requests go through ``answer()`` like HTTP ones, so an error status
    becomes the same TransportError.
    """

    def __init__(self):
        self._routes: dict[str, Routes] = {}

    def register_provisioner(self, base_url: str, service) -> None:
        self._routes.setdefault(base_url.rstrip("/"), {}).update(provisioner_routes(service))

    def register_receiver(self, callback_url: str, receive: Callable[[dict], dict]) -> None:
        self._routes.setdefault(callback_url.rstrip("/"), {}).update(segment_routes(receive))

    def _call(self, base_url: str, method: str, path: str, query: dict, body: dict | None) -> dict:
        base = base_url.rstrip("/")
        if base not in self._routes:
            raise TransportError(base + path, "nothing registered at this URL")
        status, reply = answer(self._routes[base], method, path, query, body)
        if status >= 400:
            raise TransportError(base + path, reply["error"], status)
        return reply

    def get_case_refs(self, base_url: str, miner_id: str) -> dict:
        return self._call(base_url, "GET", "/caserefs", {"miner_id": miner_id}, None)

    def post_cases(self, base_url: str, body: dict) -> dict:
        return self._call(base_url, "POST", "/cases", {}, body)

    def post_attestation(self, base_url: str, body: dict) -> dict:
        return self._call(base_url, "POST", "/attestation", {}, body)

    def push_segment(self, callback_url: str, body: dict) -> dict:
        return self._call(callback_url, "POST", "/segments", {}, body)
