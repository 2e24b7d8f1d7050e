"""The protocol's JSON requests: two clients, one route table per role, one server.

``HttpTransport`` and ``LoopbackHub`` expose the same four calls, so the
provisioner service and the miner session never know which one they run
over. ``answer()`` runs a route table and maps service errors to statuses;
``JsonServer`` and the hub both answer through it, so an error reads as
the same status and ``TransportError`` over HTTP and over loopback.

A push carries a batch of whole sealed segments, ``{"envelopes": [...]}``,
so a delivery takes one request per batch.
Over HTTP both sides keep connections alive between requests (HTTP/1.1
persistent connections, RFC 9112 section 9.3): a provisioner pushes a whole
delivery over one connection, and the server gives each connection its
own thread.
"""

from __future__ import annotations

import json
import logging
import select
import socket
import threading
import urllib.parse
import weakref
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from .wire import parse_json_object

__all__ = [
    "TransportError", "HttpTransport", "LoopbackHub", "JsonServer", "BODY_ALLOWANCE",
    "answer", "provisioner_routes", "segment_routes",
]

log = logging.getLogger(__name__)

# bytes a request body may carry beyond the data it is sized for
BODY_ALLOWANCE = 1024 * 1024

# seconds between serve_forever's checks for shutdown; close() waits up to one
SERVE_POLL_S = 0.05

# (method, path) -> call(query, body); body is None for a GET
Routes = dict[tuple[str, str], Callable[[dict, "dict | None"], dict]]

_CONNECTIONS = {"http": HTTPConnection, "https": HTTPSConnection}


class TransportError(Exception):
    """A peer was unreachable or answered outside the protocol."""

    def __init__(self, url: str, detail: str, status: int | None = None):
        self.url = url
        self.detail = detail
        self.status = status
        super().__init__(f"{url}: {detail}")


def _peer_closed(conn: HTTPConnection) -> bool:
    # an idle connection has nothing to read until the peer closes it
    return bool(select.select([conn.sock], [], [], 0)[0])


def _close_idle(idle: dict[tuple[str, str], list[HTTPConnection]]) -> None:
    for conns in idle.values():
        for conn in conns:
            conn.close()
    idle.clear()


class HttpTransport:
    """JSON-over-HTTP client used by the miner and by provisioner pushes.

    Connections are kept alive and reused per scheme, host and port. A
    caller uses a connection alone and hands it back only once the whole
    answer was read and the peer did not ask to close it. A request is
    never sent twice: a connection that fails during one is closed and the
    failure is a ``TransportError``, so a push whose ack was lost reads as
    undelivered, never as a duplicate.
    """

    def __init__(self, timeout_s: float = 60.0):
        self.timeout_s = timeout_s
        self._idle: dict[tuple[str, str], list[HTTPConnection]] = {}
        self._lock = threading.Lock()
        # a transport that is dropped without close() still closes its sockets
        weakref.finalize(self, _close_idle, self._idle)

    def close(self) -> None:
        """Close every idle connection; a later call opens a new one."""
        with self._lock:
            _close_idle(self._idle)

    def _take(self, url: str, peer: tuple[str, str]) -> HTTPConnection:
        with self._lock:
            idle = self._idle.get(peer, [])
            while idle:
                conn = idle.pop()
                if not _peer_closed(conn):
                    return conn
                conn.close()
        scheme, netloc = peer
        if scheme not in _CONNECTIONS:
            raise TransportError(url, f"unsupported URL scheme {scheme!r}")
        return _CONNECTIONS[scheme](netloc, timeout=self.timeout_s)

    def _call(self, url: str, method: str, body: dict | None = None, query: str = "") -> dict:
        parts = urllib.parse.urlsplit(url)
        peer = (parts.scheme, parts.netloc)
        target = f"{parts.path}?{query}" if query else parts.path
        headers = {}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            conn = self._take(url, peer)
            try:
                conn.request(method, target, body=data, headers=headers)
                resp = conn.getresponse()
                status, raw = resp.status, resp.read()
            except BaseException:
                conn.close()
                raise
        except (OSError, HTTPException) as exc:  # refusals and timeouts are OSErrors
            raise TransportError(url, str(exc)) from None
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.setdefault(peer, []).append(conn)
        try:
            answer = parse_json_object(raw)
        except ValueError:
            raise TransportError(url, f"answer is not a JSON object (HTTP {status})", status) from None
        if status >= 400:
            raise TransportError(url, answer.get("error", f"HTTP {status}"), status)
        return answer

    def get_case_refs(self, base_url: str, miner_id: str) -> dict:
        url = base_url.rstrip("/") + "/caserefs"
        return self._call(url, "GET", query=urllib.parse.urlencode({"miner_id": miner_id}))

    def post_cases(self, base_url: str, body: dict) -> dict:
        return self._call(base_url.rstrip("/") + "/cases", "POST", body)

    def post_attestation(self, base_url: str, body: dict) -> dict:
        return self._call(base_url.rstrip("/") + "/attestation", "POST", body)

    def push_segment(self, callback_url: str, body: dict) -> dict:
        return self._call(callback_url.rstrip("/") + "/segments", "POST", body)


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
    """The miner's callback: each pushed batch's envelopes go to ``receive`` in order.

    The host unpacks the batch and hands the enclave one envelope per
    call, the way an SGX host makes one ECALL per envelope. The first ack
    that is not ``ok`` answers the push and leaves the rest of the batch
    unopened; otherwise the last ack does. A body without a non-empty
    ``envelopes`` list is refused as a whole, before any envelope is opened.
    """

    def push(_query, body: dict) -> dict:
        envelopes = body.get("envelopes")
        if not isinstance(envelopes, list) or not envelopes:
            raise ValueError("a push body must hold a non-empty envelopes list")
        for envelope in envelopes:
            ack = receive(envelope)
            if ack.get("status") != "ok":
                break
        return ack

    return {("POST", "/segments"): push}


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
    protocol_version = "HTTP/1.1"
    # a small answer otherwise waits for the client's delayed ACK, about
    # 40 ms per request on a kept-alive connection
    disable_nagle_algorithm = True
    # seconds each socket read may wait before the connection is dropped
    timeout = 30

    # Every answer that leaves body bytes unread closes the connection: on
    # a kept-alive one they would be parsed as the next request.

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        unread = "Content-Length" in self.headers or "Transfer-Encoding" in self.headers
        self._answer(None, close=unread)

    def do_POST(self) -> None:  # noqa: N802
        if "Transfer-Encoding" in self.headers:
            error = "Transfer-Encoding is not accepted, send Content-Length"
            self._send(400, {"error": error}, close=True)
            return
        length = self.headers.get("Content-Length", "0")
        # rfile.read(-1) would wait for the client to close the connection
        if not length.isdecimal():
            self._send(400, {"error": f"bad Content-Length {length!r}"}, close=True)
            return
        # refused before reading, so an announced size is never allocated;
        # int() refuses over 4,300 digits, so a longer size is refused unread
        digits = length.lstrip("0") or "0"
        if len(digits) > len(str(self.server.max_body)) or int(digits) > self.server.max_body:
            error = f"body of {length} bytes exceeds {self.server.max_body}"
            self._send(413, {"error": error}, close=True)
            return
        size = int(digits)
        raw = self.rfile.read(size)
        if len(raw) < size:
            # the client closed early; an answer would meet a closed socket
            self.close_connection = True
            return
        try:
            body = parse_json_object(raw)
        except ValueError as exc:
            self._send(400, {"error": f"bad JSON body: {exc}"})
            return
        self._answer(body)

    def _answer(self, body: dict | None, close: bool = False) -> None:
        url = urllib.parse.urlsplit(self.path)
        query = dict(urllib.parse.parse_qsl(url.query))
        self._send(*answer(self.server.routes, self.command, url.path, query, body), close=close)

    def _send(self, status: int, body: dict, close: bool = False) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")  # also sets close_connection
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt: str, *args) -> None:
        # called for every request: build nothing unless it is logged
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%s %s", self.address_string(), fmt % args)


class JsonServer(ThreadingHTTPServer):
    """HTTP server answering one route table, one daemon thread per connection.

    A provisioner may serve many miners and a miner's receiver many orgs,
    so a slow or stalled client holds only its own thread; the handler
    timeout ends that thread once the client goes silent. A kept-alive
    connection keeps its thread between requests: one thread per delivery.
    Each open connection's thread is kept, so closing the server can end it.
    """

    def __init__(self, routes: Routes, max_body: int, host: str = "127.0.0.1", port: int = 0):
        self.routes = routes
        self.max_body = max_body
        self._open: dict[socket.socket, threading.Thread] = {}
        self._open_lock = threading.Lock()
        # a failed bind calls server_close, which reads the table above
        super().__init__((host, port), _JsonHandler)
        self._serving = threading.Thread(target=self.serve_forever, args=(SERVE_POLL_S,), daemon=True)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "JsonServer":
        self._serving.start()
        return self

    def close(self) -> None:
        """Stop accepting, end every open connection and join its thread."""
        self.shutdown()
        self.server_close()
        self._serving.join(timeout=5)

    def process_request(self, request, client_address) -> None:
        # registered on the accepting thread, so once serve_forever has
        # stopped every accepted connection is in the table
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._open_lock:
            self._open[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.pop(request, None)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            still_open = list(self._open.items())
        for sock, _thread in still_open:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # the handler's read returns at once
            except OSError:
                pass  # the peer already reset it
        for _sock, thread in still_open:
            thread.join(timeout=5)


class LoopbackHub:
    """In-process transport that keeps experiment sweeps free of socket overhead.

    Provisioners register under their base URL, segment receivers under the
    miner's callback URL, and each URL answers the routes registered there;
    a pushed batch reaches the receiver through ``segment_routes`` as over HTTP.
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
