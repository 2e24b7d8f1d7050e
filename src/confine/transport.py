"""Client-side transport: real HTTP or in-process loopback.

Both transports expose the same four calls, so the provisioner service and
the miner session never know which one they run over. The loopback hub
keeps experiment sweeps free of socket overhead.
"""

from __future__ import annotations

import json
import logging
import urllib.error
import urllib.parse
import urllib.request
from http.client import HTTPException
from typing import Callable

__all__ = ["TransportError", "HttpTransport", "LoopbackHub"]

log = logging.getLogger(__name__)


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
            body = json.loads(raw)
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


class LoopbackHub:
    """In-process transport: URLs map to registered service objects.

    Provisioners register under their base URL, segment receivers under the
    miner's callback URL. Errors that the HTTP layer would turn into 4xx
    answers surface as TransportError here as well.
    """

    def __init__(self):
        self._provisioners: dict[str, object] = {}
        self._receivers: dict[str, Callable[[dict], dict]] = {}

    def register_provisioner(self, base_url: str, service) -> None:
        self._provisioners[base_url.rstrip("/")] = service

    def register_receiver(self, callback_url: str, receive: Callable[[dict], dict]) -> None:
        self._receivers[callback_url.rstrip("/")] = receive

    def _service(self, base_url: str):
        svc = self._provisioners.get(base_url.rstrip("/"))
        if svc is None:
            raise TransportError(base_url, "no provisioner registered at this URL")
        return svc

    def get_case_refs(self, base_url: str, miner_id: str) -> dict:
        from .provisioner import AccessDeniedError

        try:
            return self._service(base_url).serve_case_refs(miner_id)
        except AccessDeniedError as exc:
            raise TransportError(base_url, str(exc), status=403) from None

    def post_cases(self, base_url: str, body: dict) -> dict:
        try:
            return self._service(base_url).handle_case_request(body)
        except ValueError as exc:
            raise TransportError(base_url, str(exc), status=400) from None

    def post_attestation(self, base_url: str, body: dict) -> dict:
        try:
            return self._service(base_url).handle_attestation(body)
        except ValueError as exc:
            raise TransportError(base_url, str(exc), status=400) from None

    def push_segment(self, callback_url: str, body: dict) -> dict:
        receive = self._receivers.get(callback_url.rstrip("/"))
        if receive is None:
            raise TransportError(callback_url, "no receiver registered at this URL")
        return receive(body)
