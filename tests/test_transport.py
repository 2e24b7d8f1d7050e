"""One route table answers HTTP and loopback: the same status, the same error."""

import json
import socket
import urllib.parse

import pytest

from confine.attest import ReferenceRegistry
from confine.miner import MinerReceiver, MinerSession
from confine.provisioner import ProvisionerServer, ProvisionerService
from confine.transport import HttpTransport, JsonServer, LoopbackHub, TransportError
from confine.wire import CaseRequest

from conftest import http_request


def _case_request(ref: str) -> dict:
    return CaseRequest(seg_size=1000, refs=(ref,), callback="cb://x").to_dict()


def _unexpected(_body):
    raise KeyError("not a protocol error")


def _service(hospital_log, identity) -> ProvisionerService:
    return ProvisionerService(
        org_id="H",
        log_data=hospital_log,
        registry=ReferenceRegistry.of(identity.measurement),
        allowed_miners={"miner1"},
        push=lambda callback, envelope: {"status": "ok"},
    )


@pytest.fixture(params=["loopback", "http"])
def provider(request, hospital_log, identity):
    """(service, transport, base URL) of org H, over each transport."""
    service = _service(hospital_log, identity)
    if request.param == "loopback":
        hub = LoopbackHub()
        hub.register_provisioner("loop://H", service)
        yield service, hub, "loop://H"
        return
    server = ProvisionerServer(service).start()
    try:
        yield service, HttpTransport(timeout_s=5), server.url
    finally:
        server.close()


@pytest.mark.parametrize(
    "call,path,sabotage,status,detail",
    [
        (lambda t, url: t.get_case_refs(url, "stranger"), "/caserefs", False,
         403, "miner 'stranger' is not allowed at org 'H'"),
        (lambda t, url: t.post_cases(url, _case_request("999")), "/cases", False,
         400, "unknown case ref(s): 999"),
        (lambda t, url: t.post_cases(url, _case_request("312")), "/cases", True,
         500, "internal error"),
    ],
    ids=["denied-miner", "unknown-refs", "unexpected-error"],
)
def test_service_errors_read_the_same_over_both_transports(
    provider, monkeypatch, call, path, sabotage, status, detail
):
    service, transport, url = provider
    if sabotage:
        monkeypatch.setattr(service, "handle_case_request", _unexpected)
    with pytest.raises(TransportError) as err:
        call(transport, url)
    assert (err.value.status, err.value.detail) == (status, detail)
    assert err.value.url == url + path


def test_loopback_unknown_path_is_404():
    hub = LoopbackHub()
    hub.register_receiver("loop://miner", lambda body: {"status": "ok"})
    with pytest.raises(TransportError) as err:
        hub.post_cases("loop://miner", {})
    assert (err.value.status, err.value.detail) == (404, "not found")


# -- raw HTTP against both servers ----------------------------------------------


@pytest.fixture(params=["provisioner", "receiver"])
def json_server(request, hospital_log, identity):
    """(server, a POST path it serves, a check that it still answers)."""
    if request.param == "provisioner":
        server = ProvisionerServer(_service(hospital_log, identity)).start()
        path = "/cases"

        def answers() -> bool:
            return HttpTransport(timeout_s=4).get_case_refs(server.url, "miner1")["org"] == "H"
    else:
        session = MinerSession(providers=[], transport=LoopbackHub(), callback_url="", identity=identity)
        server = MinerReceiver(session).start()
        path = "/segments"

        def answers() -> bool:
            return http_request("POST", f"{server.url}/segments", b'{"org": "H"}')[0] == 200
    try:
        yield server, path, answers
    finally:
        server.close()


def _raw(server, head: str, body: bytes = b"", shut_write: bool = False) -> bytes:
    """Send one raw request to the server and read its whole reply."""
    url = urllib.parse.urlsplit(server.url)
    with socket.create_connection((url.hostname, url.port), timeout=4) as sock:
        sock.sendall(head.encode() + b"\r\n\r\n" + body)
        if shut_write:
            sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as reply:
            return reply.read()


def test_oversized_body_is_413_before_reading(json_server):
    # reading an announced 10 TB would fail to allocate and drop the connection
    server, path, answers = json_server
    reply = _raw(server, f"POST {path} HTTP/1.1\r\nContent-Length: {10**13}")
    assert reply.split()[1] == b"413"
    assert answers()


def test_truncated_body_gets_no_answer(json_server):
    # the client is gone: an answer would only meet a closed socket
    server, path, answers = json_server
    reply = _raw(server, f"POST {path} HTTP/1.1\r\nContent-Length: 100", b'{"org', shut_write=True)
    assert reply == b""
    assert answers()


_CONSTANT_BODIES = {
    "/cases": '{"seg_size": %s, "refs": ["312"], "callback": "cb://x"}',
    "/segments": '{"org": "H", "seq_no": %s, "total": 1, "wrapped_key": "", '
                 '"ciphertext": "", "auth_tag": ""}',
}


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_json_constants_are_bad_json(json_server, constant):
    # RFC 8259 has no Infinity or NaN; int(Infinity) would overflow later
    server, path, answers = json_server
    status, reply = http_request("POST", f"{server.url}{path}",
                                 (_CONSTANT_BODIES[path] % constant).encode())
    assert status == 400
    assert json.loads(reply)["error"].startswith("bad JSON body")
    assert answers()


def test_client_refuses_json_constants():
    server = JsonServer({("POST", "/cases"): lambda _q, _b: {"seg_size": float("inf")}}, 1024).start()
    try:
        with pytest.raises(TransportError, match="not a JSON object"):
            HttpTransport(timeout_s=4).post_cases(server.url, {})
    finally:
        server.close()
