"""One route table answers HTTP and loopback: the same status, the same error."""

import json
import socket
import threading
import time
import urllib.parse

import pytest

from confine.attest import ReferenceRegistry
from confine.eventlog import partition_by_org
from confine.harness import ScenarioParams, generate_scenario_log, run_protocol
from confine.miner import MinerReceiver, MinerSession
from confine.provisioner import ProvisionerServer, ProvisionerService
from confine.transport import HttpTransport, JsonServer, LoopbackHub, TransportError, _JsonHandler
from confine.wire import KIB, CaseRequest

from conftest import acks, http_request


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
    "/segments": '{"org": "H", "seq_no": %s, "total": 1, "wrapped_key": "", "ciphertext": ""}',
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


def test_client_refuses_an_unsupported_url_scheme():
    with pytest.raises(TransportError, match="unsupported URL scheme 'ftp'") as err:
        HttpTransport(timeout_s=4).post_cases("ftp://127.0.0.1:21", {})
    assert err.value.url == "ftp://127.0.0.1:21/cases"


# -- kept-alive connections -------------------------------------------------------


@pytest.fixture()
def accepted(monkeypatch):
    """Connections each JSON server accepted, keyed by the paths it routes."""
    counts: dict[frozenset, int] = {}
    setup = _JsonHandler.setup

    def counting(handler):
        paths = frozenset(path for _method, path in handler.server.routes)
        counts[paths] = counts.get(paths, 0) + 1
        setup(handler)

    monkeypatch.setattr(_JsonHandler, "setup", counting)
    return counts


def _echo_server() -> JsonServer:
    return JsonServer({("POST", "/cases"): lambda _q, body: {"echo": body}}, 1024).start()


def test_http_session_pushes_each_delivery_over_one_connection(accepted):
    log_data, org_map = generate_scenario_log(ScenarioParams(cases=30, seed=7))
    partitions = partition_by_org(log_data, org_map)
    assert len(partitions) == 3
    session = run_protocol(partitions, seg_size=KIB, networked=True)
    assert session.net is not None
    assert len(acks(session)) > 3 * len(partitions)  # one per segment
    # at most one per org delivery; orgs deliver one after another, so a
    # shared client may carry them all over one
    assert 1 <= accepted[frozenset({"/segments"})] <= len(partitions)


def test_connection_dropped_by_the_server_is_replaced(accepted, monkeypatch):
    monkeypatch.setattr(_JsonHandler, "timeout", 0.2)
    server = _echo_server()
    try:
        client = HttpTransport(timeout_s=4)
        assert client.post_cases(server.url, {"n": 1}) == {"echo": {"n": 1}}
        assert client.post_cases(server.url, {"n": 2}) == {"echo": {"n": 2}}
        assert accepted[frozenset({"/cases"})] == 1
        time.sleep(1.0)  # the idle connection times out on the server
        assert client.post_cases(server.url, {"n": 3}) == {"echo": {"n": 3}}
        assert accepted[frozenset({"/cases"})] == 2
    finally:
        server.close()


def test_close_ends_the_threads_of_idle_connections():
    before = set(threading.enumerate())
    server = _echo_server()
    client = HttpTransport(timeout_s=4)
    assert client.post_cases(server.url, {"n": 1}) == {"echo": {"n": 1}}
    # the kept-alive connection holds its handler thread while idle
    assert len(set(threading.enumerate()) - before) == 2
    t0 = time.monotonic()
    server.close()
    assert time.monotonic() - t0 < 5  # not the 30 s handler timeout
    assert [t for t in set(threading.enumerate()) - before if t.is_alive()] == []


@pytest.mark.parametrize("kept_alive", [False, True], ids=["idle", "kept-alive"])
def test_close_returns_within_a_poll_interval(kept_alive):
    # serve_forever checks for shutdown once per poll; close() waits for it
    server = _echo_server()
    client = HttpTransport(timeout_s=4)
    try:
        if kept_alive:
            assert client.post_cases(server.url, {"n": 1}) == {"echo": {"n": 1}}
        t0 = time.monotonic()
        server.close()
        assert time.monotonic() - t0 < 0.2
    finally:
        client.close()


def test_one_client_shared_by_two_threads(accepted):
    server = _echo_server()
    client = HttpTransport(timeout_s=4)
    answers: dict[str, list] = {"a": [], "b": []}

    def calls(name: str) -> None:
        for i in range(50):
            answers[name].append(client.post_cases(server.url, {"who": name, "i": i}))

    try:
        threads = [threading.Thread(target=calls, args=(name,)) for name in answers]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        server.close()
    for name, got in answers.items():
        assert got == [{"echo": {"who": name, "i": i}} for i in range(50)]
    assert accepted[frozenset({"/cases"})] <= 2  # one connection per thread at most


def test_sequential_posts_do_not_wait_for_delayed_acks():
    # with Nagle's algorithm on, each answer on a kept-alive connection
    # waits about 40 ms for the client's delayed ACK: about 4 s here
    server = _echo_server()
    client = HttpTransport(timeout_s=4)
    try:
        t0 = time.monotonic()
        for i in range(100):
            assert client.post_cases(server.url, {"i": i}) == {"echo": {"i": i}}
        assert time.monotonic() - t0 < 2
    finally:
        server.close()


@pytest.mark.parametrize(
    "framing,status",
    [
        (f"Content-Length: {10**13}", b"413"),
        (f"Content-Length: {'9' * 5000}", b"413"),
        ("Content-Length: ten", b"400"),
        ("Transfer-Encoding: chunked", b"400"),
    ],
    ids=["oversized", "past-int-digit-limit", "bad-length", "chunked"],
)
def test_unread_body_is_never_parsed_as_a_request(json_server, framing, status):
    # the bytes after the head look like a second request on the connection
    server, path, _answers = json_server
    smuggled = f"POST {path} HTTP/1.1\r\nContent-Length: 2\r\n\r\n{{}}".encode()
    reply = _raw(server, f"POST {path} HTTP/1.1\r\n{framing}", smuggled)
    head = reply.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
    assert head[0].split()[1] == status
    assert b"Connection: close" in head
    assert reply.count(b"HTTP/1.") == 1


def test_get_with_a_body_closes_the_connection(hospital_log, identity):
    server = ProvisionerServer(_service(hospital_log, identity)).start()
    try:
        get = "GET /caserefs?miner_id=miner1 HTTP/1.1"
        reply = _raw(server, f"{get}\r\nContent-Length: 2", b"{}" + get.encode() + b"\r\n\r\n")
    finally:
        server.close()
    assert reply.split()[1] == b"200"
    assert reply.count(b"HTTP/1.") == 1
