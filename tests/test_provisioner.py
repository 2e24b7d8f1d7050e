"""Provisioner service: access gate, challenges, delivery, HTTP front end."""

import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import urllib.parse
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import confine
from confine.attest import ReferenceRegistry, compute_measurement, make_report
from confine.eventlog import parse_csv, serialize_log
from confine.provisioner import AccessDeniedError, ProvisionerServer, ProvisionerService
from confine.transport import HttpTransport, LoopbackHub, TransportError, _JsonHandler
from confine.wire import (
    AttestationChallenge,
    CaseRequest,
    SegmentEnvelope,
    UnknownCaseRefsError,
    b64u_decode,
    decrypt_segment,
    parse_segment_payload,
    unwrap_key,
)

from conftest import http_request


class PushRecorder:
    def __init__(self, responses=None):
        self.envelopes: list[dict] = []
        self.responses = list(responses or [])

    def __call__(self, callback: str, envelope: dict) -> dict:
        if self.responses:
            action = self.responses.pop(0)
            if isinstance(action, Exception):
                raise action
            self.envelopes.append(envelope)
            return action
        self.envelopes.append(envelope)
        return {"status": "ok"}


def _service(hospital_log, identity, push=None, **kwargs) -> ProvisionerService:
    return ProvisionerService(
        org_id="H",
        log_data=hospital_log,
        registry=ReferenceRegistry.of(identity.measurement),
        allowed_miners={"miner1"},
        push=push or PushRecorder(),
        **kwargs,
    )


def _attested_delivery(service, identity, seg_size=10_000, refs=("312", "711")):
    challenge = AttestationChallenge.from_dict(
        service.handle_case_request(
            CaseRequest(seg_size=seg_size, refs=tuple(refs), callback="cb://x").to_dict()
        )
    )
    report = make_report(identity, challenge.nonce)
    return service.handle_attestation(report.to_dict())


# -- case refs ------------------------------------------------------------------


def test_serve_case_refs_published_example(hospital_log, identity):
    service = _service(hospital_log, identity)
    assert service.serve_case_refs("miner1") == {"org": "H", "refs": ["312", "711"]}


def test_serve_case_refs_rejects_unknown_miner(hospital_log, identity):
    service = _service(hospital_log, identity)
    with pytest.raises(AccessDeniedError):
        service.serve_case_refs("intruder")


def test_serve_case_refs_wildcard_allows_everyone(hospital_log, identity):
    service = ProvisionerService(
        org_id="H",
        log_data=hospital_log,
        registry=ReferenceRegistry.of(identity.measurement),
        allowed_miners={"*"},
        push=PushRecorder(),
    )
    assert service.serve_case_refs("anyone")["refs"] == ["312", "711"]


def test_serve_case_refs_empty_log(identity):
    service = _service(parse_csv("case,timestamp,activity,org\n"), identity)
    assert service.serve_case_refs("miner1")["refs"] == []


def test_empty_registry_is_startup_error(hospital_log):
    with pytest.raises(ValueError):
        ProvisionerService(
            org_id="H",
            log_data=hospital_log,
            registry=ReferenceRegistry.of(),
            allowed_miners={"miner1"},
            push=PushRecorder(),
        )


# -- case request / challenge ----------------------------------------------------


def test_case_request_yields_16_byte_nonce(hospital_log, identity):
    service = _service(hospital_log, identity)
    raw = service.handle_case_request(
        CaseRequest(seg_size=2 * 1024 * 1024, refs=("312", "711"), callback="cb://x").to_dict()
    )
    assert len(b64u_decode(raw["nonce"])) == 16


def test_case_request_unknown_refs_named(hospital_log, identity):
    service = _service(hospital_log, identity)
    with pytest.raises(UnknownCaseRefsError) as err:
        service.handle_case_request(
            CaseRequest(seg_size=1000, refs=("999",), callback="cb://x").to_dict()
        )
    assert "999" in str(err.value)


def test_case_request_rejects_bad_seg_size(hospital_log, identity):
    service = _service(hospital_log, identity)
    with pytest.raises(ValueError):
        service.handle_case_request(
            CaseRequest(seg_size=0, refs=("312",), callback="cb://x").to_dict()
        )


def test_case_request_without_callback_is_400(hospital_log, identity):
    service = _service(hospital_log, identity)
    hub = LoopbackHub()
    hub.register_provisioner("loop://H", service)
    with pytest.raises(TransportError) as err:
        hub.post_cases("loop://H", CaseRequest(seg_size=1000, refs=("312",), callback="").to_dict())
    assert err.value.status == 400
    assert err.value.detail == "case request needs a callback URL"
    assert not service._pending


def test_challenge_nonces_unique(hospital_log, identity):
    service = _service(hospital_log, identity)
    body = CaseRequest(seg_size=1000, refs=("312",), callback="cb://x").to_dict()
    nonces = {service.handle_case_request(body)["nonce"] for _ in range(10_000)}
    assert len(nonces) == 10_000


# -- attestation and delivery ------------------------------------------------------


def test_trusted_report_delivers_envelopes(hospital_log, identity):
    push = PushRecorder()
    service = _service(hospital_log, identity, push=push)
    ack = _attested_delivery(service, identity)
    assert ack == {"status": "trusted"}
    assert len(push.envelopes) == 1
    env = SegmentEnvelope.from_dict(push.envelopes[0])
    assert env.org == "H" and env.seq_no == 0 and env.total == 1
    sealing = unwrap_key(env.wrapped_key, identity.enc_priv)
    back, _ = parse_segment_payload(decrypt_segment(env, sealing))
    assert list(back) == ["312", "711"]
    assert sum(len(events) for events in back.values()) == 19


def test_delivery_leaves_the_log_stamp_table_unchanged(hospital_log, identity):
    # the table is complete before a session starts; delivering reads it only
    log = parse_csv(serialize_log(hospital_log), source_org="H")
    stamps = log.stamps
    before = dict(stamps)
    assert len(before) == log.event_count()
    service = _service(log, identity, push=PushRecorder())
    assert _attested_delivery(service, identity, seg_size=1) == {"status": "trusted"}
    assert log.stamps is stamps
    assert dict(stamps) == before


def test_segments_pushed_in_seq_order_constant_total(hospital_log, identity):
    push = PushRecorder()
    service = _service(hospital_log, identity, push=push)
    _attested_delivery(service, identity, seg_size=300)
    envs = [SegmentEnvelope.from_dict(e) for e in push.envelopes]
    assert len(envs) > 1
    assert [e.seq_no for e in envs] == list(range(len(envs)))
    assert all(e.total == len(envs) for e in envs)


def test_one_wrapped_key_per_delivery(hospital_log, identity):
    push = PushRecorder()
    service = _service(hospital_log, identity, push=push)
    _attested_delivery(service, identity, seg_size=300)
    first = [SegmentEnvelope.from_dict(e) for e in push.envelopes]
    assert len(first) > 1
    assert len({e.wrapped_key for e in first}) == 1
    assert len({e.ciphertext for e in first}) == len(first)
    sealing = unwrap_key(first[0].wrapped_key, identity.enc_priv)
    back, _ = parse_segment_payload(b"".join(decrypt_segment(e, sealing) for e in first))
    assert list(back) == ["312", "711"]
    # the next attestation is a new delivery under a new key
    push.envelopes.clear()
    _attested_delivery(service, identity, seg_size=300)
    second = {SegmentEnvelope.from_dict(e).wrapped_key for e in push.envelopes}
    assert second.isdisjoint({first[0].wrapped_key})


def test_rejected_report_sends_nothing(hospital_log, identity):
    push = PushRecorder()
    service = _service(hospital_log, identity, push=push)
    stranger = replace(identity, measurement=compute_measurement(b"unregistered build"))
    ack = _attested_delivery(service, stranger)
    assert ack == {"status": "rejected", "reason": "unknown_measurement"}
    assert push.envelopes == []


def _measure_copy(root: Path, edit: str | None = None) -> bytes:
    """Copy the package under ``root``, make a one-byte edit to module ``edit``
    and return the copy's measurement, taken in a fresh process."""
    package = root / "confine"
    shutil.copytree(Path(confine.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        source = bytearray((package / edit).read_bytes())
        assert source[:3] == b'"""' and source[3:4].isalpha()
        source[3] ^= 0x20  # the docstring's first letter changes case
        (package / edit).write_bytes(source)
    probe = "import confine; print(confine.__file__); print(confine.default_measurement().hex())"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root)},
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split()
    assert out[0] == str(package / "__init__.py")
    return bytes.fromhex(out[1])


def test_copied_package_measures_like_the_checkout(tmp_path, identity):
    assert _measure_copy(tmp_path) == identity.measurement


# hminer.py was named in the old hand-kept module list, transport.py was not
@pytest.mark.parametrize("module", ["hminer.py", "transport.py"])
def test_one_byte_edit_is_an_unknown_build(tmp_path, hospital_log, identity, module):
    edited = _measure_copy(tmp_path, edit=module)
    assert edited != identity.measurement
    push = PushRecorder()
    service = _service(hospital_log, identity, push=push)
    ack = _attested_delivery(service, replace(identity, measurement=edited))
    assert ack == {"status": "rejected", "reason": "unknown_measurement"}
    assert push.envelopes == []


def test_malformed_report_rejected_without_pushes(hospital_log, identity):
    push = PushRecorder()
    service = _service(hospital_log, identity, push=push)
    challenge = AttestationChallenge.from_dict(service.handle_case_request(
        CaseRequest(seg_size=10_000, refs=("312",), callback="cb://x").to_dict()
    ))
    honest = make_report(identity, challenge.nonce).to_dict()
    # a missing field, a wrong JSON type, a non-object
    for report in ({"measurement": "zz"}, {**honest, "sig": 5}, [honest]):
        ack = service.handle_attestation(report)
        assert ack == {"status": "rejected", "reason": "malformed_report"}
    assert push.envelopes == []
    assert list(service._pending) == [challenge.nonce]


@pytest.mark.parametrize(
    "report", [5, "measurement nonce enc_pub att_pub sig"], ids=["number", "string"]
)
def test_non_object_report_rejected_over_loopback(hospital_log, identity, report):
    # rejected like any malformed report, not a 500, and no challenge is used up
    push = PushRecorder()
    hub = LoopbackHub()
    hub.register_provisioner("loop://H", _service(hospital_log, identity, push=push))
    request = CaseRequest(seg_size=10_000, refs=("312",), callback="cb://x").to_dict()
    challenge = AttestationChallenge.from_dict(hub.post_cases("loop://H", request))
    ack = hub.post_attestation("loop://H", report)
    assert ack == {"status": "rejected", "reason": "malformed_report"}
    assert push.envelopes == []
    honest = make_report(identity, challenge.nonce).to_dict()
    assert hub.post_attestation("loop://H", honest) == {"status": "trusted"}
    assert len(push.envelopes) == 1


def test_replayed_answer_is_stale(hospital_log, identity):
    push = PushRecorder()
    service = _service(hospital_log, identity, push=push)
    challenge = AttestationChallenge.from_dict(
        service.handle_case_request(
            CaseRequest(seg_size=10_000, refs=("312",), callback="cb://x").to_dict()
        )
    )
    answer = make_report(identity, challenge.nonce).to_dict()
    assert service.handle_attestation(answer) == {"status": "trusted"}
    assert len(push.envelopes) == 1
    # replay: challenge already consumed, nothing more is pushed
    assert service.handle_attestation(answer) == {"status": "rejected", "reason": "stale_nonce"}
    assert len(push.envelopes) == 1


def test_rejected_verdict_consumes_challenge(hospital_log, identity):
    service = _service(hospital_log, identity)
    challenge = AttestationChallenge.from_dict(
        service.handle_case_request(
            CaseRequest(seg_size=10_000, refs=("312",), callback="cb://x").to_dict()
        )
    )
    stranger = replace(identity, measurement=compute_measurement(b"unregistered build"))
    answer = make_report(stranger, challenge.nonce).to_dict()
    assert service.handle_attestation(answer)["reason"] == "unknown_measurement"
    # same nonce again: pending state was cleared on rejection
    honest = make_report(identity, challenge.nonce).to_dict()
    assert service.handle_attestation(honest)["reason"] == "stale_nonce"


def test_unanswered_challenge_never_delivers(hospital_log, identity):
    push = PushRecorder()
    service = _service(hospital_log, identity, push=push)
    service.handle_case_request(
        CaseRequest(seg_size=10_000, refs=("312",), callback="cb://x").to_dict()
    )
    assert push.envelopes == []


def _pushed_seq_nos(push):
    return [SegmentEnvelope.from_dict(e).seq_no for e in push.envelopes]


def test_push_transport_error_answers_undelivered(hospital_log, identity):
    push = PushRecorder(responses=[TransportError("cb://x", "down")])
    service = _service(hospital_log, identity, push=push)
    ack = _attested_delivery(service, identity, seg_size=300)
    assert ack == {"status": "error", "reason": "segment 0/2 undelivered: down"}
    assert push.envelopes == []  # one attempt, no retry


def test_push_stops_at_first_undelivered_segment(hospital_log, identity):
    push = PushRecorder(responses=[{"status": "ok"}, TransportError("cb://x", "reset")])
    service = _service(hospital_log, identity, push=push)
    ack = _attested_delivery(service, identity, seg_size=300)
    assert ack == {"status": "error", "reason": "segment 1/2 undelivered: reset"}
    assert _pushed_seq_nos(push) == [0]  # segment 0 is never pushed again


def test_push_does_not_retry_on_receiver_refusal(hospital_log, identity):
    push = PushRecorder(responses=[{"status": "error", "reason": "full"}])
    service = _service(hospital_log, identity, push=push)
    ack = _attested_delivery(service, identity, seg_size=300)
    assert ack == {"status": "error", "reason": "segment 0/2 refused: full"}
    assert _pushed_seq_nos(push) == [0]  # first refused envelope, no retries, abort


def test_push_ack_outside_the_protocol_is_a_refusal(hospital_log, identity):
    push = PushRecorder(responses=[{"status": ["ok"]}])
    service = _service(hospital_log, identity, push=push)
    ack = _attested_delivery(service, identity, seg_size=300)
    assert ack == {"status": "error", "reason": "segment 0/2 refused: bad ack: status must be a string"}
    assert _pushed_seq_nos(push) == [0]


# -- HTTP front end ----------------------------------------------------------------


@pytest.fixture()
def server(hospital_log, identity):
    push = PushRecorder()
    service = _service(hospital_log, identity, push=push)
    srv = ProvisionerServer(service).start()
    yield srv, push
    srv.close()


def test_http_caserefs_roundtrip(server):
    srv, _push = server
    transport = HttpTransport()
    resp = transport.get_case_refs(srv.url, "miner1")
    assert resp == {"org": "H", "refs": ["312", "711"]}


def test_http_disallowed_miner_is_403(server):
    srv, _push = server
    with pytest.raises(TransportError) as err:
        HttpTransport().get_case_refs(srv.url, "nope")
    assert err.value.status == 403


def test_http_full_handshake(server, identity):
    srv, push = server
    transport = HttpTransport()
    challenge = AttestationChallenge.from_dict(
        transport.post_cases(
            srv.url,
            CaseRequest(seg_size=10_000, refs=("312", "711"), callback="cb://x").to_dict(),
        )
    )
    report = make_report(identity, challenge.nonce)
    ack = transport.post_attestation(srv.url, report.to_dict())
    assert ack == {"status": "trusted"}
    assert len(push.envelopes) == 1


def test_http_unknown_refs_is_400(server):
    srv, _push = server
    with pytest.raises(TransportError) as err:
        HttpTransport().post_cases(
            srv.url, CaseRequest(seg_size=1000, refs=("999",), callback="cb://x").to_dict()
        )
    assert err.value.status == 400
    assert "999" in err.value.detail


def test_http_unknown_path_is_404(server):
    srv, _push = server
    assert http_request("GET", f"{srv.url}/nowhere")[0] == 404
    assert http_request("POST", f"{srv.url}/nowhere", b"{}")[0] == 404


def test_http_bad_json_is_400(server):
    srv, _push = server
    status, _body = http_request("POST", f"{srv.url}/cases", b"{not json")
    assert status == 400


def test_http_deeply_nested_json_is_400(server):
    # json.loads raises RecursionError, not ValueError, past its nesting limit
    srv, push = server
    status, body = http_request("POST", f"{srv.url}/cases", b"[" * 100_000)
    assert status == 400
    assert json.loads(body)["error"].startswith("bad JSON body: ")
    assert HttpTransport(timeout_s=5).get_case_refs(srv.url, "miner1")["org"] == "H"
    assert push.envelopes == []


def test_http_missing_miner_id_is_400(server):
    srv, _push = server
    assert http_request("GET", f"{srv.url}/caserefs")[0] == 400


def test_http_drops_stalled_client_then_serves(server, monkeypatch):
    # a silent connection holds its thread only until the handler timeout
    monkeypatch.setattr(_JsonHandler, "timeout", 0.2)
    srv, _push = server
    url = urllib.parse.urlsplit(srv.url)
    with socket.create_connection((url.hostname, url.port), timeout=4) as stalled:
        assert HttpTransport(timeout_s=4).get_case_refs(srv.url, "miner1")["org"] == "H"
        assert stalled.recv(1) == b""  # the server closed the silent connection


def test_http_trickling_client_does_not_block_others(server):
    # each read waits up to the 30 s handler timeout, so a body sent a byte
    # at a time could hold a connection indefinitely; other miners go on
    srv, _push = server
    url = urllib.parse.urlsplit(srv.url)
    with socket.create_connection((url.hostname, url.port), timeout=4) as slow:
        slow.sendall(b"POST /cases HTTP/1.0\r\nContent-Length: 100000\r\n\r\n{")
        for _ in range(2):
            assert HttpTransport(timeout_s=4).get_case_refs(srv.url, "miner1")["org"] == "H"


# -- HTTP client failures ------------------------------------------------------------


def test_http_transport_refused_connection():
    # a port that was bound and then released has no listener
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(TransportError) as err:
        HttpTransport(timeout_s=5).post_cases(f"http://127.0.0.1:{port}", {})
    assert err.value.status is None
    assert err.value.url == f"http://127.0.0.1:{port}/cases"


@pytest.mark.parametrize(
    "status,body,detail",
    [
        (500, b"<html>internal error</html>", "answer is not a JSON object (HTTP 500)"),
        (502, b"[1, 2]", "answer is not a JSON object (HTTP 502)"),
        (200, b"[" * 100_000, "answer is not a JSON object (HTTP 200)"),
    ],
    ids=["html-500", "json-list-502", "deeply-nested-200"],
)
def test_http_transport_bad_error_answer(status, body, detail):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802 (http.server API)
            self.rfile.read(int(self.headers.get("Content-Length", "0")))
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):
            pass

    httpd = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        with pytest.raises(TransportError) as err:
            HttpTransport(timeout_s=5).post_attestation(f"http://127.0.0.1:{httpd.server_port}", {})
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert err.value.status == status
    assert err.value.detail == detail


def test_import_does_not_load_requests():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, confine; print('requests' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=src, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
