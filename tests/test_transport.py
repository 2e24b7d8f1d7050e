"""One route table answers HTTP and loopback: the same status, the same error."""

import pytest

from confine.attest import ReferenceRegistry
from confine.provisioner import ProvisionerServer, ProvisionerService
from confine.transport import HttpTransport, LoopbackHub, TransportError
from confine.wire import CaseRequest


def _case_request(ref: str) -> dict:
    return CaseRequest(seg_size=1000, refs=(ref,), callback="cb://x").to_dict()


def _unexpected(_body):
    raise KeyError("not a protocol error")


@pytest.fixture(params=["loopback", "http"])
def provider(request, hospital_log, identity):
    """(service, transport, base URL) of org H, over each transport."""
    service = ProvisionerService(
        org_id="H",
        log_data=hospital_log,
        registry=ReferenceRegistry.of(identity.measurement),
        allowed_miners={"miner1"},
        push=lambda callback, envelope: {"status": "ok"},
    )
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
