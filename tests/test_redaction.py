"""An error that leaves a session quotes no cell of the payload row it refused.

Each bad row is sealed like a real delivery and pushed while the org answers
its attestation, so the error travels the whole way: parsed inside the
session, answered in an ack, re-raised by ``run()``.
"""

import pytest

from confine.eventlog import LogParseError
from confine.miner import MinerSession
from confine.transport import LoopbackHub
from confine.wire import SealingKey, Segment, encrypt_segment

from conftest import SilentProvisioner

REF = "case-secret-17"

BAD_ROWS = {
    "bad-utf8": (
        b"case-secret-17,2024-01-01T10:00:00.000Z,Admission-secret\xed,Hospital-secret\n",
        "payload line 1: not UTF-8",
    ),
    "bad-stamp": (
        b"case-secret-17,2024-01-01T25:61:00.000Z,Admission-secret,Hospital-secret\n",
        "payload row 0: bad timestamp",
    ),
    "short-row": (
        b"case-secret-17,2024-01-01T10:00:00.000Z,Admission-secret\n",
        "payload row 0: expected 4 fields, got 3",
    ),
    "empty-activity": (
        b"case-secret-17,2024-01-01T10:00:00.000Z,,Hospital-secret\n",
        "payload row 0: empty activity",
    ),
}


class _BadDelivery(SilentProvisioner):
    """Announces one case and pushes a sealed envelope while it is attested."""

    def __init__(self, envelope, push):
        super().__init__("H", [REF])
        self.envelope = envelope
        self.push = push

    def handle_attestation(self, body):
        self.push(self.envelope)
        return super().handle_attestation(body)


def _exposed(exc: BaseException) -> list[str]:
    """Every text an exception carries: str, repr, args, .object, whole chain."""
    texts, todo = [], [exc]
    while todo:
        e = todo.pop()
        if e is None:
            continue
        texts += [str(e), repr(e), repr(e.args)]
        if getattr(e, "object", None) is not None:
            texts.append(repr(e.object))
        todo += [e.__cause__, e.__context__]
    return texts


@pytest.mark.parametrize("row,message", list(BAD_ROWS.values()), ids=list(BAD_ROWS))
def test_payload_error_leaving_session_quotes_no_cell(identity, row, message):
    seg = Segment(org="H", seq_no=0, total=1, case_refs=(REF,), payload=row)
    envelope = encrypt_segment(seg, SealingKey.for_enclave(identity.enc_pub_der)).to_dict()
    hub = LoopbackHub()
    session = MinerSession(providers=["loop://H"], transport=hub, callback_url="loop://miner", identity=identity)
    hub.register_provisioner("loop://H", _BadDelivery(envelope, session.enqueue))

    with pytest.raises(LogParseError) as info:
        session.run()
    assert str(info.value) == message
    assert info.value.__cause__ is None and info.value.__context__ is None
    assert session.receiver_acks == ['{"reason": "LogParseError", "status": "error"}']

    cells = [cell.decode("utf-8", "ignore") for cell in row.rstrip(b"\n").split(b",")]
    texts = _exposed(info.value) + session.receiver_acks
    leaked = [(cell, text) for cell in cells if cell for text in texts if cell in text]
    assert not leaked
