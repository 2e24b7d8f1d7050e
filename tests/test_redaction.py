"""An error that leaves a session quotes no cell of the payload row it refused.

Each bad delivery is sealed like a real one and pushed while the org answers
its attestation, so the error travels the whole way: raised inside the
session, answered in an ack, re-raised by ``run()``. Neither the error's
text nor the frames it keeps alive may hold a payload cell or the org's
delivery key.
"""

import types
from dataclasses import replace
from pathlib import Path

import pytest

import confine
from confine.eventlog import LogParseError
from confine.miner import LEDGER_ENTRY_BYTES, PART_OVERHEAD_BYTES, EnclaveMemoryExceeded, MinerSession
from confine.transport import LoopbackHub
from confine.wire import (
    IntegrityError,
    SealingKey,
    Segment,
    SegmentEnvelope,
    encrypt_segment,
    parse_segment_payload,
    unwrap_key,
)

from conftest import SilentProvisioner, acks

REF = "case-secret-17"
REF2 = "case-secret-18"
ROW = b"case-secret-17,2024-01-01T10:00:00.000Z,Admission-secret,Hospital-secret\n"
ROW2 = b"case-secret-18,2024-01-01T11:00:00.000Z,Discharge-secret,Hospital-secret\n"

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
    """Announces its cases and pushes sealed envelopes while it is attested."""

    def __init__(self, refs, envelopes, push):
        super().__init__("H", refs)
        self.envelopes = envelopes
        self.push = push

    def handle_attestation(self, body):
        for envelope in self.envelopes:
            self.push(envelope)
        return super().handle_attestation(body)


def _session(identity, refs, envelopes, capacity=None) -> MinerSession:
    hub = LoopbackHub()
    kw = {} if capacity is None else {"capacity": capacity}
    session = MinerSession(providers=["loop://H"], transport=hub, callback_url="loop://miner",
                           identity=identity, **kw)
    raws = [envelope.to_dict() for envelope in envelopes]
    hub.register_provisioner("loop://H", _BadDelivery(refs, raws, session.enqueue))
    return session


def _seal(payload: bytes, refs, sealing: SealingKey, seq_no=0, total=1) -> SegmentEnvelope:
    seg = Segment(org="H", seq_no=seq_no, total=total, case_refs=tuple(refs), payload=payload)
    return encrypt_segment(seg, sealing)


def _cells(*rows: bytes) -> list[str]:
    return [cell.decode("utf-8", "ignore") for row in rows for cell in row.rstrip(b"\n").split(b",")]


# -- the failures enqueue can keep ----------------------------------------------------


def _bad_row(identity, row):
    sealing = SealingKey.for_enclave(identity.enc_pub)
    return _session(identity, [REF], [_seal(row, [REF], sealing)]), sealing.key, _cells(row)


def _tampered_tag(identity):
    sealing = SealingKey.for_enclave(identity.enc_pub)
    envelope = _seal(ROW, [REF], sealing)
    # the last 16 bytes of the ciphertext are the GCM tag
    sealed = bytearray(envelope.ciphertext)
    sealed[-16] ^= 1
    tampered = replace(envelope, ciphertext=bytes(sealed))
    return _session(identity, [REF], [tampered]), sealing.key, _cells(ROW)


def _second_wrapped_key(identity):
    # segment 0 is opened and pins the org's key; segment 1 comes under another
    first = SealingKey.for_enclave(identity.enc_pub)
    other = SealingKey.for_enclave(identity.enc_pub)
    envelopes = [_seal(ROW, [REF], first, 0, 2), _seal(ROW2, [REF2], other, 1, 2)]
    return _session(identity, [REF, REF2], envelopes), first.key, _cells(ROW, ROW2)


def _budget_overrun(identity):
    # the capacity holds the owed entries, the segment and the first case's
    # part, so the second case's part overruns in the middle of the segment
    sealing = SealingKey.for_enclave(identity.enc_pub)
    payload = ROW + ROW2
    envelope = _seal(payload, [REF, REF2], sealing)
    _events, sizes = parse_segment_payload(payload)
    capacity = (
        sum(len(ref) + len("H") + LEDGER_ENTRY_BYTES for ref in (REF, REF2))
        + len(envelope.wrapped_key) + len(envelope.ciphertext)
        + len(payload) + sizes[REF] + PART_OVERHEAD_BYTES
    )
    return _session(identity, [REF, REF2], [envelope], capacity), sealing.key, _cells(payload)


FAILURES = {
    "bad-stamp": (lambda identity: _bad_row(identity, BAD_ROWS["bad-stamp"][0]), LogParseError),
    "tampered-tag": (_tampered_tag, IntegrityError),
    "second-wrapped-key": (_second_wrapped_key, IntegrityError),
    "budget-overrun": (_budget_overrun, EnclaveMemoryExceeded),
}


# -- what the error says ------------------------------------------------------------------


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


def _audit(session: MinerSession, exc: BaseException, cells: list[str]) -> list[tuple[str, str]]:
    """Cells found in the error's texts, or in anything the session emitted.

    Case refs are public, since the ``/cases`` request names them, so only
    the error's own texts are searched for them.
    """
    emitted = [blob.decode("utf-8", "replace") for blob in session.emitted_payloads()]
    leaked = [(cell, text) for cell in cells if cell for text in _exposed(exc) if cell in text]
    return leaked + [
        (cell, text) for cell in cells if cell and cell not in (REF, REF2) for text in emitted if cell in text
    ]


@pytest.mark.parametrize("row,message", list(BAD_ROWS.values()), ids=list(BAD_ROWS))
def test_payload_error_leaving_session_quotes_no_cell(identity, row, message):
    session, _key, cells = _bad_row(identity, row)

    with pytest.raises(LogParseError) as info:
        session.run()
    assert str(info.value) == message
    assert info.value.__cause__ is None and info.value.__context__ is None
    assert acks(session) == [{"status": "error", "reason": "LogParseError"}]
    assert session.emitted[-1] == f"LogParseError: {message}".encode()
    assert not _audit(session, info.value, cells)


@pytest.mark.parametrize("kind,message", [
    ("second-wrapped-key", r"org 'H' segment 1/2 carries a different wrapped key"),
    ("budget-overrun", r"charge of \d+ bytes exceeds capacity"),
])
def test_enclave_error_leaving_session_quotes_no_cell(identity, kind, message):
    make, error = FAILURES[kind]
    session, _key, cells = make(identity)

    with pytest.raises(error, match=message) as info:
        session.run()
    assert info.value.__cause__ is None and info.value.__context__ is None
    assert acks(session)[-1] == {"status": "error", "reason": error.__name__}
    assert session.emitted[-1] == f"{error.__name__}: {info.value}".encode()
    assert not _audit(session, info.value, cells)


# -- what the error keeps alive -------------------------------------------------------------

CONFINE_DIR = Path(confine.__file__).resolve().parent
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def _confine_frames(*errors: BaseException) -> list[types.FrameType]:
    """Every frame of confine code reachable from the errors' tracebacks and chains."""
    frames, seen, todo = {}, set(), list(errors)
    while todo:
        exc = todo.pop()
        if exc is None or id(exc) in seen:
            continue
        seen.add(id(exc))
        tb = exc.__traceback__
        while tb is not None:
            frame = tb.tb_frame
            while frame is not None:
                frames[id(frame)] = frame
                frame = frame.f_back
            tb = tb.tb_next
        todo += [exc.__cause__, exc.__context__]
    return [f for f in frames.values() if Path(f.f_code.co_filename).resolve().is_relative_to(CONFINE_DIR)]


def _holds(value, texts: list[str], blobs: list[bytes], seen: set[int]) -> bool:
    """Whether ``value`` is or reaches, through containers and attributes, a needle."""
    if isinstance(value, str):
        return any(text in value for text in texts)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return any(blob in bytes(value) for blob in blobs)
    if id(value) in seen or isinstance(value, _OPAQUE):
        return False
    seen.add(id(value))
    if isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    else:
        children = list(getattr(value, "__dict__", {}).values())
        for klass in type(value).__mro__:
            children += [getattr(value, slot, None) for slot in getattr(klass, "__slots__", ())]
    return any(_holds(child, texts, blobs, seen) for child in children)


def test_walker_finds_the_key_inside_a_pinned_sealing_key(identity):
    # the enclave pins what unwrap_key returns, a slotted SealingKey; a kept
    # frame holding it must still count as holding the key
    sealing = SealingKey.for_enclave(identity.enc_pub)
    pinned = unwrap_key(sealing.wrapped, identity.enc_priv)
    assert _holds({"H": pinned}, [], [sealing.key], set())
    assert not _holds({"H": replace(pinned, key=bytes(32))}, [], [sealing.key], set())


@pytest.mark.parametrize("kind", list(FAILURES))
def test_failed_session_keeps_no_frame_with_cell_or_key(identity, kind):
    make, error = FAILURES[kind]
    session, key, cells = make(identity)

    with pytest.raises(error) as info:
        session.run()
    assert session._fatal is info.value
    frames = _confine_frames(info.value, session._fatal)
    assert frames  # run() and the stage that raised are still on the traceback
    texts = [cell for cell in cells if cell and cell not in (REF, REF2)]  # refs are public
    blobs = [key] + [cell.encode("utf-8") for cell in texts]
    holding = [
        (frame.f_code.co_name, name)
        for frame in frames
        for name, value in frame.f_locals.items()
        if _holds(value, texts, blobs, set())
    ]
    assert not holding
