"""Message schemas, case segmentation and segment encryption.

Segments carry whole cases only. The wire payload is the headerless
canonical CSV of the segment's cases; payload size is measured on exactly
those bytes. Each delivery (one attestation) is sealed under one fresh
AES-256-GCM key and a random base nonce, wrapped once for the receiving
enclave's X25519 key with HPKE base mode (RFC 9180: X25519, HKDF-SHA256,
AES-256-GCM). Segment ``i`` is sealed with nonce
``base XOR i``, and its header ``(org, seq_no, total)`` is bound as GCM
associated data, so a relabeled envelope fails authentication. Every
envelope of a delivery carries the same wrapped key; the enclave unwraps
it once and opens each segment with AES-GCM alone.
"""

from __future__ import annotations

import base64
import binascii
import csv
import functools
import io
import json
import os
import re
import sys
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime
from typing import Sequence, get_type_hints

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hpke
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .eventlog import NO_STAMPS, EventLog, LogParseError, Row, Stamps, csv_errors, format_rows, parse_timestamp

__all__ = [
    "KIB",
    "MIB",
    "DEFAULT_SEG_SIZE",
    "parse_size",
    "UnknownCaseRefsError",
    "IntegrityError",
    "EnvelopeFormatError",
    "Message",
    "Segment",
    "SegmentEnvelope",
    "case_payload",
    "segment_log",
    "parse_segment_payload",
    "SealingKey",
    "encrypt_segment",
    "unwrap_key",
    "decrypt_segment",
    "CaseRefResponse",
    "CaseRequest",
    "AttestationChallenge",
    "Ack",
    "b64u_encode",
    "b64u_decode",
    "parse_json_object",
]

KIB = 1024
MIB = 1024 * 1024
DEFAULT_SEG_SIZE = 2 * MIB

_GCM_KEY_BYTES = 32
_GCM_NONCE_BYTES = 12

# wraps a delivery's key and base nonce: a 32 B encapsulated key, the 44 B
# secret and a 16 B tag, 92 B in all
_HPKE = hpke.Suite(hpke.KEM.X25519, hpke.KDF.HKDF_SHA256, hpke.AEAD.AES_256_GCM)
_HPKE_INFO = b"confine delivery key"

_SIZE_UNITS = {
    "b": 1,
    "kb": KIB,
    "kib": KIB,
    "mb": MIB,
    "mib": MIB,
    "gb": 1024 * MIB,
    "gib": 1024 * MIB,
}


def parse_size(text: str | int) -> int:
    """Parse '2MiB', '100KB' or a bare byte count. Units are binary.

    An int is read as its digits, so it must be positive too; a bool, whose
    text is "True" or "False", is refused.
    """
    if isinstance(text, int):
        text = str(text)
    raw = text.strip().lower().replace(" ", "")
    for suffix in sorted(_SIZE_UNITS, key=len, reverse=True):
        if raw.endswith(suffix):
            number = raw[: -len(suffix)]
            break
    else:
        number, suffix = raw, "b"
    try:
        value = float(number) if "." in number else int(number)
        # a decimal past the float range reads as inf, which int() refuses
        size = int(value * _SIZE_UNITS[suffix])
    except (ValueError, OverflowError):
        raise ValueError(f"bad size {text!r}") from None
    if size <= 0:
        raise ValueError(f"size must be positive, got {text!r}")
    return size


class UnknownCaseRefsError(ValueError):
    """Requested refs that the log does not contain."""

    def __init__(self, refs: list[str]):
        self.refs = sorted(refs)
        super().__init__(f"unknown case ref(s): {', '.join(self.refs)}")


class IntegrityError(Exception):
    """Decryption failed authentication; the segment was tampered with."""


class EnvelopeFormatError(ValueError):
    """A segment envelope is missing fields or carries bad encodings."""


# ---------------------------------------------------------------------------
# payload serialization


def case_payload(ref: str, rows: Sequence[Row], stamps: Stamps = NO_STAMPS) -> bytes:
    """Headerless canonical CSV rows of one case, in the given row order.

    Stamp texts come from ``stamps`` where it holds the instant (see
    ``format_rows``).
    """
    return format_rows([(ts, ref, org, act) for ts, org, act in rows], stamps).encode("utf-8")


def parse_segment_payload(payload: bytes) -> tuple[dict[str, list[Row]], dict[str, int]]:
    """Parse headerless rows (fixed column order) into each case's rows.

    Returns per case ref its ``(timestamp, org, activity)`` rows in payload
    order, and the payload bytes they arrived in: for a payload built by
    ``segment_log`` that is ``len(case_payload(ref, rows))``. Sorting is left to
    ``merge_case``, once per case. Activity names are interned, so a merged
    case's activity sequence shares one string per distinct name. Each
    distinct stamp text is parsed once per payload.

    A plain payload is split directly; any other goes, whole, through
    csv.reader, which raises every error. An error names the payload row
    or line and quotes none of its cells, not even in a chained exception:
    it may leave the enclave.
    """
    parsed = _parse_plain_payload(payload)
    if parsed is None:
        parsed = _parse_payload_csv(payload)
    return parsed


def _read_stamp(stamp: str, read: dict[str, datetime]) -> datetime | None:
    """``parse_timestamp(stamp)``, kept in ``read`` for the rest of the
    payload, or None for a bad stamp.

    ``read`` lives for one payload only: a table shared across payloads
    would hold stamp texts the enclave budget never charges.
    """
    try:
        ts = parse_timestamp(stamp)
    except LogParseError:
        return None
    read[stamp] = ts
    return ts


def _parse_plain_payload(payload: bytes) -> tuple[dict[str, list[Row]], dict[str, int]] | None:
    """``parse_segment_payload`` of a plain payload, else None; never raises.

    A payload is plain when csv.reader would read each of its lines as one
    record of unquoted cells, split on commas alone: it holds no quote or
    carriage return, is UTF-8 and ends in a newline, and no line is longer
    than the csv field limit. Every non-blank line must also be a
    valid row: four cells, a non-empty case ref and activity, and a stamp
    ``parse_timestamp`` accepts. Anything else is left to the csv parser.
    """
    if not payload.endswith(b"\n") or b'"' in payload or b"\r" in payload:
        return None
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    if text is None:
        return None
    limit = csv.field_size_limit()
    # in ASCII text a line's characters are its bytes
    ascii_only = text.isascii()
    cases: dict[str, list[Row]] = {}
    sizes: dict[str, int] = {}
    read: dict[str, datetime] = {}
    for line in text.split("\n"):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 4 or len(line) > limit:
            return None
        case_ref, stamp, activity, org = cells
        if not case_ref or not activity:
            return None
        ts = read.get(stamp) or _read_stamp(stamp, read)
        if ts is None:
            return None
        cases.setdefault(case_ref, []).append((ts, org, sys.intern(activity)))
        size = len(line) + 1 if ascii_only else len(line.encode("utf-8")) + 1
        sizes[case_ref] = sizes.get(case_ref, 0) + size
    return cases, sizes


def _parse_payload_csv(payload: bytes) -> tuple[dict[str, list[Row]], dict[str, int]]:
    """``parse_segment_payload`` of any payload through csv.reader."""
    consumed = 0

    def lines():
        # Split on b"\n" only, as StringIO does; UTF-8 never puts that byte
        # inside a multi-byte character, so each line decodes on its own.
        nonlocal consumed
        for line_no, line in enumerate(io.BytesIO(payload), 1):
            consumed += len(line)
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError:
                text = None
            if text is None:
                raise LogParseError(f"payload line {line_no}: not UTF-8")
            yield text

    cases: dict[str, list[Row]] = {}
    sizes: dict[str, int] = {}
    read: dict[str, datetime] = {}
    row_start = 0
    # csv.reader pulls lines only until the current record is complete, so
    # after each row `consumed` ends exactly at that row's last line.
    reader = csv.reader(lines())
    with csv_errors(reader, "payload line"):
        for seq, row in enumerate(reader):
            row_bytes = consumed - row_start
            row_start = consumed
            if not row:
                continue
            if len(row) != 4:
                raise LogParseError(f"payload row {seq}: expected 4 fields, got {len(row)}")
            case_ref, stamp, activity, org = row
            ts = read.get(stamp) or _read_stamp(stamp, read)
            if ts is None:
                raise LogParseError(f"payload row {seq}: bad timestamp")
            if not case_ref:
                raise LogParseError(f"payload row {seq}: empty case reference")
            if not activity:
                raise LogParseError(f"payload row {seq}: empty activity")
            cases.setdefault(case_ref, []).append((ts, org, sys.intern(activity)))
            sizes[case_ref] = sizes.get(case_ref, 0) + row_bytes
    return cases, sizes


# ---------------------------------------------------------------------------
# segmentation


@dataclass(frozen=True, slots=True)
class Segment:
    """Plaintext transmission unit: whole cases of one org."""

    org: str
    seq_no: int
    total: int
    case_refs: tuple[str, ...]
    payload: bytes

    def __post_init__(self) -> None:
        if self.total < 1 or not 0 <= self.seq_no < self.total:
            raise ValueError(f"segment index {self.seq_no} outside 0..{self.total - 1}")
        if not self.case_refs:
            raise ValueError("segment must contain at least one case")


def segment_log(log: EventLog, refs: list[str] | set[str], seg_size: int, org: str) -> list[Segment]:
    """Pack the selected cases into segments of at most seg_size bytes.

    Cases are taken in sorted ref order and appended to the open segment
    while its payload still fits; a single case larger than seg_size gets a
    segment of its own. Cases are never split.
    """
    if seg_size < 1:
        raise ValueError(f"seg_size must be >= 1, got {seg_size}")
    wanted = sorted(set(refs))
    unknown = [r for r in wanted if r not in log.cases]
    if unknown:
        raise UnknownCaseRefsError(unknown)

    packed: list[tuple[list[str], list[bytes]]] = []
    open_refs: list[str] = []
    open_chunks: list[bytes] = []
    open_size = 0
    for ref in wanted:
        chunk = case_payload(ref, log.cases[ref], log.stamps)
        if open_refs and open_size + len(chunk) > seg_size:
            packed.append((open_refs, open_chunks))
            open_refs, open_chunks, open_size = [], [], 0
        open_refs.append(ref)
        open_chunks.append(chunk)
        open_size += len(chunk)
    if open_refs:
        packed.append((open_refs, open_chunks))

    total = len(packed)
    return [
        Segment(org=org, seq_no=i, total=total, case_refs=tuple(refs_), payload=b"".join(chunks))
        for i, (refs_, chunks) in enumerate(packed)
    ]


# ---------------------------------------------------------------------------
# message JSON codec

def b64u_encode(data: bytes) -> str:
    """Encode bytes as unpadded base64url text."""
    return base64.urlsafe_b64encode(data).decode("ascii").rstrip("=")


def b64u_decode(text: str) -> bytes:
    """Decode unpadded (or padded) base64url text; rejects foreign characters.

    A refusal's message is one of two fixed texts and quotes no input.
    """
    if not isinstance(text, str):
        raise ValueError("base64url field must be a string")
    stripped = text.rstrip("=")
    # b64decode reads "+" and "/" beside their altchars, and a str must be ASCII
    if not stripped.isascii() or "+" in stripped or "/" in stripped:
        raise ValueError("bad base64url field: invalid characters")
    try:
        # one strict C pass over the text
        return base64.b64decode(stripped + "=" * (-len(stripped) % 4), altchars=b"-_", validate=True)
    except binascii.Error:
        pass
    if len(stripped) % 4 == 1:
        raise ValueError("bad base64url field: no whole bytes are 4k+1 characters long")
    raise ValueError("bad base64url field: invalid characters")


def _no_constant(name: str):
    # json.loads reads Infinity, -Infinity and NaN, which RFC 8259 does not define
    raise ValueError(f"{name} is not a JSON value")


def parse_json_object(text: str | bytes) -> dict:
    """The JSON object in ``text``, refusing NaN and Infinity; else ValueError (JSONDecodeError for bad JSON)."""
    try:
        value = json.loads(text, parse_constant=_no_constant)
    except RecursionError:
        value = None  # nested too deeply to parse
    if not isinstance(value, dict):
        raise ValueError("not a JSON object")
    return value


_STRS = tuple[str, ...]
# the field annotations the codec reads, and what each one's JSON value must be
_EXPECTED: dict[object, str] = {
    str: "a string",
    int: "an integer",
    bytes: "base64url text",
    _STRS: "a list of strings",
    str | None: "a string",
}
_WRONG = object()  # what _read returns for a JSON value of the wrong type


def _read(kind: object, value: object) -> object:
    """The field value a JSON value holds for annotation ``kind``, or _WRONG."""
    if kind is bytes:
        try:
            return b64u_decode(value)
        except ValueError:
            return _WRONG
    if kind is int:
        # bool is an int subclass, but JSON true is no number
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind == _STRS:
        ok = isinstance(value, list) and all(isinstance(item, str) for item in value)
        return tuple(value) if ok else _WRONG
    else:  # str or str | None
        ok = isinstance(value, kind)
    return value if ok else _WRONG


@functools.cache
def _schema(cls: type) -> tuple[str, tuple[tuple[str, object, bool], ...]]:
    """A message's name in errors, and each field's name, annotation and whether it is required."""
    hints = get_type_hints(cls)
    schema = []
    for f in fields(cls):
        kind = hints[f.name]
        if kind not in _EXPECTED:
            raise TypeError(f"{cls.__name__}.{f.name}: no JSON codec for {kind!r}")
        schema.append((f.name, kind, f.default is MISSING and f.default_factory is MISSING))
    return re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower(), tuple(schema)


def _encode_message(message: Message) -> dict:
    out: dict = {}
    for name, _, _ in _schema(type(message))[1]:
        value = getattr(message, name)
        if isinstance(value, bytes):
            value = b64u_encode(value)
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None:
            out[name] = value
    return out


def _decode_message(cls: type[Message], raw: object) -> Message:
    # raised outside any except block, so no chained error holds the refused value
    name, schema = _schema(cls)
    if not isinstance(raw, dict):
        raise cls.format_error(f"bad {name}: not a JSON object")
    values = {}
    for field_name, kind, required in schema:
        if field_name in raw:
            value = _read(kind, raw[field_name])
            if value is _WRONG:
                raise cls.format_error(f"bad {name}: {field_name} must be {_EXPECTED[kind]}")
            values[field_name] = value
        elif required:
            raise cls.format_error(f"bad {name}: {field_name} is missing")
    return cls(**values)


class Message:
    """A protocol message, a dataclass whose fields are its JSON schema.

    ``to_dict`` writes the fields in field order: bytes as unpadded
    base64url, tuples as lists, and an optional field that is None not at
    all. ``from_dict`` reads each field by its annotation and refuses a
    non-object, a missing field or a wrong JSON type as ``format_error``.
    An annotation the codec has no reader for raises TypeError on first use.
    """

    __slots__ = ()
    format_error: type[ValueError] = ValueError

    to_dict = _encode_message
    from_dict = classmethod(_decode_message)


# ---------------------------------------------------------------------------
# hybrid encryption


@dataclass(frozen=True, slots=True)
class SegmentEnvelope(Message):
    """Encrypted segment as it travels to the enclave; the ciphertext ends in its 16-byte GCM tag."""

    org: str
    seq_no: int
    total: int
    wrapped_key: bytes
    ciphertext: bytes

    format_error = EnvelopeFormatError
    # bound in this class's own body, where perfbench/tracer.py patches it
    from_dict = classmethod(_decode_message)

    def __post_init__(self) -> None:
        if self.total < 1 or not 0 <= self.seq_no < self.total:
            raise EnvelopeFormatError(
                f"segment index {self.seq_no} outside 0..{self.total - 1}"
            )


@dataclass(frozen=True, slots=True)
class SealingKey:
    """One delivery's AES-256-GCM key and base nonce, wrapped for the enclave by ``for_enclave``."""

    key: bytes = field(repr=False)
    base_nonce: bytes = field(repr=False)
    wrapped: bytes

    @classmethod
    def for_enclave(cls, enc_pub: bytes) -> "SealingKey":
        """Wrap a fresh key for the enclave's raw 32-byte X25519 key; ValueError for any other key."""
        key = os.urandom(_GCM_KEY_BYTES)
        base_nonce = os.urandom(_GCM_NONCE_BYTES)
        wrapped = _HPKE.encrypt(key + base_nonce, X25519PublicKey.from_public_bytes(enc_pub), _HPKE_INFO)
        return cls(key=key, base_nonce=base_nonce, wrapped=wrapped)


def _nonce(base_nonce: bytes, seq_no: int) -> bytes:
    mask = int.from_bytes(base_nonce, "big") ^ seq_no
    return mask.to_bytes(_GCM_NONCE_BYTES, "big")


def _header_aad(org: str, seq_no: int, total: int) -> bytes:
    # the org comes last and takes the remainder, so the encoding is unambiguous
    return f"{seq_no}/{total}/{org}".encode("utf-8")


def encrypt_segment(segment: Segment, sealing: SealingKey) -> SegmentEnvelope:
    """Seal one segment under its delivery's key; the header is authenticated."""
    return SegmentEnvelope(
        org=segment.org,
        seq_no=segment.seq_no,
        total=segment.total,
        wrapped_key=sealing.wrapped,
        ciphertext=AESGCM(sealing.key).encrypt(
            _nonce(sealing.base_nonce, segment.seq_no),
            segment.payload,
            _header_aad(segment.org, segment.seq_no, segment.total),
        ),
    )


def unwrap_key(wrapped: bytes, enc_priv: X25519PrivateKey) -> SealingKey:
    """HPKE unwrap of a delivery's key and base nonce: the provider's ``SealingKey``."""
    try:
        secret = _HPKE.decrypt(wrapped, enc_priv, _HPKE_INFO)
    except InvalidTag:
        raise IntegrityError("key unwrap failed") from None
    if len(secret) != _GCM_KEY_BYTES + _GCM_NONCE_BYTES:
        raise IntegrityError("key unwrap failed: wrong secret length")
    return SealingKey(key=secret[:_GCM_KEY_BYTES], base_nonce=secret[_GCM_KEY_BYTES:], wrapped=wrapped)


def decrypt_segment(envelope: SegmentEnvelope, sealing: SealingKey) -> bytes:
    """Open an envelope with its delivery's key; any tampering raises IntegrityError."""
    try:
        return AESGCM(sealing.key).decrypt(
            _nonce(sealing.base_nonce, envelope.seq_no),
            envelope.ciphertext,
            _header_aad(envelope.org, envelope.seq_no, envelope.total),
        )
    except InvalidTag:
        raise IntegrityError(
            f"org {envelope.org!r} segment {envelope.seq_no}/{envelope.total} "
            "failed authentication"
        ) from None


# ---------------------------------------------------------------------------
# protocol messages


@dataclass(frozen=True, slots=True)
class CaseRefResponse(Message):
    org: str
    refs: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class CaseRequest(Message):
    seg_size: int
    refs: tuple[str, ...]
    callback: str


@dataclass(frozen=True, slots=True)
class AttestationChallenge(Message):
    nonce: bytes


@dataclass(frozen=True, slots=True)
class Ack(Message):
    status: str
    reason: str | None = None
