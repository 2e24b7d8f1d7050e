"""Size parsing, segmentation, hybrid encryption and message schemas."""

import base64
import csv
import io
import json
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass, replace
from datetime import timezone

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import example, given, settings
from hypothesis import strategies as st

import confine.eventlog
import confine.wire
from confine.attest import AttestationReport, EnclaveIdentity
from confine.eventlog import (
    EventLog,
    LogParseError,
    format_timestamp,
    parse_csv,
    parse_timestamp,
    serialize_log,
)
from confine.wire import (
    KIB,
    MIB,
    Ack,
    AttestationChallenge,
    CaseRefResponse,
    CaseRequest,
    EnvelopeFormatError,
    IntegrityError,
    Message,
    SealingKey,
    Segment,
    SegmentEnvelope,
    UnknownCaseRefsError,
    _HPKE,
    _HPKE_INFO,
    _parse_payload_csv,
    _parse_plain_payload,
    case_payload,
    decrypt_segment,
    encrypt_segment,
    parse_json_object,
    parse_segment_payload,
    parse_size,
    segment_log,
    unwrap_key,
)

from conftest import HOSPITAL_CSV, log_of


# -- size parsing -------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1024", 1024),
        ("100KB", 100 * KIB),
        ("100 KiB", 100 * KIB),
        ("1MB", MIB),
        ("2MiB", 2 * MIB),
        ("1kb", KIB),
        (4096, 4096),
        ("16B", 16),
    ],
)
def test_parse_size_binary_units(text, expected):
    assert parse_size(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "0", "-5", "tenKB", "5TB", "KB", "1.5e400", "1.e400KiB"]
    + [pytest.param(n, id=f"int{n}") for n in (0, -5)]
    + [pytest.param(b, id=f"bool-{b}") for b in (True, False)],
)
def test_parse_size_rejects(text):
    with pytest.raises(ValueError):
        parse_size(text)


# -- segmentation -------------------------------------------------------------


def _sized_log(sizes: dict[str, int]) -> EventLog:
    """Build a log whose per-case canonical payloads hit exact byte sizes."""
    base = parse_timestamp("2022-01-01T00:00")
    cases = {}
    for ref, size in sorted(sizes.items()):
        row_overhead = len(case_payload(ref, [(base, "org1", "x")]))
        pad = size - row_overhead + 1
        assert pad >= 1, f"target {size} too small"
        cases[ref] = [(base, "org1", "x" * pad)]
    log = EventLog(cases)
    for ref, size in sizes.items():
        assert len(case_payload(ref, log.cases[ref])) == size
    return log


def test_sized_log_helper_exactness():
    log = _sized_log({"c1": 800, "c2": 700, "c3": 600})
    assert [len(case_payload(r, log.cases[r])) for r in ("c1", "c2", "c3")] == [800, 700, 600]


def test_segment_log_published_packing_example():
    log = _sized_log({"c1": 800, "c2": 700, "c3": 600})
    segments = segment_log(log, log.case_refs(), 1500, "org1")
    assert [list(s.case_refs) for s in segments] == [["c1", "c2"], ["c3"]]
    assert [s.seq_no for s in segments] == [0, 1]
    assert all(s.total == 2 for s in segments)


def test_segment_log_single_segment_when_everything_fits():
    log = _sized_log({"c1": 800, "c2": 700, "c3": 600})
    segments = segment_log(log, log.case_refs(), 10_000, "org1")
    assert len(segments) == 1
    assert list(segments[0].case_refs) == ["c1", "c2", "c3"]


def test_segment_log_oversized_case_alone():
    log = _sized_log({"c1": 2000})
    segments = segment_log(log, ["c1"], 1500, "org1")
    assert len(segments) == 1
    assert len(segments[0].payload) == 2000


def test_segment_log_unknown_refs_listed():
    log = _sized_log({"c1": 300})
    with pytest.raises(UnknownCaseRefsError) as err:
        segment_log(log, ["c1", "zz", "aa"], 1500, "org1")
    assert "aa" in str(err.value) and "zz" in str(err.value)


def test_segment_log_empty_refs():
    log = _sized_log({"c1": 300})
    assert segment_log(log, [], 1500, "org1") == []


def test_segment_log_refuses_a_zero_seg_size():
    with pytest.raises(ValueError, match="seg_size must be >= 1, got 0"):
        segment_log(_sized_log({"c1": 300}), ["c1"], 0, "org1")


def _packing_oracle(sizes: list[tuple[str, int]], seg_size: int) -> list[list[str]]:
    # independent greedy first-fit simulation over sorted refs
    bins: list[list[str]] = []
    used = 0
    for ref, size in sorted(sizes):
        if not bins or (bins[-1] and used + size > seg_size):
            bins.append([ref])
            used = size
        else:
            bins[-1].append(ref)
            used += size
    return bins


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=60, max_value=900), min_size=1, max_size=12),
    st.integers(min_value=200, max_value=2500),
)
def test_segment_log_matches_packing_oracle(case_sizes, seg_size):
    sizes = {f"c{i:03d}": s for i, s in enumerate(case_sizes)}
    log = _sized_log(sizes)
    segments = segment_log(log, log.case_refs(), seg_size, "org1")
    oracle = _packing_oracle(list(sizes.items()), seg_size)
    assert [list(s.case_refs) for s in segments] == oracle
    # invariants: multi-case segments fit, cases never split, union equals log
    for seg in segments:
        if len(seg.case_refs) > 1:
            assert len(seg.payload) <= seg_size
        back, _ = parse_segment_payload(seg.payload)
        assert list(back) == sorted(seg.case_refs)
    union = [r for s in segments for r in s.case_refs]
    assert sorted(union) == log.case_refs()
    assert len(union) == len(set(union))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=60, max_value=900), min_size=1, max_size=10))
def test_segment_count_non_increasing_in_seg_size(case_sizes):
    sizes = {f"c{i:03d}": s for i, s in enumerate(case_sizes)}
    log = _sized_log(sizes)
    counts = [
        len(segment_log(log, log.case_refs(), seg, "org1"))
        for seg in (500, 1000, 2000, 4000, 8000)
    ]
    assert counts == sorted(counts, reverse=True)


def _count_format_timestamp(monkeypatch) -> list:
    calls = []
    real = confine.eventlog.format_timestamp

    def counted(ts):
        calls.append(ts)
        return real(ts)

    monkeypatch.setattr(confine.eventlog, "format_timestamp", counted)
    return calls


def test_segment_log_formats_no_stamp_a_parsed_log_read_canonical(monkeypatch):
    # a canonical stamp's text is copied from the input, never formatted again
    log = parse_csv(HOSPITAL_CSV)
    text = serialize_log(log)
    again = parse_csv(text)
    calls = _count_format_timestamp(monkeypatch)
    segments = segment_log(again, again.case_refs(), 1, "H")
    assert len(segments) > 1
    assert calls == []
    assert serialize_log(again) == text
    assert calls == []


_NON_CANONICAL_CSV = """\
case,timestamp,activity,org
c1,2022-07-14T10:36:00+02:00,PH,H
c1,2022-07-14T08:37:00.000+00:00,COPA,H
c1,2022-07-14T08:38:00.000500+00:00,"OD, late",H
c2,2022-07-14t08:39:00z,PH,H
c2,2022-07-14 08:40:00.123000Z,RD,H
c2,2022-07-14T08:41,AD,H
c2,2022-07-14T03:41:00.000001-05:00,TP,H
c3,2022-07-14T08:42:00.000Z,PH,H
c3,2022-07-14T08:42:00.000000Z,COPA,H
"""


@pytest.mark.parametrize("seg_size", [1, 200, 10_000])
def test_payloads_of_non_canonical_input_equal_those_built_without_a_table(seg_size):
    log = parse_csv(_NON_CANONICAL_CSV)
    bare = EventLog(log.cases, source_org=log.source_org)
    # only c3's first stamp is written canonically; the rest are formatted
    assert dict(log.stamps) == {parse_timestamp("2022-07-14T08:42Z"): "2022-07-14T08:42:00.000Z"}
    assert not bare.stamps
    refs = log.case_refs()
    assert segment_log(log, refs, seg_size, "H") == segment_log(bare, refs, seg_size, "H")
    assert serialize_log(log) == serialize_log(bare)
    for ref in refs:
        assert case_payload(ref, log.cases[ref], log.stamps) == case_payload(ref, bare.cases[ref])


def test_segment_payload_round_trip(hospital_log):
    segments = segment_log(hospital_log, hospital_log.case_refs(), 10_000, "H")
    assert len(segments) == 1
    back, _ = parse_segment_payload(segments[0].payload)
    assert list(back) == ["312", "711"]
    for ref in ("312", "711"):
        assert back[ref] == list(hospital_log.cases[ref])


def test_parsed_case_sizes_equal_case_payload():
    # the sizes the miner charges must equal the canonical rows of each case,
    # also where csv quoting, line breaks inside fields or UTF-8 widen a row
    stamp = parse_timestamp("2022-07-14T10:36:00.000250Z")
    log = log_of([
        ("c1", stamp, "H", "admit, triage"),
        ("c1", parse_timestamp("2022-07-14T11:00:00.000Z"), "H", 'say "ok"'),
        ("c2", stamp, "Klinik Zürich", "line one\nline two"),
        ("c2", parse_timestamp("2022-07-15T09:30:00.120Z"), "Klinik Zürich", "discharge"),
        ("c3", stamp, "München", "plain"),
    ])
    for seg_size in (1, 10_000):
        for seg in segment_log(log, log.case_refs(), seg_size, "H"):
            back, sizes = parse_segment_payload(seg.payload)
            assert sorted(sizes) == sorted(seg.case_refs)
            assert sum(sizes.values()) == len(seg.payload)
            for ref, rows in back.items():
                expected = len(case_payload(ref, log.cases[ref]))
                assert sizes[ref] == len(case_payload(ref, rows)) == expected


@pytest.mark.parametrize("activity", ["A\rB", "A\r", "\rA\r\r"])
def test_case_payload_round_trips_a_bare_carriage_return(activity):
    rows = [(parse_timestamp("2022-07-14T10:36"), "H", activity)]
    payload = case_payload("c1", rows)
    assert payload == f'c1,2022-07-14T10:36:00.000Z,"{activity}",H\n'.encode()
    cases, sizes = parse_segment_payload(payload)
    assert cases["c1"] == rows
    assert sizes == {"c1": len(payload)}


@pytest.mark.parametrize(
    "row,message",
    [
        (b"c1,2022-07-14T10:37:00.000Z,B", "payload row 2: expected 4 fields, got 3"),
        (b"c1,2022-07-14T10:37:00.000Z,B,H,x", "payload row 2: expected 4 fields, got 5"),
        (b"c1,2022-07-14T10:37:00.000Z,B\r,H", "payload line 3: new-line character"),
        (b"c1,2022-07-14T10:37:00.000Z,%s,H" % (b"x" * (csv.field_size_limit() + 1)),
         "payload line 3: field larger than field limit"),
    ],
    ids=["short-row", "long-row", "bare-carriage-return", "oversized-field"],
)
def test_bad_payload_row_is_parse_error_naming_it(row, message):
    # the blank second line is skipped but still counts as a row and a line
    payload = b"c1,2022-07-14T10:36:00.000Z,A,H\n\n" + row + b"\n"
    with pytest.raises(LogParseError, match=message):
        parse_segment_payload(payload)


def test_blank_payload_row_is_skipped():
    cases, sizes = parse_segment_payload(b"c1,2022-07-14T10:36:00.000Z,A,H\n\n")
    assert [activity for _, _, activity in cases["c1"]] == ["A"]
    assert sizes == {"c1": len(b"c1,2022-07-14T10:36:00.000Z,A,H\n")}


@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "csv"])
def test_payload_rows_share_one_string_per_activity_name(quote):
    # a merged case keeps its activity names, so equal names are one string
    row = f'2022-07-14T10:36:00.000Z,{quote}Discharge patient{quote},H\n'
    cases, _ = parse_segment_payload(f"c1,{row}c2,{row}".encode())
    (_, _, first), (_, _, second) = cases["c1"] + cases["c2"]
    assert first is second is sys.intern("Discharge patient")


def _payload_outcome(parse, payload):
    """A parse result as comparable data, or the error's type, text and context type."""
    try:
        cases, sizes = parse(payload)
    except LogParseError as exc:
        return type(exc), str(exc), type(exc.__context__)
    rows = {
        ref: [(ts, ts.tzinfo, org, activity) for ts, org, activity in part]
        for ref, part in cases.items()
    }
    return list(rows.items()), list(sizes.items())


_plain_cells = st.text("abzé ß:-.+", max_size=5)
# cells csv must quote, a NUL, which it writes unquoted, and any text at all,
# with a lone surrogate for ill-formed UTF-8
_special_cells = st.text(st.sampled_from('ab é,"\r\n\x00'), max_size=5)
_any_cells = st.text(st.characters() | st.sampled_from('"\x00\ud800'), max_size=6)
_row_stamps = st.one_of(
    st.datetimes(timezones=st.just(timezone.utc)).map(format_timestamp),
    st.builds(
        lambda ts, zone, pad: f"{pad}{ts.isoformat(timespec='minutes')}{zone}{pad}",
        st.datetimes(),
        st.sampled_from(["", "Z", "z", "+00:00", "-05:30"]),
        st.sampled_from(["", " "]),
    ),
)


def _payloads(cells, write, stamps=_row_stamps):
    rows = st.lists(st.tuples(cells, stamps, cells, cells) | st.just(()), max_size=8)
    return st.tuples(rows, st.booleans()).map(
        lambda t: write(t[0])[: None if t[1] else -1].encode("utf-8", "surrogatepass")
    )


def _joined(rows):
    return "".join(",".join(row) + "\n" for row in rows)


def _written(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@settings(max_examples=400)
@given(st.one_of(
    _payloads(_plain_cells, _joined),
    _payloads(_plain_cells | _special_cells, _written),
    _payloads(_plain_cells | _special_cells | _any_cells, _joined, _row_stamps | _any_cells),
    st.binary(max_size=200),
))
@example(b'"c1",2022-07-14T10:36:00.000Z,A,H\n')
@example(b"c1,2022-07-14T10:36:00.000Z,A\rB,H\n")
@example(b"c1,2022-07-14T10:36:00.000Z,A,H\r\n")
@example(b"c1,2022-07-14T10:36:00.000Z,A\x00B,H\n")
@example(b"\nc1,2022-07-14T10:36:00.000Z,A,H\n\nc1,2022-07-14T10:37:00.000Z,B,H\n")
@example(b"c1,2022-07-14T10:36:00.000Z,A,H")
def test_parse_segment_payload_matches_csv_parser(payload):
    assert _payload_outcome(parse_segment_payload, payload) == _payload_outcome(_parse_payload_csv, payload)


@pytest.mark.parametrize("overflow", ["none", "line", "field"])
def test_payload_near_field_limit_matches_csv_parser(overflow):
    # a line as long as csv's field limit is plain; one char more goes to csv,
    # which accepts it, and a field one char over the limit is csv's error
    limit = csv.field_size_limit()
    head = "c1,2022-07-14T10:36:00.000Z,"
    activity_len = {"none": limit - len(head) - 2, "line": limit - len(head) - 1, "field": limit + 1}[overflow]
    payload = f"{head}{'a' * activity_len},H\n".encode()
    assert _payload_outcome(parse_segment_payload, payload) == _payload_outcome(_parse_payload_csv, payload)


def test_plain_payloads_use_no_csv_reader_or_writer(hospital_log, monkeypatch):
    # a change that always falls back to csv fails here, not only in the bench
    def refuse(*args, **kwargs):
        raise AssertionError("csv used on a plain payload")

    monkeypatch.setattr(csv, "reader", refuse)
    monkeypatch.setattr(csv, "writer", refuse)
    for seg_size in (1, 10_000):
        for seg in segment_log(hospital_log, hospital_log.case_refs(), seg_size, "H"):
            cases, sizes = parse_segment_payload(seg.payload)
            assert list(cases) == list(seg.case_refs)
            assert sum(sizes.values()) == len(seg.payload)


_plain_text = st.text("ab:.-+ ", min_size=1, max_size=4)
_wide_text = st.text("ab:.-+ éßΩ١", min_size=1, max_size=4)
# a stamp kept to the millisecond is written with three digits, any other with six
_pool_stamps = st.builds(
    lambda ts, to_ms: format_timestamp(ts.replace(microsecond=ts.microsecond // 1000 * 1000) if to_ms else ts),
    st.datetimes(timezones=st.just(timezone.utc)),
    st.booleans(),
) | _row_stamps


@st.composite
def _plain_payloads(draw):
    """A payload the plain path reads, with per-case byte sizes worked out from its lines."""
    cell = _wide_text if draw(st.booleans()) else _plain_text
    refs = draw(st.lists(cell, min_size=1, max_size=3, unique=True))
    stamps = draw(st.lists(_pool_stamps, min_size=1, max_size=4))
    lines, sizes = [], {}
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        ref = draw(st.sampled_from(refs))
        line = ",".join([ref, draw(st.sampled_from(stamps)), draw(cell), draw(st.just("") | cell)])
        lines.append(line + "\n" + ("\n" if draw(st.booleans()) else ""))
        sizes[ref] = sizes.get(ref, 0) + len(line.encode("utf-8")) + 1
    return "".join(lines).encode("utf-8"), sizes


@settings(max_examples=300)
@given(_plain_payloads())
def test_plain_payload_parse_equals_csv_parse(drawn):
    # the same rows in the same order and the same sizes, ASCII or not
    payload, sizes = drawn
    plain = _parse_plain_payload(payload)
    assert plain is not None
    assert plain[1] == sizes
    assert _payload_outcome(lambda _: plain, payload) == _payload_outcome(_parse_payload_csv, payload)


@pytest.mark.parametrize("parse", [parse_segment_payload, _parse_payload_csv], ids=["plain", "csv"])
def test_each_distinct_stamp_is_parsed_once_per_payload(parse, monkeypatch):
    stamps = ["2022-07-14T10:36:00.000Z", "2022-07-14T10:36:00.000250Z", "2022-07-14T10:37"]
    rows = [f"c{i % 3},{stamps[i % 3 if i < 6 else 0]},A{i},H\n" for i in range(9)]
    payload = "".join(rows).encode()
    calls = Counter()
    real = confine.wire.parse_timestamp

    def counted(text):
        calls[text] += 1
        return real(text)

    monkeypatch.setattr(confine.wire, "parse_timestamp", counted)
    cases, _ = parse(payload)
    assert sum(len(part) for part in cases.values()) == 9
    assert calls == Counter(stamps)
    # what one payload parsed is not kept for the next
    parse(payload)
    assert calls == Counter(stamps * 2)


# -- encryption ---------------------------------------------------------------


def _seal(seg, identity):
    return encrypt_segment(seg, SealingKey.for_enclave(identity.enc_pub))


def _open(env, identity):
    return decrypt_segment(env, unwrap_key(env.wrapped_key, identity.enc_priv))


def test_encrypt_decrypt_round_trip(identity, hospital_log):
    seg = segment_log(hospital_log, hospital_log.case_refs(), 10_000, "H")[0]
    env = _seal(seg, identity)
    assert env.org == "H" and env.seq_no == 0 and env.total == 1
    assert _open(env, identity) == seg.payload


def test_fresh_key_per_delivery_distinct_nonce_and_ciphertext_per_segment(identity, hospital_log):
    seg = segment_log(hospital_log, hospital_log.case_refs(), 10_000, "H")[0]
    first, second = (SealingKey.for_enclave(identity.enc_pub) for _ in range(2))
    assert first.wrapped != second.wrapped and first.key != second.key
    assert encrypt_segment(seg, first).ciphertext != encrypt_segment(seg, second).ciphertext
    # one delivery: the same payload at every index, so only the nonce differs
    total = 8
    envs = [encrypt_segment(replace(seg, seq_no=i, total=total), first) for i in range(total)]
    assert {env.wrapped_key for env in envs} == {first.wrapped}
    assert len({env.ciphertext for env in envs}) == total
    assert all(decrypt_segment(env, first) == seg.payload for env in envs)


def test_unwrapped_key_is_the_providers_key(identity):
    sealing = SealingKey.for_enclave(identity.enc_pub)
    assert unwrap_key(sealing.wrapped, identity.enc_priv) == sealing


def test_sealing_key_refuses_a_non_x25519_enclave_key():
    ec_pub = ec.generate_private_key(ec.SECP256R1()).public_key().public_bytes(
        serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
    )
    with pytest.raises(ValueError, match="X25519 public key is 32 bytes"):
        SealingKey.for_enclave(ec_pub)
    # 32 bytes, but a low-order point whose shared secret would be all zeros
    with pytest.raises(ValueError):
        SealingKey.for_enclave(bytes(32))


def test_wrapped_secret_of_wrong_length_is_integrity_error(identity):
    # a genuine HPKE wrap whose secret is a bare 32-byte key, no base nonce
    wrapped = _HPKE.encrypt(b"\x00" * 32, identity.enc_priv.public_key(), _HPKE_INFO)
    with pytest.raises(IntegrityError, match="^key unwrap failed: wrong secret length$"):
        unwrap_key(wrapped, identity.enc_priv)


def test_wrapped_key_is_92_bytes_and_any_other_wrap_fails_alike(identity):
    # a 32 B encapsulated key, the 44 B key and base nonce, a 16 B tag
    wrapped = SealingKey.for_enclave(identity.enc_pub).wrapped
    assert len(wrapped) == 92
    other_info = _HPKE.encrypt(b"\x00" * 44, identity.enc_priv.public_key(), b"another label")
    for bad in (b"", wrapped[:32], wrapped[:-1], bytes(92), other_info):
        with pytest.raises(IntegrityError, match="^key unwrap failed$") as exc:
            unwrap_key(bad, identity.enc_priv)
        assert exc.value.__cause__ is None and exc.value.__suppress_context__


@pytest.mark.parametrize("field,value", [("seq_no", 1), ("org", "P"), ("total", 21)])
def test_relabeled_header_is_integrity_error(identity, hospital_log, field, value):
    seg = replace(segment_log(hospital_log, hospital_log.case_refs(), 10_000, "H")[0], total=20)
    env = _seal(seg, identity)
    assert _open(env, identity) == seg.payload
    with pytest.raises(IntegrityError, match="failed authentication"):
        _open(replace(env, **{field: value}), identity)


def test_decrypt_tampered_tag_is_integrity_error(identity, hospital_log):
    seg = segment_log(hospital_log, hospital_log.case_refs(), 10_000, "H")[0]
    env = _seal(seg, identity)
    # the ciphertext ends in the 16-byte GCM tag
    tag = bytes(b ^ 1 for b in env.ciphertext[-16:])
    with pytest.raises(IntegrityError):
        _open(replace(env, ciphertext=env.ciphertext[:-16] + tag), identity)


def test_decrypt_bit_flipped_ciphertext_is_integrity_error(identity, hospital_log):
    rng = random.Random(7)
    seg = segment_log(hospital_log, hospital_log.case_refs(), 10_000, "H")[0]
    env = _seal(seg, identity)
    for _ in range(20):
        ct = bytearray(env.ciphertext)
        ct[rng.randrange(len(ct))] ^= 1 << rng.randrange(8)
        with pytest.raises(IntegrityError):
            _open(replace(env, ciphertext=bytes(ct)), identity)


def test_decrypt_wrong_private_key_fails(identity, hospital_log):
    other = EnclaveIdentity.generate()
    seg = segment_log(hospital_log, hospital_log.case_refs(), 10_000, "H")[0]
    env = _seal(seg, identity)
    with pytest.raises(IntegrityError):
        _open(env, other)


def test_envelope_dict_round_trip(identity, hospital_log):
    seg = segment_log(hospital_log, hospital_log.case_refs(), 10_000, "H")[0]
    env = _seal(seg, identity)
    assert SegmentEnvelope.from_dict(env.to_dict()) == env


def test_envelope_truncated_is_format_error(identity, hospital_log):
    seg = segment_log(hospital_log, hospital_log.case_refs(), 10_000, "H")[0]
    raw = _seal(seg, identity).to_dict()
    del raw["ciphertext"]
    with pytest.raises(EnvelopeFormatError):
        SegmentEnvelope.from_dict(raw)
    with pytest.raises(EnvelopeFormatError):
        SegmentEnvelope.from_dict({**raw, "ciphertext": "!!! not base64url !!!"})


def test_envelope_seq_no_bounds():
    with pytest.raises(ValueError):
        SegmentEnvelope(
            org="H",
            seq_no=2,
            total=2,
            wrapped_key=b"k",
            ciphertext=b"c" * 17,
        )
    with pytest.raises(ValueError, match="at least one case"):
        Segment(org="H", seq_no=0, total=1, case_refs=(), payload=b"x")
    for seq_no, total in [(-1, 2), (2, 2), (0, 0)]:
        with pytest.raises(ValueError, match="segment index"):
            Segment(org="H", seq_no=seq_no, total=total, case_refs=("312",), payload=b"x")


# -- message schemas ----------------------------------------------------------


def test_message_round_trips():
    msgs = [
        (CaseRefResponse, CaseRefResponse(org="H", refs=("312", "711"))),
        (CaseRequest, CaseRequest(seg_size=1500, refs=("312",), callback="http://x/seg")),
        (AttestationChallenge, AttestationChallenge(nonce=b"n" * 16)),
        (Ack, Ack(status="trusted")),
        (Ack, Ack(status="rejected", reason="stale_nonce")),
    ]
    for cls, msg in msgs:
        assert cls.from_dict(msg.to_dict()) == msg


def test_case_request_validation():
    with pytest.raises(ValueError):
        CaseRequest.from_dict({"refs": ["1"], "callback": "x"})


def test_case_request_refs_must_be_a_list():
    # a string would otherwise be taken as one case per character
    with pytest.raises(ValueError, match="bad case request"):
        CaseRequest.from_dict({"seg_size": 10, "refs": "312", "callback": "x"})


@pytest.mark.parametrize("raw", [
    {"seg_size": True, "refs": ["312"], "callback": "x"},
    {"seg_size": 2.9, "refs": ["312"], "callback": "x"},
    {"seg_size": "10", "refs": ["312"], "callback": "x"},
    {"seg_size": 10, "refs": [312], "callback": "x"},
    {"seg_size": 10, "refs": ["312"], "callback": None},
    {"seg_size": 10, "refs": ["312"]},
], ids=["bool-size", "float-size", "text-size", "int-ref", "null-callback", "no-callback"])
def test_case_request_rejects_wrong_json_types(raw):
    with pytest.raises(ValueError, match="bad case request"):
        CaseRequest.from_dict(raw)


@pytest.mark.parametrize("raw", [
    {"status": ["trusted"]},
    {"status": None},
    {},
    {"status": "rejected", "reason": {"text": "x"}},
    {"status": "rejected", "reason": 7},
], ids=["list-status", "null-status", "no-status", "object-reason", "int-reason"])
def test_ack_rejects_wrong_json_types(raw):
    with pytest.raises(ValueError, match="bad ack"):
        Ack.from_dict(raw)


def test_ack_reason_omitted_when_absent():
    assert "reason" not in Ack(status="trusted").to_dict()


# One valid instance of each message, and its JSON as the hand-written
# encoders wrote it before the shared codec replaced them.
GOLDEN = [
    (CaseRefResponse(org="H", refs=("312", "711")), '{"org": "H", "refs": ["312", "711"]}'),
    (
        CaseRequest(seg_size=1500, refs=("312",), callback="http://127.0.0.1:9/segments"),
        '{"seg_size": 1500, "refs": ["312"], "callback": "http://127.0.0.1:9/segments"}',
    ),
    (AttestationChallenge(nonce=bytes(range(16))), '{"nonce": "AAECAwQFBgcICQoLDA0ODw"}'),
    (Ack(status="trusted"), '{"status": "trusted"}'),
    (Ack(status="rejected", reason="stale_nonce"), '{"status": "rejected", "reason": "stale_nonce"}'),
    (
        SegmentEnvelope(org="H", seq_no=1, total=3, wrapped_key=b"\xfb\xff" * 3,
                        ciphertext=b"payload\x00\xff" + bytes(range(240, 256))),
        '{"org": "H", "seq_no": 1, "total": 3, "wrapped_key": "-__7__v_", '
        '"ciphertext": "cGF5bG9hZAD_8PHy8_T19vf4-fr7_P3-_w"}',
    ),
    (
        AttestationReport(measurement=bytes(32), nonce=bytes(range(16)), enc_pub=b"\xfe\xed",
                          att_pub=b"\xbe\xef\xff", sig=b"s" * 5),
        '{"measurement": "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
        '"nonce": "AAECAwQFBgcICQoLDA0ODw", "enc_pub": "_u0", "att_pub": "vu__", "sig": "c3Nzc3M"}',
    ),
]


@pytest.mark.parametrize("msg,text", GOLDEN, ids=[type(m).__name__ for m, _ in GOLDEN])
def test_message_json_is_unchanged(msg, text):
    assert json.dumps(msg.to_dict()) == text
    assert type(msg).from_dict(json.loads(text)) == msg


ENVELOPE = next(json.loads(text) for msg, text in GOLDEN if isinstance(msg, SegmentEnvelope))


@pytest.mark.parametrize("field,value", [
    ("org", ["H"]),
    ("seq_no", 0.5),
    ("seq_no", "0"),
    ("total", True),
], ids=["list-org", "float-seq-no", "text-seq-no", "bool-total"])
def test_envelope_rejects_wrong_json_types(field, value):
    with pytest.raises(EnvelopeFormatError, match=f"bad segment envelope: {field} must be") as info:
        SegmentEnvelope.from_dict({**ENVELOPE, field: value})
    assert info.value.__cause__ is None and info.value.__context__ is None


@pytest.mark.parametrize("cls", sorted({type(msg) for msg, _ in GOLDEN}, key=lambda c: c.__name__),
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("raw", [[], "x", None, 7], ids=["list", "string", "null", "number"])
def test_message_non_object_is_its_own_error(cls, raw):
    with pytest.raises(ValueError, match="not a JSON object") as info:
        cls.from_dict(raw)
    assert type(info.value) is (EnvelopeFormatError if cls is SegmentEnvelope else ValueError)


def test_parse_json_object_reads_an_object():
    assert parse_json_object(b'{"a": [1, {"b": null}]}') == {"a": [1, {"b": None}]}


@pytest.mark.parametrize(
    "text, message",
    [
        ("{A: H}", "Expecting property name"),
        ('{"x": NaN}', "NaN is not a JSON value"),
        ("[-Infinity]", "-Infinity is not a JSON value"),
        ("[" * 200_000, "not a JSON object"),
        ('["x"]', "not a JSON object"),
        (b"\xff{}", "can't decode byte 0xff"),
    ],
    ids=["syntax", "nan", "infinity", "deep", "list", "not-utf8"],
)
def test_parse_json_object_refuses(text, message):
    with pytest.raises(ValueError, match=message) as info:
        parse_json_object(text)
    # only text that is not JSON at all is a JSONDecodeError
    assert isinstance(info.value, json.JSONDecodeError) == (text == "{A: H}")


def test_message_field_without_a_codec_fails_on_first_use():
    @dataclass(frozen=True)
    class Reading(Message):
        value: float

    with pytest.raises(TypeError, match="no JSON codec"):
        Reading(0.5).to_dict()
    with pytest.raises(TypeError, match="no JSON codec"):
        Reading.from_dict({"value": 0.5})


def test_message_schema_is_worked_out_once(monkeypatch):
    Ack.from_dict({"status": "ok"})

    def fail(cls):
        raise AssertionError(f"type hints of {cls.__name__} read again")

    monkeypatch.setattr("confine.wire.get_type_hints", fail)
    assert Ack.from_dict({"status": "ok"}) == Ack(status="ok")
    assert Ack(status="ok").to_dict() == {"status": "ok"}


@given(st.binary(max_size=200))
def test_b64u_round_trip(data):
    from confine.wire import b64u_decode, b64u_encode

    encoded = b64u_encode(data)
    assert "=" not in encoded
    assert b64u_decode(encoded) == data


@pytest.mark.parametrize(
    "text", ["abé", "١٢", "ab c", "a+b/"], ids=["latin", "arabic-digits", "space", "std-alphabet"]
)
def test_b64u_rejects_foreign_characters(text):
    from confine.wire import b64u_decode

    with pytest.raises(ValueError, match="invalid characters"):
        b64u_decode(text)


def test_b64u_rejects_a_length_of_one_more_than_a_multiple_of_four():
    from confine.wire import b64u_decode

    # no base64 text of 4k+1 characters encodes whole bytes
    with pytest.raises(ValueError, match="^bad base64url field: "):
        b64u_decode("abcde")


# the reference: the decoder as it was, a regex scan before a lenient decode
_B64U_REFERENCE_CHARS = re.compile(r"[A-Za-z0-9_-]*")


def _reference_b64u_decode(text):
    stripped = text.rstrip("=")
    if not _B64U_REFERENCE_CHARS.fullmatch(stripped):
        return None
    try:
        return base64.urlsafe_b64decode(stripped + "=" * (-len(stripped) % 4))
    except ValueError:
        return None


_B64U_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
_B64U_REFUSALS = {
    "bad base64url field: invalid characters",
    "bad base64url field: no whole bytes are 4k+1 characters long",
}


# b64u_decode validates in binascii's one strict pass, where the reference
# scans with a regex first; both must accept and refuse the same texts.
@settings(max_examples=500)
@given(st.one_of(
    st.text(st.sampled_from(_B64U_ALPHABET + "+/= \t\né١\u00a0"), max_size=14),
    st.text(st.sampled_from(_B64U_ALPHABET + "="), max_size=14),
    st.integers(min_value=0, max_value=8).flatmap(
        lambda k: st.text(st.sampled_from(_B64U_ALPHABET), min_size=4 * k + 1, max_size=4 * k + 1)
    ),
    st.builds(
        lambda data, pad: base64.urlsafe_b64encode(data).decode().rstrip("=") + "=" * pad,
        st.binary(max_size=40),
        st.integers(min_value=0, max_value=3),
    ),
))
def test_b64u_decode_accepts_what_the_reference_accepts(text):
    from confine.wire import b64u_decode

    expected = _reference_b64u_decode(text)
    if expected is not None:
        assert b64u_decode(text) == expected
        return
    with pytest.raises(ValueError) as err:
        b64u_decode(text)
    # a fixed text, so it quotes nothing of the input, and nothing chained does
    assert str(err.value) in _B64U_REFUSALS
    assert err.value.__cause__ is None and err.value.__context__ is None
