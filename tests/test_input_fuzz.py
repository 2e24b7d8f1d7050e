"""Fuzzed input: each parser and message decoder returns or raises a typed error.

A malformed log, payload or request body must end in ``LogParseError`` or
another ``ValueError``, which the miner, the provisioner and the HTTP front
end already answer as a refusal. Any other exception fails these tests.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from confine.attest import AttestationReport, ReferenceRegistry
from confine.eventlog import LogParseError, parse_csv, parse_timestamp
from confine.wire import (
    Ack,
    AttestationChallenge,
    CaseRefResponse,
    CaseRequest,
    SegmentEnvelope,
    parse_segment_payload,
)

MESSAGES = (
    CaseRefResponse,
    CaseRequest,
    AttestationChallenge,
    Ack,
    SegmentEnvelope,
    AttestationReport,
)
FIELDS = sorted({
    "org", "refs", "seg_size", "callback", "nonce", "status", "reason",
    "seq_no", "total", "wrapped_key", "ciphertext",
    "measurement", "enc_pub", "att_pub", "sig",
})

stamps = st.from_regex(
    r"-?\d{1,5}-\d{1,2}-\d{1,2}([T ]\d{1,2}:\d{2}(:\d{2}(\.\d{1,7})?)?)?([+-]\d{2}:?\d{2}|Z|z)?",
    fullmatch=True,
)
# the characters csv treats specially come up often
cells = st.one_of(st.text(st.characters() | st.sampled_from('\r\n",\x00'), max_size=12), stamps)
b64ish = st.from_regex(r"[A-Za-z0-9_-]{0,40}={0,2}", fullmatch=True)
# the JSON values RFC 8259 admits: no Infinity, no NaN
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=16) | b64ish
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=16,
)
json_objects = st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=8), json_values, max_size=8)


@given(st.one_of(st.text(), stamps))
def test_parse_timestamp_fuzz(text):
    try:
        parse_timestamp(text)
    except LogParseError:
        pass


@settings(max_examples=200)
@given(st.lists(st.lists(cells, max_size=6), max_size=6), st.sampled_from([",", "\n", "\r\n"]))
def test_parse_csv_fuzz(rows, sep):
    text = "case,timestamp,activity,org\n" + "\n".join(sep.join(row) for row in rows)
    try:
        log = parse_csv(text)
    except LogParseError:
        return
    assert log.event_count() <= len(rows)


@settings(max_examples=200)
@given(st.one_of(
    st.binary(max_size=200),
    # surrogatepass: a lone surrogate becomes the ill-formed UTF-8 a foreign peer could send
    st.lists(st.lists(cells, max_size=6), max_size=6).map(
        lambda rows: "\n".join(",".join(row) for row in rows).encode("utf-8", "surrogatepass")
    ),
))
def test_parse_segment_payload_fuzz(payload):
    try:
        cases, sizes = parse_segment_payload(payload)
    except LogParseError:  # foreign bytes too: every refusal names a row or line
        return
    assert set(cases) == set(sizes)
    assert sum(sizes.values()) <= len(payload)


@settings(max_examples=300)
@given(st.sampled_from(MESSAGES), json_objects | json_values)
def test_message_from_dict_fuzz(message, obj):
    raw = json.loads(json.dumps(obj))  # only what a JSON body can carry
    try:
        message.from_dict(raw)
    except ValueError:
        pass


@settings(max_examples=200)
@given(st.one_of(
    st.text(max_size=40),
    json_values.map(json.dumps),
    st.fixed_dictionaries({"accepted_measurements": json_values}).map(json.dumps),
))
def test_registry_from_json_fuzz(text):
    try:
        ReferenceRegistry.from_json(text)
    except ValueError:
        pass
