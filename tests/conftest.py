"""Shared fixtures: the two-case healthcare ground truth and a cached identity.

The three per-org CSVs reproduce the published two-patient example: the
hospital records 19 events across cases 312 and 711, the pharmaceutical
company 6 and the specialized clinic 5 (case 312 only).
"""

import http.client
import json
import os
import socket
import urllib.parse

import pytest

from confine.attest import EnclaveIdentity
from confine.eventlog import EventLog, parse_csv
from confine.miner import LEDGER_ENTRY_BYTES, MinerSession
from confine.wire import (
    Ack,
    AttestationChallenge,
    CaseRefResponse,
    SealingKey,
    case_payload,
    encrypt_segment,
    parse_segment_payload,
    segment_log,
)

HOSPITAL_CSV = """\
case,timestamp,activity,org
312,2022-07-14T10:36,PH,H
312,2022-07-14T16:36,COPA,H
711,2022-07-14T17:21,PH,H
312,2022-07-14T17:36,OD,H
711,2022-07-14T23:21,COPA,H
711,2022-07-15T00:21,OD,H
711,2022-07-15T18:55,RD,H
312,2022-07-15T19:06,RD,H
711,2022-07-15T20:55,AD,H
312,2022-07-15T21:06,AD,H
312,2022-07-15T22:06,TP,H
711,2022-07-16T00:55,PRTA,H
711,2022-07-16T01:55,PCD,H
711,2022-07-16T02:55,DPH,H
711,2022-07-16T04:55,DP,H
312,2022-07-16T07:06,RPB,H
312,2022-07-16T09:06,DPH,H
312,2022-07-16T10:06,PCD,H
312,2022-07-16T11:06,DP,H
"""

PHARMA_CSV = """\
case,timestamp,activity,org
312,2022-07-15T09:06,DOR,P
711,2022-07-15T09:30,DOR,P
312,2022-07-15T11:06,PDL,P
711,2022-07-15T11:30,PDL,P
312,2022-07-15T13:06,SD,P
711,2022-07-15T13:30,SD,P
"""

CLINIC_CSV = """\
case,timestamp,activity,org
312,2022-07-16T00:06,PAFH,C
312,2022-07-16T01:06,PIA,C
312,2022-07-16T03:06,PT,C
312,2022-07-16T04:06,VRT,C
312,2022-07-16T05:06,TPB,C
"""

T_312 = (
    "PH", "COPA", "OD", "DOR", "PDL", "SD", "RD", "AD", "TP", "PAFH",
    "PIA", "PT", "VRT", "TPB", "RPB", "DPH", "PCD", "DP",
)
T_711 = (
    "PH", "COPA", "OD", "DOR", "PDL", "SD", "RD", "AD", "PRTA", "PCD", "DPH", "DP",
)


def http_request(method: str, url: str, body: bytes | None = None) -> tuple[int, bytes]:
    """One raw HTTP exchange with a local test server: (status, body)."""
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)
    try:
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, parts.path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class SilentProvisioner:
    """Announces cases, passes attestation, then never delivers anything."""

    def __init__(self, org, refs):
        self.org = org
        self.refs = tuple(refs)

    def serve_case_refs(self, miner_id):
        return CaseRefResponse(org=self.org, refs=self.refs).to_dict()

    def handle_case_request(self, body):
        return AttestationChallenge(nonce=os.urandom(16)).to_dict()

    def handle_attestation(self, body):
        return Ack(status="trusted").to_dict()


def log_of(records) -> EventLog:
    """A log of ``(case_ref, timestamp, org, activity)`` records, grouped by case."""
    cases: dict[str, list] = {}
    for ref, *row in records:
        cases.setdefault(ref, []).append(tuple(row))
    return EventLog(cases)


def activities(rows) -> tuple[str, ...]:
    """A case's activity sequence, read from its rows in their order."""
    return tuple(activity for _, _, activity in rows)


def enclave_rows(ref: str, rows) -> list:
    """A case's rows as the enclave parses them from the case's payload."""
    cases, _ = parse_segment_payload(case_payload(ref, rows))
    return cases[ref]


def sealed_envelopes(log_data: EventLog, refs, org: str, identity, seg_size: int = 10**6) -> list[dict]:
    """The org's segments of ``refs``, sealed under one key as its delivery pushes them."""
    sealing = SealingKey.for_enclave(identity.enc_pub)
    return [encrypt_segment(seg, sealing).to_dict() for seg in segment_log(log_data, refs, seg_size, org)]


def acks(session: MinerSession) -> list[dict]:
    """The ack bodies among a session's emitted messages, in order."""
    messages = [json.loads(blob) for blob in session.emitted if blob.startswith(b"{")]
    return [message for message in messages if "status" in message]


def held_bytes(session: MinerSession) -> int:
    """What the session's tables account for: owed entries, held parts, merged cases, statistics."""
    return session._eligible_charged + session._stats_charged + sum(
        case.charged + sum(len(ref) + len(org) + LEDGER_ENTRY_BYTES for org in case.owed)
        for ref, case in session._waiting.items()
    )


@pytest.fixture(scope="session")
def hospital_log() -> EventLog:
    return parse_csv(HOSPITAL_CSV, source_org="H")


@pytest.fixture(scope="session")
def pharma_log() -> EventLog:
    return parse_csv(PHARMA_CSV, source_org="P")


@pytest.fixture(scope="session")
def clinic_log() -> EventLog:
    return parse_csv(CLINIC_CSV, source_org="C")


@pytest.fixture(scope="session")
def merged_log(hospital_log, pharma_log, clinic_log) -> EventLog:
    subs = (hospital_log, pharma_log, clinic_log)
    return log_of((ref, *row) for sub in subs for ref, rows in sub.cases.items() for row in rows)


@pytest.fixture(scope="session")
def identity() -> EnclaveIdentity:
    return EnclaveIdentity.generate()


@pytest.fixture()
def held_port():
    """A loopback port on which another socket is listening."""
    with socket.create_server(("127.0.0.1", 0)) as sock:
        yield sock.getsockname()[1]
