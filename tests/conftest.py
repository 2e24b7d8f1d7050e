"""Shared fixtures: the two-case healthcare ground truth and a cached identity.

The three per-org CSVs reproduce the published two-patient example: the
hospital records 19 events across cases 312 and 711, the pharmaceutical
company 6 and the specialized clinic 5 (case 312 only).
"""

import http.client
import urllib.parse

import pytest

from confine.attest import EnclaveIdentity
from confine.eventlog import EventLog, parse_csv

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
    events = hospital_log.events() + pharma_log.events() + clinic_log.events()
    return EventLog.from_events(events)


@pytest.fixture(scope="session")
def identity() -> EnclaveIdentity:
    # One RSA identity for the whole test session; generation dominates
    # otherwise.
    return EnclaveIdentity.generate()
