"""Miner session tests: budget accounting, staged runs, delivery edge cases."""

import csv
import gc
import itertools
import json
import random
import socket
import sys
import threading
import time
import tracemalloc
import urllib.parse
from dataclasses import replace

import pytest

from confine.attest import ReferenceRegistry
from confine.eventlog import LogParseError, parse_timestamp, partition_by_org
from confine.harness import ScenarioParams, generate_scenario_log, standalone_net
from confine.hminer import serialize_net
from confine.miner import (
    AttestationRejectedError,
    BudgetAccountingError,
    DeliveryError,
    EnclaveBudget,
    EnclaveMemoryExceeded,
    IncompleteDeliveryError,
    InitializationError,
    LEDGER_ENTRY_BYTES,
    MinerReceiver,
    MinerSession,
    STAGES,
)
from confine.provisioner import ProvisionerServer, ProvisionerService
from confine.transport import HttpTransport, LoopbackHub, TransportError, _JsonHandler
from confine.wire import (
    KIB,
    EnvelopeFormatError,
    IntegrityError,
    SealingKey,
    SegmentEnvelope,
    b64u_encode,
    encrypt_segment,
    segment_log,
    unwrap_key,
)

from conftest import SilentProvisioner, acks, held_bytes, http_request, log_of


# ---------------------------------------------------------------------------
# enclave budget


def test_budget_tracks_in_use_and_peak():
    b = EnclaveBudget(capacity=100)
    b.charge(40)
    b.charge(30)
    assert b.in_use == 70
    assert b.peak == 70
    b.release(50)
    assert b.in_use == 20
    assert b.peak == 70
    b.charge(10)
    assert b.peak == 70  # 30 < old peak


def test_budget_over_capacity_leaves_state_untouched():
    b = EnclaveBudget(capacity=100)
    b.charge(90)
    with pytest.raises(EnclaveMemoryExceeded):
        b.charge(11)
    assert b.in_use == 90
    assert b.peak == 90
    b.charge(10)  # exactly at capacity is fine
    assert b.in_use == 100


def test_budget_negative_charge_rejected():
    b = EnclaveBudget(capacity=100)
    with pytest.raises(BudgetAccountingError):
        b.charge(-1)


def test_budget_negative_release_rejected():
    b = EnclaveBudget(capacity=100)
    with pytest.raises(BudgetAccountingError):
        b.release(-1)


def test_budget_release_below_zero_rejected():
    b = EnclaveBudget(capacity=100)
    b.charge(10)
    with pytest.raises(BudgetAccountingError):
        b.release(11)
    assert b.in_use == 10


# ---------------------------------------------------------------------------
# loopback wiring helpers


def _setup(logs, identity, *, registry=None, miner_id="miner1", **kw):
    """Three-line protocol bench: provisioners and a miner on one hub."""
    hub = LoopbackHub()
    registry = registry or ReferenceRegistry.of(identity.measurement)
    for org, log_data in logs.items():
        svc = ProvisionerService(
            org_id=org,
            log_data=log_data,
            registry=registry,
            allowed_miners={"*"},
            push=hub.push_segment,
        )
        hub.register_provisioner(f"loop://{org}", svc)
    session = MinerSession(
        providers=[f"loop://{org}" for org in sorted(logs)],
        transport=hub,
        callback_url="loop://miner",
        identity=identity,
        miner_id=miner_id,
        **kw,
    )
    hub.register_receiver("loop://miner", session.enqueue)
    return hub, session


def _org_logs(hospital_log, pharma_log, clinic_log):
    return {"H": hospital_log, "P": pharma_log, "C": clinic_log}


# ---------------------------------------------------------------------------
# constructor validation


@pytest.mark.parametrize(
    "kw",
    [
        {"mode": "bulk"},
        {"mode": "incremental", "batch_cases": 0},
        {"seg_size": 0},
    ],
)
def test_session_rejects_bad_parameters(identity, kw):
    with pytest.raises(ValueError):
        MinerSession(providers=[], transport=LoopbackHub(), callback_url="loop://m",
                     identity=identity, **kw)


# ---------------------------------------------------------------------------
# stage 1: initialization


def test_initialization_builds_ledger(hospital_log, pharma_log, clinic_log, identity):
    _, session = _setup(_org_logs(hospital_log, pharma_log, clinic_log), identity)
    session.run_initialization()
    owed = {ref: case.owed for ref, case in session._waiting.items()}
    assert owed == {"312": {"H", "P", "C"}, "711": {"H", "P"}}
    assert not any(case.parts for case in session._waiting.values())
    # one entry per owed (case, org) pair is charged, and nothing else yet
    assert session.budget.in_use == held_bytes(session) == 5 * (3 + 1 + LEDGER_ENTRY_BYTES)


def test_initialization_unreachable_provider(hospital_log, identity):
    hub, session = _setup({"H": hospital_log}, identity)
    session.providers.append("loop://nowhere")
    with pytest.raises(InitializationError, match="loop://nowhere"):
        session.run_initialization()


def test_initialization_duplicate_org(hospital_log, identity):
    hub, session = _setup({"H": hospital_log}, identity)
    svc = ProvisionerService(org_id="H", log_data=hospital_log,
                             registry=ReferenceRegistry.of(identity.measurement),
                             allowed_miners={"*"}, push=hub.push_segment)
    hub.register_provisioner("loop://H2", svc)
    session.providers.append("loop://H2")
    with pytest.raises(InitializationError, match="duplicate org"):
        session.run_initialization()


class _FixedAnswers:
    """Announces a fixed case-ref answer and challenge, whatever they hold."""

    def __init__(self, refs_answer, challenge=None):
        self.refs_answer = refs_answer
        self.challenge = challenge

    def serve_case_refs(self, miner_id):
        return self.refs_answer

    def handle_case_request(self, body):
        return self.challenge


@pytest.mark.parametrize("answer", [{}, {"org": "H", "refs": None}, {"org": "H", "refs": "312"}])
def test_initialization_malformed_case_refs(identity, answer):
    hub = LoopbackHub()
    hub.register_provisioner("loop://bad", _FixedAnswers(answer))
    session = MinerSession(providers=["loop://bad"], transport=hub,
                           callback_url="loop://miner", identity=identity)
    with pytest.raises(InitializationError, match="loop://bad"):
        session.run_initialization()


def test_malformed_challenge_is_value_error(identity):
    hub = LoopbackHub()
    hub.register_provisioner("loop://bad", _FixedAnswers({"org": "H", "refs": ["312"]}, {}))
    session = MinerSession(providers=["loop://bad"], transport=hub,
                           callback_url="loop://miner", identity=identity)
    session.run_initialization()
    with pytest.raises(ValueError, match="bad attestation challenge"):
        session.run_acquisition()


# ---------------------------------------------------------------------------
# full runs


def test_full_run_matches_standalone(hospital_log, pharma_log, clinic_log,
                                     merged_log, identity):
    _, session = _setup(_org_logs(hospital_log, pharma_log, clinic_log),
                        identity, seg_size=300)
    net = session.run()
    assert net is session.net
    expected = standalone_net(merged_log)
    assert serialize_net(net, "json") == serialize_net(expected, "json")
    assert session.stats.case_count == 2  # every announced case was merged and mined


def test_incremental_equals_single_batch(hospital_log, pharma_log, clinic_log, identity):
    logs = _org_logs(hospital_log, pharma_log, clinic_log)
    _, one = _setup(logs, identity, mode="single_batch")
    _, inc = _setup(logs, identity, mode="incremental", batch_cases=1)
    assert serialize_net(one.run(), "json") == serialize_net(inc.run(), "json")


def test_budget_returns_to_zero_after_run(hospital_log, pharma_log, clinic_log, identity):
    _, session = _setup(_org_logs(hospital_log, pharma_log, clinic_log), identity)
    session.run()
    assert session.budget.in_use == 0
    assert session.budget.peak > 0


# The budget charges payload bytes and fixed overheads, not Python objects;
# README "Enclave budget" states the factor this pins.
CHARGE_FACTOR = 1


@pytest.mark.parametrize("seg_size", [1 * KIB, 100 * KIB], ids=["1KiB", "100KiB"])
def test_memory_held_after_acquisition_within_factor_of_charge(identity, seg_size):
    log_data, org_map = generate_scenario_log(ScenarioParams())
    _, session = _setup(partition_by_org(log_data, org_map), identity, seg_size=seg_size)
    gc.collect()
    tracemalloc.start()
    try:
        session.run_initialization()
        session.run_acquisition()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert session.stats.case_count == 0 and session.budget.in_use > 0
    assert held <= CHARGE_FACTOR * session.budget.in_use, (held, session.budget.in_use)


def test_finish_is_idempotent(hospital_log, identity):
    _, session = _setup({"H": hospital_log}, identity)
    session.run()
    session.finish()
    session.finish()
    assert session.budget.in_use == 0


def test_finish_closes_intake(hospital_log, pharma_log, clinic_log, identity, monkeypatch):
    hub, session = _setup(_org_logs(hospital_log, pharma_log, clinic_log), identity)
    pushed = []

    def recording(raw):
        pushed.append(raw)
        return session.enqueue(raw)

    hub.register_receiver("loop://miner", recording)
    session.run()
    charges = []
    monkeypatch.setattr(session.budget, "charge", charges.append)
    assert session.enqueue(pushed[-1]) == {"status": "error", "reason": "DeliveryError"}
    assert charges == []
    assert session.budget.in_use == 0
    assert session._waiting == {} and session._org_keys == {}


def test_acquisition_closes_intake(hospital_log, identity, monkeypatch):
    # a replay while the session computes is refused unopened, not decrypted
    # into a refusal that nothing would ever raise
    hub, session = _setup({"H": hospital_log}, identity)
    pushed = []

    def recording(raw):
        pushed.append(raw)
        return session.enqueue(raw)

    hub.register_receiver("loop://miner", recording)
    session.run_initialization()
    session.run_acquisition()
    peak, in_use = session.budget.peak, session.budget.in_use
    opened = []
    monkeypatch.setattr("confine.miner.decrypt_segment", lambda *args: opened.append(args))
    assert session.enqueue(pushed[0]) == {"status": "error", "reason": "DeliveryError"}
    assert opened == []
    assert (session.budget.peak, session.budget.in_use) == (peak, in_use)
    assert session.run_computation() is not None
    session.finish()


def test_segment_after_a_failed_run_is_not_opened(identity):
    # a provider may still push after the session gave up on it; a late
    # segment must not be unwrapped again into a finished enclave
    log_data, org_map = generate_scenario_log(ScenarioParams(cases=30, seed=7))
    hub, session = _setup(partition_by_org(log_data, org_map), identity, seg_size=KIB)
    withheld = []

    def withholding(raw):
        if raw["org"] == "P" and not withheld:
            withheld.append(raw)
            return {"status": "ok"}  # acknowledged, never opened
        return session.enqueue(raw)

    hub.register_receiver("loop://miner", withholding)
    with pytest.raises(IncompleteDeliveryError):
        session.run()
    assert session.enqueue(withheld[0]) == {"status": "error", "reason": "DeliveryError"}
    assert session.budget.in_use == 0
    assert session._waiting == {} and session._org_keys == {}


def test_finish_never_interleaves_with_an_opening_segment(identity):
    # finish releasing what it counted while a receiver thread charges a new
    # part would leave bytes charged that no buffer accounts for
    log_data, org_map = generate_scenario_log(ScenarioParams(cases=200, seed=1))
    hospital = partition_by_org(log_data, org_map)["H"]
    sealing = SealingKey.for_enclave(identity.enc_pub)
    envelopes = [encrypt_segment(seg, sealing).to_dict()
                 for seg in segment_log(hospital, hospital.case_refs(), 256, "H")]
    assert len(envelopes) >= 100
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(5):
            _, session = _setup({"H": hospital}, identity, seg_size=256)
            session.run_initialization()
            intake = threading.Thread(target=lambda: [session.enqueue(env) for env in envelopes])
            intake.start()
            while intake.is_alive():
                session.finish()
            intake.join(timeout=30)
            assert not intake.is_alive()
            assert session.budget.in_use == held_bytes(session)
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# instrumentation and emitted data


def test_metrics_csv_shape(hospital_log, pharma_log, clinic_log, identity):
    _, session = _setup(_org_logs(hospital_log, pharma_log, clinic_log), identity)
    session.run()
    lines = session.metrics_csv().splitlines()
    assert lines[0] == "t_ms,stage,in_use_bytes,peak_bytes"
    assert len(lines) > 4
    stages_seen = set()
    for row in lines[1:]:
        t_ms, stage, in_use, peak = row.split(",")
        assert float(t_ms) >= 0.0
        assert stage in STAGES
        assert 0 <= int(in_use) <= int(peak)
        stages_seen.add(stage)
    assert stages_seen == set(STAGES)
    assert lines[-1].split(",")[2] == "0"  # all buffers released at the end


def test_metrics_stages_follow_org_order(hospital_log, pharma_log, clinic_log, identity):
    # seg_size 64 packs one case per segment: C sends 1 segment, H and P 2
    logs = _org_logs(hospital_log, pharma_log, clinic_log)
    _, session = _setup(logs, identity, seg_size=64)
    session.run()
    stages = [row.split(",")[1] for row in session.metrics_csv().splitlines()[1:]]
    runs = [(stage, len(list(rows))) for stage, rows in itertools.groupby(stages)]
    assert [stage for stage, _n in runs] == ["init"] + ["attest", "transmit"] * 3 + ["compute"]
    # one transmit row per opened segment, one more at the org's answer
    segments = {org: len(segment_log(logs[org], logs[org].case_refs(), 64, org)) for org in logs}
    assert [n for stage, n in runs if stage == "transmit"] == [
        segments[org] + 1 for org in sorted(logs)
    ]


def test_budget_bounds_intake(identity):
    # org H alone, 30 segments of 4 KiB, every merged case folded at once:
    # apart from the ledger and the statistics, the enclave never holds
    # more than a few segments' worth of bytes
    log_data, org_map = generate_scenario_log(ScenarioParams(cases=300, seed=7))
    hospital = partition_by_org(log_data, org_map)["H"]
    segments = segment_log(hospital, hospital.case_refs(), 4 * KIB, "H")
    assert len(segments) >= 10
    largest = max(len(seg.payload) for seg in segments)
    _, session = _setup({"H": hospital}, identity, seg_size=4 * KIB,
                        mode="incremental", batch_cases=1)
    session.run_initialization()
    ledger = session.budget.in_use  # every owed (case, org) entry, charged up front
    session.run_acquisition()
    session.run_computation()
    held = session.budget.peak - ledger - session.stats.estimate_bytes()
    assert held <= 4 * largest


def test_exports_keys(hospital_log, identity):
    _, session = _setup({"H": hospital_log}, identity)
    assert set(session.exports()) == {"metrics.csv"}  # nothing mined yet
    session.run()
    out = session.exports()
    assert set(out) == {"metrics.csv", "net.json", "net.dot"}
    assert out["net.json"] == serialize_net(session.net, "json").encode("utf-8")


def test_emitted_payloads_cover_all_outputs(hospital_log, pharma_log, clinic_log, identity):
    _, session = _setup(_org_logs(hospital_log, pharma_log, clinic_log), identity)
    session.run()
    blobs = session.emitted_payloads()
    assert blobs == session.emitted + list(session.exports().values())
    assert all(isinstance(b, bytes) for b in blobs)
    # each org's /caserefs query, /cases request and /attestation report
    requests = [m for m in map(json.loads, session.emitted) if "status" not in m]
    report = ["att_pub", "enc_pub", "measurement", "nonce", "sig"]
    assert [sorted(r) for r in requests] == [["miner_id"]] * 3 + [["callback", "refs", "seg_size"], report] * 3
    assert acks(session) and all(ack == {"status": "ok"} for ack in acks(session))


def test_enqueue_malformed_envelope_error_ack(identity):
    session = MinerSession(providers=[], transport=LoopbackHub(),
                           callback_url="loop://m", identity=identity)
    ack = session.enqueue({"org": "H"})
    assert ack == {"status": "error", "reason": "EnvelopeFormatError"}
    assert session.emitted == [b'{"reason": "EnvelopeFormatError", "status": "error"}']
    assert session.budget.in_use == 0


def _session_with_a_refusal(identity, refs):
    """One org announcing ``refs``; intake has already refused one envelope."""
    hub = LoopbackHub()
    hub.register_provisioner("loop://H", _FixedAnswers({"org": "H", "refs": refs}))
    session = MinerSession(providers=["loop://H"], transport=hub,
                           callback_url="loop://miner", identity=identity)
    session.run_initialization()
    assert session.enqueue({"org": "A"}) == {"status": "error", "reason": "EnvelopeFormatError"}
    return hub, session


def test_kept_refusal_raised_when_no_org_holds_cases(identity):
    _, session = _session_with_a_refusal(identity, [])
    with pytest.raises(EnvelopeFormatError):
        session.run_acquisition()
    session.finish()
    assert session.budget.in_use == 0


def test_kept_refusal_outranks_a_failed_cases_request(identity, monkeypatch):
    hub, session = _session_with_a_refusal(identity, ["312"])

    def down(url, body):
        raise TransportError(url, "connection refused")

    monkeypatch.setattr(hub, "post_cases", down)
    with pytest.raises(EnvelopeFormatError) as exc:
        session.run_acquisition()
    assert not isinstance(exc.value, DeliveryError)
    session.finish()
    assert session.budget.in_use == 0


def test_no_cases_and_no_refusal_is_nothing_to_mine(identity):
    hub = LoopbackHub()
    hub.register_provisioner("loop://H", _FixedAnswers({"org": "H", "refs": []}))
    session = MinerSession(providers=["loop://H"], transport=hub,
                           callback_url="loop://miner", identity=identity)
    with pytest.raises(ValueError, match="^no eligible cases were delivered, nothing to mine$"):
        session.run()
    assert session.budget.in_use == 0


# ---------------------------------------------------------------------------
# failure paths


def test_attestation_rejected(hospital_log, pharma_log, clinic_log, identity):
    stranger = ReferenceRegistry.of(b"\x00" * 32)
    _, session = _setup(_org_logs(hospital_log, pharma_log, clinic_log),
                        identity, registry=stranger)
    session.run_initialization()
    with pytest.raises(AttestationRejectedError) as exc:
        session.run_acquisition()
    assert exc.value.org == "C"  # orgs are attested in sorted order
    assert exc.value.reason == "unknown_measurement"


def test_capacity_below_first_segment_aborts(hospital_log, pharma_log, clinic_log, identity):
    # 250 bytes hold the ledger but not the first envelope: org C's one
    # segment, charged as its 92-byte wrapped key plus its tagged ciphertext
    _, session = _setup(_org_logs(hospital_log, pharma_log, clinic_log),
                        identity, capacity=250)
    first = segment_log(clinic_log, clinic_log.case_refs(), session.seg_size, "C")[0]
    envelope = 92 + len(first.payload) + 16
    with pytest.raises(EnclaveMemoryExceeded, match=rf"^charge of {envelope} bytes exceeds capacity: \d+ in use of 250$"):
        session.run()
    assert {"status": "error", "reason": "EnclaveMemoryExceeded"} in acks(session)


def test_unreachable_callback_fails_fast(hospital_log, identity):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        closed = f"http://127.0.0.1:{sock.getsockname()[1]}"
    service = ProvisionerService(
        org_id="H",
        log_data=hospital_log,
        registry=ReferenceRegistry.of(identity.measurement),
        allowed_miners={"*"},
        push=HttpTransport().push_segment,
    )
    server = ProvisionerServer(service).start()
    try:
        session = MinerSession(providers=[server.url], transport=HttpTransport(),
                               callback_url=closed, identity=identity)
        t0 = time.monotonic()
        with pytest.raises(DeliveryError, match="org 'H' could not deliver: segment 0/1 undelivered"):
            session.run()
        elapsed = time.monotonic() - t0
    finally:
        server.close()
    assert elapsed < 5


def test_lost_ack_ends_with_delivery_error(hospital_log, identity):
    # the miner opens segment 0, but its ack never reaches the provider
    hub, session = _setup({"H": hospital_log}, identity, seg_size=300)
    pushed = []

    def losing_ack(callback, raw):
        pushed.append(raw["seq_no"])
        hub.push_segment(callback, raw)
        raise TransportError(callback, "ack lost")

    hub.register_provisioner("loop://H", ProvisionerService(
        org_id="H", log_data=hospital_log, registry=ReferenceRegistry.of(identity.measurement),
        allowed_miners={"*"}, push=losing_ack,
    ))
    with pytest.raises(DeliveryError, match="org 'H' could not deliver: segment 0/2 undelivered: ack lost"):
        session.run()
    assert pushed == [0]


@pytest.mark.parametrize("networked", [False, True], ids=["loopback", "http"])
def test_provider_failure_mid_protocol_names_org(hospital_log, identity, networked):
    def unexpected(_body):
        raise KeyError("not a protocol error")

    service = ProvisionerService(
        org_id="H",
        log_data=hospital_log,
        registry=ReferenceRegistry.of(identity.measurement),
        allowed_miners={"*"},
        push=lambda callback, envelope: {"status": "ok"},
    )
    service.handle_case_request = unexpected
    if networked:
        server = ProvisionerServer(service).start()
        transport, url, close = HttpTransport(timeout_s=5), server.url, server.close
    else:
        transport, url, close = LoopbackHub(), "loop://H", lambda: None
        transport.register_provisioner(url, service)
    try:
        session = MinerSession(providers=[url], transport=transport,
                               callback_url="loop://miner", identity=identity)
        with pytest.raises(DeliveryError, match="org 'H' cases request failed: internal error"):
            session.run()
    finally:
        close()


def test_tampered_segment_refused_at_once(hospital_log, pharma_log, clinic_log, identity):
    hub, session = _setup(_org_logs(hospital_log, pharma_log, clinic_log), identity)
    answers = []

    def flipping(raw):
        if not answers:
            env = SegmentEnvelope.from_dict(raw)
            raw = replace(env, ciphertext=bytes([env.ciphertext[0] ^ 1]) + env.ciphertext[1:]).to_dict()
        answers.append(session.enqueue(raw))
        return answers[-1]

    hub.register_receiver("loop://miner", flipping)
    with pytest.raises(IntegrityError):
        session.run()
    assert answers == [{"status": "error", "reason": "IntegrityError"}]
    # an ack names only the refusal's class, never what the envelope held
    assert session.enqueue({"org": "C"}) == {"status": "error", "reason": "EnvelopeFormatError"}
    assert acks(session) == answers + [{"status": "error", "reason": "EnvelopeFormatError"}]


def test_one_unwrap_per_org(identity, monkeypatch):
    calls = []

    def counting(wrapped, enc_priv):
        calls.append(wrapped)
        return unwrap_key(wrapped, enc_priv)

    monkeypatch.setattr("confine.miner.unwrap_key", counting)
    log_data, org_map = generate_scenario_log(ScenarioParams(cases=30, seed=7))
    logs = partition_by_org(log_data, org_map)
    assert len(logs) == 3
    hub, session = _setup(logs, identity, seg_size=KIB)
    opened = []

    def counting_orgs(raw):
        opened.append(raw["org"])
        return session.enqueue(raw)

    hub.register_receiver("loop://miner", counting_orgs)
    session.run()
    assert all(opened.count(org) > 1 for org in logs)
    assert len(calls) == len(set(calls)) == 3
    assert session._org_keys == {}  # finish() drops the unwrapped keys


def test_second_wrapped_key_from_pinned_org_rejected(hospital_log, identity):
    hub, session = _setup({"H": hospital_log}, identity, seg_size=300)
    answers = []

    def rekeying(raw):
        if answers:
            # a later segment sealed under another key, validly on its own
            env = SegmentEnvelope.from_dict(raw)
            seg = segment_log(hospital_log, ["711"], 10**6, "H")[0]
            forged = encrypt_segment(
                replace(seg, seq_no=env.seq_no, total=env.total),
                SealingKey.for_enclave(identity.enc_pub),
            )
            raw = forged.to_dict()
        answers.append(session.enqueue(raw))
        return answers[-1]

    hub.register_receiver("loop://miner", rekeying)
    with pytest.raises(IntegrityError, match=r"org 'H' segment 1/\d+ carries a different wrapped key"):
        session.run()
    assert answers == [{"status": "ok"}, {"status": "error", "reason": "IntegrityError"}]


def test_bit_flipped_wrapped_key_refused_at_once(hospital_log, identity):
    hub, session = _setup({"H": hospital_log}, identity, seg_size=300)
    answers = []

    def flipping(raw):
        env = SegmentEnvelope.from_dict(raw)
        key = env.wrapped_key
        raw = replace(env, wrapped_key=key[:-1] + bytes([key[-1] ^ 1])).to_dict()
        answers.append(session.enqueue(raw))
        return answers[-1]

    hub.register_receiver("loop://miner", flipping)
    with pytest.raises(IntegrityError, match="key unwrap failed"):
        session.run()
    assert answers == [{"status": "error", "reason": "IntegrityError"}]


def test_straggler_timeout(hospital_log, identity):
    hub, session = _setup({"H": hospital_log}, identity)
    hub.register_provisioner("loop://S", SilentProvisioner("S", ["312"]))
    session.providers.append("loop://S")
    with pytest.raises(IncompleteDeliveryError) as exc:
        session.run()
    assert exc.value.missing == {"312": {"S"}}
    assert "312" in str(exc.value) and "S" in str(exc.value)


def test_unannounced_org_rejected(hospital_log, identity):
    _, session = _setup({"H": hospital_log}, identity)
    session.run_initialization()
    seg = segment_log(hospital_log, ["312"], 10**6, "Z")[0]
    env = encrypt_segment(seg, SealingKey.for_enclave(identity.enc_pub))
    assert session.enqueue(env.to_dict()) == {"status": "error", "reason": "DeliveryError"}
    with pytest.raises(DeliveryError, match="unannounced org"):
        session.run_acquisition()


def _flip_in_tag(sealed: bytes) -> bytes:
    # the ciphertext ends in the 16-byte GCM tag
    out = bytearray(sealed)
    out[-7] ^= 0x20
    return bytes(out)


@pytest.mark.parametrize("tamper", [lambda ct: b"", lambda ct: ct[:15], _flip_in_tag],
                         ids=["empty", "shorter-than-tag", "tag-bit-flip"])
def test_bad_ciphertext_refused_as_integrity_error(hospital_log, identity, tamper):
    _, session = _setup({"H": hospital_log}, identity)
    session.run_initialization()
    seg = segment_log(hospital_log, ["312"], 10**6, "H")[0]
    env = encrypt_segment(seg, SealingKey.for_enclave(identity.enc_pub))
    raw = replace(env, ciphertext=tamper(env.ciphertext)).to_dict()
    assert session.enqueue(raw) == {"status": "error", "reason": "IntegrityError"}
    assert isinstance(session._fatal, IntegrityError)
    assert str(session._fatal) == "org 'H' segment 0/1 failed authentication"
    session.finish()
    assert session.budget.in_use == 0


def test_duplicate_segment_rejected(hospital_log, identity):
    # two segments, so the replay is drained while delivery is still open
    hub, session = _setup({"H": hospital_log}, identity, seg_size=300)

    def replaying(raw, _seen=[]):
        ack = session.enqueue(raw)
        if not _seen:
            _seen.append(raw)
            session.enqueue(raw)  # replay the first envelope verbatim
        return ack

    hub.register_receiver("loop://miner", replaying)
    with pytest.raises(DeliveryError, match="twice"):
        session.run()


def test_contradicting_total_rejected(hospital_log, identity):
    hub, session = _setup({"H": hospital_log}, identity, seg_size=300)

    def tampering(raw, _done=[]):
        ack = session.enqueue(raw)
        if not _done:
            _done.append(raw)
            forged = dict(raw)
            forged["seq_no"] = raw["total"]
            forged["total"] = raw["total"] + 1
            session.enqueue(forged)
        return ack

    hub.register_receiver("loop://miner", tampering)
    # the header is GCM associated data, so the relabeled total fails there
    with pytest.raises(IntegrityError, match="failed authentication"):
        session.run()


def test_failed_session_releases_enclave(identity):
    # P's fourth segment carries a corrupted tag; by then the enclave holds
    # partial cases, merged views and every org's delivery key
    log_data, org_map = generate_scenario_log(ScenarioParams(cases=60, seed=1))
    hub, session = _setup(partition_by_org(log_data, org_map), identity, seg_size=512)
    held = {}

    def tampering(raw):
        if raw["org"] == "P" and raw["seq_no"] == 3:
            held.update(parts=sum(len(case.parts) for case in session._waiting.values()),
                        views=len(session._eligible),
                        keys=len(session._org_keys), in_use=session.budget.in_use)
            # the ciphertext ends in the 16-byte GCM tag
            sealed = bytearray(SegmentEnvelope.from_dict(raw).ciphertext)
            sealed[-16] ^= 1
            raw = dict(raw, ciphertext=b64u_encode(bytes(sealed)))
        return session.enqueue(raw)

    hub.register_receiver("loop://miner", tampering)
    with pytest.raises(IntegrityError, match="'P' segment 3/"):
        session.run()
    assert held["parts"] and held["views"] and held["keys"] and held["in_use"]
    assert session.budget.in_use == 0
    assert not session._waiting and not session._eligible and not session._eligible_charged
    assert not session._org_keys


def test_oversized_field_ends_session_in_parse_error(identity):
    # the provider's in-memory log holds it, but no payload parser may take it
    stamp = parse_timestamp("2022-07-14T10:36")
    activity = "x" * (csv.field_size_limit() + 1)
    log_data = log_of([("c1", stamp, "H", "A"), ("c1", stamp, "H", activity)])
    _, session = _setup({"H": log_data}, identity)
    with pytest.raises(LogParseError, match="field larger than field limit"):
        session.run()
    assert acks(session) == [{"status": "error", "reason": "LogParseError"}]
    assert session.budget.in_use == 0


# ---------------------------------------------------------------------------
# arrival order must not matter


class _ShufflingReceiver:
    """Buffers every envelope, then replays them all in a random order."""

    def __init__(self, session, expected_orgs, seed):
        self.session = session
        self.expected = set(expected_orgs)
        self.rng = random.Random(seed)
        self.buffered = []
        self.totals = {}
        self.counts = {}

    def _complete(self):
        return all(
            org in self.totals and self.counts.get(org, 0) == self.totals[org]
            for org in self.expected
        )

    def __call__(self, raw):
        self.totals[raw["org"]] = raw["total"]
        self.counts[raw["org"]] = self.counts.get(raw["org"], 0) + 1
        self.buffered.append(raw)
        if self._complete():
            order = list(self.buffered)
            self.buffered.clear()
            self.rng.shuffle(order)
            self._replay(order)
        return {"status": "ok"}

    def _replay(self, order):
        for body in order:
            assert self.session.enqueue(body)["status"] == "ok"


class _ConcurrentReceiver(_ShufflingReceiver):
    """Replays the buffered envelopes from eight threads at once."""

    def _replay(self, order):
        acks = []
        threads = [
            threading.Thread(target=lambda part: acks.extend(map(self.session.enqueue, part)),
                             args=(order[i::8],))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert acks == [{"status": "ok"}] * len(order)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shuffled_arrival_matches_reference(hospital_log, pharma_log, clinic_log,
                                            merged_log, identity, seed):
    # seg_size 64 forces one segment per case, so orders can interleave freely
    logs = _org_logs(hospital_log, pharma_log, clinic_log)
    hub, session = _setup(logs, identity, seg_size=64)
    hub.register_receiver("loop://miner", _ShufflingReceiver(session, logs, seed))
    net = session.run()
    expected = standalone_net(merged_log)
    assert serialize_net(net, "json") == serialize_net(expected, "json")


def test_concurrent_intake_matches_reference(identity):
    # eight orgs hold parts of every case and each segment carries one
    # case, so threads keep touching the same partial cases at once
    log_data, org_map = generate_scenario_log(ScenarioParams(cases=100, org_count=8, seed=3))
    logs = partition_by_org(log_data, org_map)
    hub, session = _setup(logs, identity, seg_size=64, mode="incremental", batch_cases=3)
    hub.register_receiver("loop://miner", _ConcurrentReceiver(session, logs, seed=0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        net = session.run()
    finally:
        sys.setswitchinterval(interval)
    assert serialize_net(net, "json") == serialize_net(standalone_net(log_data), "json")
    assert session.budget.in_use == 0


# ---------------------------------------------------------------------------
# HTTP callback receiver


@pytest.fixture()
def receiver(identity):
    session = MinerSession(providers=[], transport=LoopbackHub(),
                           callback_url="", identity=identity)
    rec = MinerReceiver(session, port=0).start()
    yield rec
    rec.close()


def test_receiver_acks_bad_envelope(receiver):
    status, body = http_request("POST", f"{receiver.url}/segments", b'{"org": "H"}')
    assert status == 200
    assert json.loads(body) == {"status": "error", "reason": "EnvelopeFormatError"}


def test_receiver_drops_stalled_client(receiver, monkeypatch):
    # a silent connection must not hold its thread past the handler timeout
    monkeypatch.setattr(_JsonHandler, "timeout", 0.2)
    url = urllib.parse.urlsplit(receiver.url)
    with socket.create_connection((url.hostname, url.port)):
        t0 = time.monotonic()
        status, _body = http_request("POST", f"{receiver.url}/segments", b'{"org": "H"}')
        assert status == 200
        assert time.monotonic() - t0 < 4


@pytest.mark.parametrize("length", ["-1", "ten"])
def test_receiver_rejects_bad_content_length_at_once(receiver, length):
    # rfile.read(-1) would hold the serving thread until the client closes
    url = urllib.parse.urlsplit(receiver.url)
    with socket.create_connection((url.hostname, url.port), timeout=4) as sock:
        sock.sendall(f"POST /segments HTTP/1.0\r\nContent-Length: {length}\r\n\r\n".encode())
        with sock.makefile("rb") as reply:
            assert reply.readline().split()[1] == b"400"
        status, _body = http_request("POST", f"{receiver.url}/segments", b'{"org": "H"}')
        assert status == 200


def test_receiver_rejects_bad_json(receiver):
    status, body = http_request("POST", f"{receiver.url}/segments", b"not json")
    assert status == 400
    assert "bad JSON body" in json.loads(body)["error"]


def test_receiver_rejects_non_object_body(receiver):
    status, _body = http_request("POST", f"{receiver.url}/segments", b"[1, 2]")
    assert status == 400


def test_receiver_unknown_path(receiver):
    status, _body = http_request("POST", f"{receiver.url}/elsewhere", b"{}")
    assert status == 404


def test_receiver_trickling_client_does_not_block_pushes(hospital_log, identity):
    # each read waits up to the 30 s handler timeout, so a body sent a byte
    # at a time could hold a connection indefinitely; real pushes go on
    _, session = _setup({"H": hospital_log}, identity)
    session.run_initialization()
    seg = segment_log(hospital_log, hospital_log.case_refs(), 10**6, "H")[0]
    env = encrypt_segment(seg, SealingKey.for_enclave(identity.enc_pub)).to_dict()
    receiver = MinerReceiver(session).start()
    try:
        url = urllib.parse.urlsplit(receiver.url)
        with socket.create_connection((url.hostname, url.port), timeout=4) as slow:
            slow.sendall(b"POST /segments HTTP/1.1\r\nContent-Length: 100000\r\n\r\n{")
            assert HttpTransport(timeout_s=4).push_segment(receiver.url, env) == {"status": "ok"}
    finally:
        receiver.close()
        session.finish()
