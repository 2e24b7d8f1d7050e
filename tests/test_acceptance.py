"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The suite drives full protocol sessions (including over localhost HTTP) and
the complete scalability grids, so it takes a few minutes.
"""

import dataclasses
import random
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone

import pytest

from conftest import T_312, T_711, enclave_rows, log_of
from confine.attest import ReferenceRegistry, make_report, verify_report
from confine.eventlog import EventLog, format_timestamp, merge_case, partition_by_org
from confine.harness import (
    ALL_ACTIVITIES,
    REFERENCE_SCALABILITY_STATS,
    SCALABILITY_TESTS,
    ScenarioParams,
    fit_trends,
    generate_scenario_log,
    run_convergence,
    run_memory_experiment,
    run_protocol,
    run_scalability_suite,
)
from confine.hminer import serialize_net
from confine.miner import EnclaveMemoryExceeded
from confine.provisioner import ProvisionerService
from confine.wire import (
    KIB,
    AttestationChallenge,
    CaseRequest,
    case_payload,
    parse_segment_payload,
    parse_size,
    segment_log,
)


@contextmanager
def _criterion(num: int, label: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"\ncriterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def scenario():
    log, org_map = generate_scenario_log(ScenarioParams())
    return log, org_map, partition_by_org(log, org_map)


# ---------------------------------------------------------------------------


def test_criterion_01_networked_convergence():
    with _criterion(1, "networked 1000-case convergence"):
        row = run_convergence(ScenarioParams(cases=1000), networked=True)
        assert row["status"] == "ok", row["error"]
        assert row["converged"], "protocol net differs from the standalone net"
        assert row["elapsed_ms"] < 60_000, f"took {row['elapsed_ms'] / 1000:.1f}s, expected < 60s"


def test_criterion_02_merge_ground_truth(hospital_log, pharma_log, clinic_log):
    with _criterion(2, "three-way merge ground truth"):
        # the enclave's merge of the rows it parses from each holder's payload
        merged_312 = merge_case([
            enclave_rows("312", hospital_log.cases["312"]),
            enclave_rows("312", pharma_log.cases["312"]),
            enclave_rows("312", clinic_log.cases["312"]),
        ])
        assert merged_312 == T_312
        merged_711 = merge_case([
            enclave_rows("711", hospital_log.cases["711"]),
            enclave_rows("711", pharma_log.cases["711"]),
        ])
        assert merged_711 == T_711


def test_criterion_03_generator_statistics():
    with _criterion(3, "scenario generator statistics"):
        for seed in (42, 0, 1, 7, 123):
            log, _ = generate_scenario_log(ScenarioParams(seed=seed))
            lengths = [len(rows) for rows in log.cases.values()]
            assert len(log.cases) == 1000
            assert len(log.activities()) == 19
            assert max(lengths) == 18
            assert min(lengths) == 12
            mean = sum(lengths) / len(lengths)
            assert abs(mean - 14.0) <= 0.5, f"seed {seed}: mean {mean:.3f}"


def test_criterion_04_loop_length_formula():
    with _criterion(4, "loop iteration length formula"):
        for x in range(2, 17, 2):
            log, _ = generate_scenario_log(ScenarioParams(loop_iterations=x))
            lengths = {len(rows) for rows in log.cases.values()}
            assert lengths == {12, 18 + 16 * (x - 1)}, f"x={x}: {lengths}"


def test_criterion_05_attestation_soundness(identity):
    with _criterion(5, "attestation soundness and replay"):
        registry = ReferenceRegistry.of(identity.measurement)
        rng = random.Random(0xA77E57)

        # every honest report with a registered measurement is accepted
        for _ in range(50):
            nonce = rng.randbytes(16)
            assert verify_report(make_report(identity, nonce), nonce, registry) is None

        # per-field bit-flip fuzz, >= 1000 trials, all rejected
        trials = rejected = 0
        fields = ("measurement", "nonce", "enc_pub", "att_pub", "sig")
        for _ in range(40):
            nonce = rng.randbytes(16)
            report = make_report(identity, nonce)
            for name in fields:
                value = getattr(report, name)
                for _ in range(6):
                    bit = rng.randrange(len(value) * 8)
                    mutated = bytearray(value)
                    mutated[bit // 8] ^= 1 << (bit % 8)
                    forged = dataclasses.replace(report, **{name: bytes(mutated)})
                    trials += 1
                    if verify_report(forged, nonce, registry) is not None:
                        rejected += 1
        assert trials >= 1000
        assert rejected == trials, f"{trials - rejected} forgeries slipped through"

        # a report replayed against a fresh challenge reads as stale
        old_nonce = rng.randbytes(16)
        replayed = make_report(identity, old_nonce)
        assert verify_report(replayed, rng.randbytes(16), registry) == "stale_nonce"

        # and a provisioner consumes each challenge on first use
        base = datetime(2022, 5, 1, tzinfo=timezone.utc)
        tiny = log_of([("c1", base, "", "A"), ("c1", base + timedelta(minutes=1), "", "B")])
        pushes: list[dict] = []
        svc = ProvisionerService(
            org_id="X", log_data=tiny, registry=registry,
            allowed_miners={"*"}, push=lambda url, body: pushes.append(body) or {"status": "ok"},
        )
        req = CaseRequest(seg_size=KIB, refs=("c1",), callback="cb").to_dict()
        challenge = AttestationChallenge.from_dict(svc.handle_case_request(req))
        answer = make_report(identity, challenge.nonce).to_dict()
        assert svc.handle_attestation(answer)["status"] == "trusted"
        replay_ack = svc.handle_attestation(answer)
        assert replay_ack["status"] == "rejected"
        assert replay_ack["reason"] == "stale_nonce"
        assert len(pushes) == 1, "replay must not release data twice"


def _random_log(rng: random.Random) -> EventLog:
    acts = [f"A{k}" for k in range(12)]
    base = datetime(2022, 3, 1, tzinfo=timezone.utc)
    records = []
    for c in range(rng.randint(1, 40)):
        ref = f"r{c:03d}"
        for _ in range(rng.randint(1, 20)):
            ts = base + timedelta(minutes=rng.randint(0, 10000))
            records.append((ref, ts, "X", rng.choice(acts)))
    return log_of(records)


def test_criterion_06_segmentation_invariants():
    with _criterion(6, "segmentation invariants and breakpoint"):
        rng = random.Random(20220814)
        sizes = [parse_size(s) for s in ("100KB", "1MB", "10MB")]
        for _ in range(12):
            log = _random_log(rng)
            for seg_size in sizes:
                segments = segment_log(log, log.case_refs(), seg_size, "X")
                seen = [r for s in segments for r in s.case_refs]
                assert sorted(seen) == log.case_refs()  # no split, no loss
                for s in segments:
                    expected = b"".join(case_payload(r, log.cases[r]) for r in s.case_refs)
                    assert s.payload == expected
                    if len(s.case_refs) > 1:
                        assert len(s.payload) <= seg_size
                    elif len(s.payload) > seg_size:
                        # only a case that alone exceeds seg_size may overflow
                        assert len(case_payload(s.case_refs[0], log.cases[s.case_refs[0]])) > seg_size
                    back, _ = parse_segment_payload(s.payload)
                    for ref in s.case_refs:
                        assert back[ref] == list(log.cases[ref])
            # requesting a subset filters the packed union down to it
            subset = log.case_refs()[::2]
            packed = segment_log(log, subset, sizes[0], "X")
            assert sorted(r for s in packed for r in s.case_refs) == sorted(subset)
            # breakpoint: one segment as soon as everything fits
            total = sum(len(case_payload(ref, rows)) for ref, rows in log.cases.items())
            assert len(segment_log(log, log.case_refs(), total, "X")) == 1


def test_criterion_07_incremental_equivalence(scenario):
    with _criterion(7, "incremental equals single batch"):
        _, _, partitions = scenario
        reference = run_protocol(partitions, seg_size=100 * KIB)
        ref_bytes = serialize_net(reference.net)
        for batch in (1, 10, 100):
            session = run_protocol(
                partitions, seg_size=100 * KIB, mode="incremental", batch_cases=batch
            )
            assert serialize_net(session.net) == ref_bytes, f"batch_cases={batch}"


def test_criterion_08_memory_shape():
    with _criterion(8, "memory shape properties"):
        # (a) peak grows with seg_size, then stays flat once one segment fits all
        rows = run_memory_experiment()["runs"]
        assert all(r["status"] == "ok" and r["converged"] for r in rows)
        peaks = [r["peak_bytes"] for r in rows]
        assert peaks == sorted(peaks), "peak must be non-decreasing in seg_size"
        flat = [r["peak_bytes"] for r in rows if r["single_segment"]]
        assert len(flat) >= 2 and len(set(flat)) == 1, "constant after the breakpoint"
        assert any(not r["single_segment"] for r in rows)

        # (b) on every run: without computation the peak is no higher, and
        # memory returns to baseline
        for r in rows:
            assert r["final_in_use"] == 0, r["seg_size"]
            assert r["peak_before_compute"] <= r["peak_bytes"], r["seg_size"]

        # (c) a budget below one segment halts the enclave
        small_log, org_map = generate_scenario_log(ScenarioParams(cases=100))
        small_parts = partition_by_org(small_log, org_map)
        with pytest.raises(EnclaveMemoryExceeded):
            run_protocol(small_parts, seg_size=64 * KIB, capacity=20000)


def test_criterion_09_scalability_grid(tmp_path):
    with _criterion(9, "scalability grids and calibration"):
        # regression calibration on noiseless series, 1e-9 recovery
        xs = [1, 2, 4, 8, 16, 32]
        lin = fit_trends(xs, [0.25 * x + 3.0 for x in xs])
        assert abs(lin["slope_hat"] - 0.25) < 1e-9
        assert abs(lin["r2_lin"] - 1.0) < 1e-9
        import math

        logfit = fit_trends(xs, [1.5 * math.log(x) + 2.0 for x in xs])
        assert abs(logfit["r2_log"] - 1.0) < 1e-9

        expected_cells = {"events": 24, "cases": 21, "orgs": 24}
        for test in SCALABILITY_TESTS:
            summary = run_scalability_suite(test, out_dir=tmp_path)
            assert len(summary["cells"]) == expected_cells[test]
            assert summary["all_converged"], f"{test}: a grid cell diverged"
            # published statistics ride along for orientation, unasserted
            assert summary["reference_stats"] == REFERENCE_SCALABILITY_STATS[test]


def test_criterion_10_secrecy_audit(scenario):
    with _criterion(10, "secrecy audit of emitted bytes"):
        _, _, partitions = scenario
        session = run_protocol(partitions, seg_size=100 * KIB)
        texts = [b.decode("utf-8", errors="replace") for b in session.emitted_payloads()]
        assert texts

        # the audit is not vacuous: refs and activities do appear in isolation
        assert any("case00000" in t for t in texts)
        assert any(ALL_ACTIVITIES[0] in t for t in texts)

        violations = []
        for text in texts:
            if "2022-07" not in text:
                continue  # no scenario timestamp, the triple cannot occur
            for org, part in partitions.items():
                for ev in part.events():
                    if (
                        ev.case_ref in text
                        and ev.activity in text
                        and format_timestamp(ev.timestamp) in text
                    ):
                        violations.append((org, ev.case_ref, ev.activity))
        assert not violations, f"raw event records leaked: {violations[:5]}"
