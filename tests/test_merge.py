"""Partial-trace merging and the delivery eligibility ledger."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confine.eventlog import CaseView, Event, parse_timestamp
from confine.merge import (
    DeliveryError,
    EligibilityLedger,
    MergeConflictError,
    MergeKeyError,
    merge_case,
)

from conftest import T_312, T_711


def test_merge_case_312_ground_truth(hospital_log, pharma_log, clinic_log):
    parts = [
        hospital_log.cases["312"],
        pharma_log.cases["312"],
        clinic_log.cases["312"],
    ]
    merged = merge_case(parts)
    assert merged.case_ref == "312"
    assert merged.activities == T_312
    assert len(merged) == 18


def test_merge_case_711_ground_truth(hospital_log, pharma_log):
    merged = merge_case([hospital_log.cases["711"], pharma_log.cases["711"]])
    assert merged.activities == T_711
    assert len(merged) == 12


def test_merge_single_part_is_identity(hospital_log):
    part = hospital_log.cases["312"]
    assert merge_case([part]) == part


def test_merge_with_empty_part_list_is_error():
    with pytest.raises(ValueError):
        merge_case([])


def test_merge_key_mismatch(hospital_log):
    with pytest.raises(MergeKeyError):
        merge_case([hospital_log.cases["312"], hospital_log.cases["711"]])


def test_merge_duplicate_event_is_conflict(hospital_log):
    part = hospital_log.cases["312"]
    with pytest.raises(MergeConflictError):
        merge_case([part, part])


def test_merge_idempotent_with_result(hospital_log, pharma_log, clinic_log):
    merged = merge_case(
        [hospital_log.cases["312"], pharma_log.cases["312"], clinic_log.cases["312"]]
    )
    assert merge_case([merged]) == merged


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_merge_random_split_equals_global_sort(seed):
    # oracle: a plain sort of the undivided event list
    rng = random.Random(seed)
    base = parse_timestamp("2022-01-01T00:00")
    events = [
        Event(
            "c1",
            rng.choice("ABCDEF"),
            base.replace(hour=rng.randrange(24), minute=rng.randrange(60)),
            rng.choice(["X", "Y", "Z"]),
            i,
        )
        for i in range(rng.randrange(3, 30))
    ]
    buckets: list[list[Event]] = [[], [], []]
    for ev in events:
        buckets[rng.randrange(3)].append(ev)
    parts = [CaseView("c1", tuple(b)) for b in buckets if b]
    merged = merge_case(parts)
    oracle = sorted(events, key=lambda e: (e.timestamp, e.org, e.seq_hint))
    assert list(merged.events) == oracle


# -- eligibility ledger -------------------------------------------------------


def test_ledger_published_example():
    led = EligibilityLedger()
    led.record_manifest("H", {"312", "711"})
    led.record_manifest("C", {"312", "711"})
    led.record_manifest("S", {"312"})
    assert led.expected["312"] == {"H", "C", "S"}
    assert led.expected["711"] == {"H", "C"}

    assert led.record_delivery("H", "312") is False
    assert led.record_delivery("C", "312") is False
    assert led.record_delivery("S", "312") is True
    assert led.is_eligible("312")
    assert not led.is_eligible("711")
    assert led.pending_refs() == ["711"]
    assert led.missing() == {"711": {"H", "C"}}


def test_ledger_empty_manifest_is_noop():
    led = EligibilityLedger()
    led.record_manifest("H", set())
    assert led.expected == {}


def test_ledger_duplicate_manifest_idempotent():
    led = EligibilityLedger()
    led.record_manifest("H", {"1"})
    led.record_manifest("H", {"1"})
    assert led.expected["1"] == {"H"}


def test_ledger_unannounced_delivery_is_error():
    led = EligibilityLedger()
    led.record_manifest("H", {"1"})
    with pytest.raises(DeliveryError):
        led.record_delivery("C", "1")
    with pytest.raises(DeliveryError):
        led.record_delivery("H", "2")


def test_ledger_double_delivery_is_conflict():
    led = EligibilityLedger()
    led.record_manifest("H", {"1"})
    led.record_delivery("H", "1")
    with pytest.raises(MergeConflictError):
        led.record_delivery("H", "1")


def test_ledger_manifest_after_delivery_rejected():
    # eligibility must be monotone: once deliveries begin for a ref, the
    # expected holder set is frozen
    led = EligibilityLedger()
    led.record_manifest("H", {"1"})
    led.record_delivery("H", "1")
    with pytest.raises(DeliveryError):
        led.record_manifest("C", {"1"})


def test_ledger_received_subset_of_expected_invariant():
    rng = random.Random(4)
    led = EligibilityLedger()
    orgs = ["A", "B", "C", "D"]
    refs = [f"r{i}" for i in range(12)]
    for org in orgs:
        led.record_manifest(org, set(rng.sample(refs, rng.randrange(1, len(refs)))))
    for ref in refs:
        for org in sorted(led.expected.get(ref, ())):
            led.record_delivery(org, ref)
            assert led.received[ref] <= led.expected[ref]
    assert led.pending_refs() == []
    assert all(led.is_eligible(ref) for ref in led.expected)
