"""Partial-trace merging, and the session's record of who still owes each case."""

import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confine.eventlog import EventLog, merge_case, parse_csv, parse_timestamp, partition_by_org, serialize_log
from confine.harness import ScenarioParams, generate_scenario_log, run_protocol, standalone_net
from confine.hminer import serialize_net
from confine.miner import LEDGER_ENTRY_BYTES, MODES, DeliveryError, IncompleteDeliveryError, MinerSession
from confine.transport import LoopbackHub
from confine.wire import KIB, segment_log

from conftest import T_312, T_711, SilentProvisioner, activities, enclave_rows, held_bytes, log_of, sealed_envelopes


def test_merge_case_312_ground_truth(hospital_log, pharma_log, clinic_log):
    parts = [
        enclave_rows("312", hospital_log.cases["312"]),
        enclave_rows("312", pharma_log.cases["312"]),
        enclave_rows("312", clinic_log.cases["312"]),
    ]
    merged = merge_case(parts)
    assert merged == T_312
    assert len(merged) == 18


def test_merge_case_711_ground_truth(hospital_log, pharma_log):
    merged = merge_case(
        [enclave_rows("711", hospital_log.cases["711"]), enclave_rows("711", pharma_log.cases["711"])]
    )
    assert merged == T_711
    assert len(merged) == 12


def test_merge_single_part_is_identity(hospital_log):
    part = hospital_log.cases["312"]
    assert merge_case([enclave_rows("312", part)]) == activities(part)


def test_merge_with_empty_part_list_is_error():
    with pytest.raises(ValueError):
        merge_case([])


def test_merge_keeps_identical_records_of_two_holders(hospital_log):
    # two holders' identical records both survive, as in the pooled log
    part = hospital_log.cases["312"]
    merged = merge_case([enclave_rows("312", part), enclave_rows("312", part)])
    assert merged == tuple(a for a in activities(part) for _ in range(2))


def test_merge_idempotent_with_result(hospital_log, pharma_log, clinic_log):
    # the merged case's rows, merged again as one part, give the same case
    parts = [enclave_rows("312", log.cases["312"]) for log in (hospital_log, pharma_log, clinic_log)]
    merged_rows = sorted(row for part in parts for row in part)
    assert merge_case([merged_rows]) == merge_case(parts)


_stamps = st.integers(min_value=0, max_value=3).map(
    lambda m: parse_timestamp("2022-01-01T00:00") + timedelta(minutes=m)
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(_stamps, st.sampled_from(["", "X", "Y"]), st.sampled_from("ABC"), st.integers(0, 3)),
        min_size=1,
        max_size=20,
    )
)
def test_merge_random_split_equals_global_sort(records):
    # oracle: the pooled log's case of the undivided events; stamps, orgs and
    # activities collide, and each holder's rows come through its payload
    parts = [
        enclave_rows("c1", [(ts, org, activity) for ts, org, activity, holder in records if holder == h])
        for h in range(4)
        if any(rec[3] == h for rec in records)
    ]
    pooled = log_of(("c1", ts, org, activity) for ts, org, activity, _ in records)
    assert merge_case(parts) == activities(pooled.cases["c1"])


# -- the protocol equals standalone mining for every split ---------------------
# A record is ((case, timestamp, org, activity), holder). The org column may
# be blank, so two holders can hold records that are equal field for field.

_BASE = parse_timestamp("2024-01-01T10:00")


def _split_log(records, holders: int) -> tuple[EventLog, dict[str, EventLog]]:
    """The pooled log and each holder's share of it."""
    parts = {f"org{h}": log_of(rec for rec, holder in records if holder == h) for h in range(holders)}
    return log_of(rec for rec, _ in records), parts


def test_identical_records_of_two_holders_match_standalone():
    # X holds c1 A@10:00 and B@11:00, Y holds c1 A@10:00 as well
    a, b = ("c1", _BASE, "", "A"), ("c1", _BASE + timedelta(hours=1), "", "B")
    pooled, parts = _split_log([(a, 0), (b, 0), (a, 1)], 2)
    session = run_protocol(parts)
    assert serialize_net(session.net) == serialize_net(standalone_net(pooled))
    assert session.stats.df_count == {("A", "A"): 1, ("A", "B"): 1}


# characters a CSV cell must quote, a NUL, which it need not, and non-ASCII ones
_ODD = [",", '"', "\r", "\n", "\r\n", "\x00", "é", "日"]


def _names(plain):
    """A plain name, or one with odd characters inside, which parse_csv does not strip."""
    odd = st.builds(lambda name, mid: name + mid + name, st.sampled_from(plain), st.sampled_from(_ODD))
    return st.one_of(st.sampled_from(plain), odd)


# minutes apart, each at millisecond or at microsecond precision
_split_stamps = st.builds(
    lambda minute, us: _BASE + timedelta(minutes=minute, microseconds=us),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([0, 250_000, 7, 999_999]),
)


@st.composite
def _split_records(draw):
    holders = draw(st.integers(min_value=1, max_value=4))
    record = st.tuples(
        st.tuples(_names(["c1", "c2", "c3"]), _split_stamps, st.one_of(st.just(""), _names(["X", "Y"])),
                  _names(["A", "B", "C"])),
        st.integers(min_value=0, max_value=holders - 1),
    )
    return draw(st.lists(record, min_size=1, max_size=12)), holders


@settings(max_examples=200, deadline=None)
@given(
    _split_records(),
    st.integers(min_value=1, max_value=200),
    st.sampled_from(MODES),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
)
def test_protocol_net_equals_standalone_for_every_split(split, seg_size, mode, batch_cases, round_trip):
    records, holders = split
    pooled, parts = _split_log(records, holders)
    if round_trip:
        parts = {org: parse_csv(serialize_log(sub)) for org, sub in parts.items()}
    session = run_protocol(parts, seg_size=seg_size, mode=mode, batch_cases=batch_cases)
    assert serialize_net(session.net) == serialize_net(standalone_net(pooled))


# -- who still owes which case ----------------------------------------------
# A session learns each org's manifest during initialization; every case it
# announced is owed by that org until its part arrives. Providers here only
# announce, and each test pushes the segments itself.


def _session(identity, *provisioners, **kw) -> MinerSession:
    hub = LoopbackHub()
    for prov in provisioners:
        hub.register_provisioner(f"loop://{prov.org}", prov)
    return MinerSession(providers=[f"loop://{prov.org}" for prov in provisioners], transport=hub,
                        callback_url="loop://miner", identity=identity, **kw)


def _owed(session) -> dict[str, set[str]]:
    return {ref: set(case.owed) for ref, case in session._waiting.items()}


def _entry(ref: str, org: str) -> int:
    return len(ref) + len(org) + LEDGER_ENTRY_BYTES


def test_ledger_published_example(hospital_log, pharma_log, identity):
    session = _session(identity, SilentProvisioner("H", ["312", "711"]),
                       SilentProvisioner("P", ["312", "711"]), SilentProvisioner("C", ["312"]))
    session.run_initialization()
    assert _owed(session) == {"312": {"H", "P", "C"}, "711": {"H", "P"}}

    for env in sealed_envelopes(hospital_log, ["312", "711"], "H", identity):
        assert session.enqueue(env) == {"status": "ok"}
    for env in sealed_envelopes(pharma_log, ["312"], "P", identity):
        assert session.enqueue(env) == {"status": "ok"}
    assert _owed(session) == {"312": {"C"}, "711": {"P"}}
    assert session.budget.in_use == held_bytes(session)

    with pytest.raises(IncompleteDeliveryError) as exc:
        session.run_acquisition()
    assert exc.value.missing == {"312": {"C"}, "711": {"P"}}
    session.finish()
    assert session.budget.in_use == 0


def test_ledger_empty_manifest_is_noop(identity):
    session = _session(identity, SilentProvisioner("H", []), SilentProvisioner("P", ["312"]))
    session.run_initialization()
    assert _owed(session) == {"312": {"P"}}
    assert session.budget.in_use == _entry("312", "P")


def test_ledger_duplicate_manifest_idempotent(hospital_log, identity):
    # an org listing a case twice owes it once and is charged one entry
    session = _session(identity, SilentProvisioner("H", ["312", "312"]))
    session.run_initialization()
    assert _owed(session) == {"312": {"H"}}
    assert session.budget.in_use == _entry("312", "H")
    (env,) = sealed_envelopes(hospital_log, ["312"], "H", identity)
    assert session.enqueue(env) == {"status": "ok"}
    assert session._waiting == {} and len(session._eligible) == 1
    session.run_acquisition()


def test_ledger_unannounced_delivery_is_error(hospital_log, identity):
    # 711 is owed, but by P: an announced org may deliver only its own cases
    session = _session(identity, SilentProvisioner("H", ["312"]), SilentProvisioner("P", ["711"]))
    session.run_initialization()
    (env,) = sealed_envelopes(hospital_log, ["312", "711"], "H", identity)
    assert session.enqueue(env) == {"status": "error", "reason": "DeliveryError"}
    with pytest.raises(DeliveryError, match="org 'H' segment 0/1 delivered case '711' which it never announced"):
        session.run_acquisition()
    assert _owed(session) == {"711": {"P"}}
    session.finish()
    assert session.budget.in_use == 0


def test_ledger_double_delivery_is_conflict(hospital_log, identity):
    # segment 0 completes case 312; its replay finds nobody owing it
    session = _session(identity, SilentProvisioner("H", ["312", "711"]))
    session.run_initialization()
    first, _ = sealed_envelopes(hospital_log, ["312", "711"], "H", identity, seg_size=300)
    assert session.enqueue(first) == {"status": "ok"}
    assert _owed(session) == {"711": {"H"}}
    in_use = session.budget.in_use
    assert session.enqueue(first) == {"status": "error", "reason": "DeliveryError"}
    assert session.budget.in_use == in_use
    with pytest.raises(DeliveryError, match="org 'H' segment 0/2 delivered case '312' twice"):
        session.run_acquisition()


class _EagerProvisioner(SilentProvisioner):
    """Pushes its sealed segments while it is still being asked for its manifest."""

    def __init__(self, org, refs, envelopes, push):
        super().__init__(org, refs)
        self.envelopes = envelopes
        self.push = push
        self.acks = []

    def serve_case_refs(self, miner_id):
        self.acks.extend(self.push(env) for env in self.envelopes)
        return super().serve_case_refs(miner_id)


def test_ledger_manifest_after_delivery_rejected(hospital_log, identity):
    # H's own part would complete 312 before C announces it; intake stays
    # closed until every manifest is in, so the push is refused unopened
    envelopes = sealed_envelopes(hospital_log, ["312"], "H", identity)
    eager = _EagerProvisioner("H", ["312"], envelopes, lambda env: session.enqueue(env))
    session = _session(identity, eager, SilentProvisioner("C", ["312"]))
    session.run_initialization()
    assert eager.acks == [{"status": "error", "reason": "DeliveryError"}]
    assert _owed(session) == {"312": {"H", "C"}}
    assert session.budget.in_use == _entry("312", "H") + _entry("312", "C")
    with pytest.raises(DeliveryError, match="org 'H' segment 0/1 arrived while intake is closed"):
        session.run_acquisition()


def test_ledger_received_subset_of_expected_invariant(identity):
    # four orgs deliver in an interleaved order; after every segment the
    # owed entries are exactly the undelivered announced pairs, and the
    # budget holds exactly those entries, the held parts, the merged cases
    # and the statistics
    log_data, org_map = generate_scenario_log(ScenarioParams(cases=30, org_count=4, seed=4))
    logs = partition_by_org(log_data, org_map)
    session = _session(identity, *(SilentProvisioner(org, sub.case_refs()) for org, sub in logs.items()),
                       mode="incremental", batch_cases=3)
    session.run_initialization()
    owed = {(ref, org) for org, sub in logs.items() for ref in sub.case_refs()}
    pushes = [
        (org, seg.case_refs, env)
        for org, sub in logs.items()
        for seg, env in zip(segment_log(sub, sub.case_refs(), KIB, org),
                            sealed_envelopes(sub, sub.case_refs(), org, identity, seg_size=KIB))
    ]
    random.Random(4).shuffle(pushes)
    for org, refs, env in pushes:
        assert session.enqueue(env) == {"status": "ok"}
        owed -= {(ref, org) for ref in refs}
        assert {(ref, org) for ref, orgs in _owed(session).items() for org in orgs} == owed
        parts = sum(case.charged for case in session._waiting.values())
        merged = session._eligible_charged + session._stats_charged
        assert session.budget.in_use == sum(_entry(ref, org) for ref, org in owed) + parts + merged
    assert session.stats.case_count > 0 and session._waiting == {}
    session.run_acquisition()
    assert serialize_net(session.run_computation()) == serialize_net(standalone_net(log_data))
    session.finish()
    assert session.budget.in_use == 0
