"""Directly-follows statistics, dependency measures and net construction."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confine.eventlog import merge_case
from confine.hminer import (
    Arc,
    DfStats,
    MinerConfig,
    accumulate,
    and_split_measure,
    build_net,
    dependency_measure,
    serialize_net,
)

from conftest import enclave_rows


def _oracle_counts(cases):
    # independent single-pass counting, no shared code with DfStats
    df, act, start, end = Counter(), Counter(), Counter(), Counter()
    for acts in cases:
        act.update(acts)
        start[acts[0]] += 1
        end[acts[-1]] += 1
        df.update(zip(acts, acts[1:]))
    return df, act, start, end


# -- accumulate ----------------------------------------------------------------


def test_accumulate_two_case_ground_truth(hospital_log, pharma_log, clinic_log):
    t312 = merge_case(
        [enclave_rows("312", log.cases["312"]) for log in (hospital_log, pharma_log, clinic_log)]
    )
    t711 = merge_case([enclave_rows("711", log.cases["711"]) for log in (hospital_log, pharma_log)])
    stats = accumulate(DfStats(), [t312, t711])
    assert stats.df_count[("PH", "COPA")] == 2
    assert stats.df_count[("AD", "TP")] == 1
    assert stats.df_count[("AD", "PRTA")] == 1
    assert stats.start_count["PH"] == 2
    assert stats.end_count["DP"] == 2
    assert stats.case_count == 2


def test_accumulate_empty_batch_is_noop():
    stats = accumulate(DfStats(), [["A", "B"]])
    before = (dict(stats.df_count), dict(stats.activity_count), stats.case_count)
    accumulate(stats, [])
    assert (dict(stats.df_count), dict(stats.activity_count), stats.case_count) == before


def test_accumulate_rejects_empty_case():
    with pytest.raises(ValueError):
        accumulate(DfStats(), [()])


@pytest.mark.parametrize("batch", [
    [("A", "B"), ()],
    [(), ("C",)],
    [("A", "C", "A"), ("B",), ()],
], ids=["last", "first", "after-two"])
def test_batch_with_an_empty_case_leaves_the_stats_as_they_were(batch):
    stats = accumulate(DfStats(), [("A", "B"), ("B", "A", "B")])
    before = DfStats(
        dict(stats.df_count), dict(stats.activity_count),
        dict(stats.start_count), dict(stats.end_count), stats.case_count,
    )
    with pytest.raises(ValueError, match="at least one activity"):
        accumulate(stats, iter(batch))
    assert stats == before


def test_accumulate_invariants_on_random_cases():
    rng = random.Random(11)
    cases = [
        [rng.choice("ABCDE") for _ in range(rng.randrange(1, 9))]
        for _ in range(50)
    ]
    stats = accumulate(DfStats(), cases)
    assert sum(stats.start_count.values()) == stats.case_count == 50
    assert sum(stats.end_count.values()) == 50
    assert sum(stats.df_count.values()) == sum(len(c) - 1 for c in cases)


def test_accumulate_batched_equals_single_pass_oracle():
    rng = random.Random(3)
    cases = [
        [rng.choice("ABCDE") for _ in range(rng.randrange(1, 9))]
        for _ in range(50)
    ]
    batched = DfStats()
    for i in range(0, 50, 10):
        accumulate(batched, cases[i : i + 10])
    df, act, start, end = _oracle_counts(cases)
    assert batched.df_count == dict(df)
    assert batched.activity_count == dict(act)
    assert batched.start_count == dict(start)
    assert batched.end_count == dict(end)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=7))
def test_batch_order_and_partition_independence(seed, nbatches):
    rng = random.Random(seed)
    cases = [
        [rng.choice("ABCD") for _ in range(rng.randrange(1, 7))]
        for _ in range(rng.randrange(2, 25))
    ]
    once = accumulate(DfStats(), cases)
    shuffled = cases[:]
    rng.shuffle(shuffled)
    chunked = DfStats()
    size = max(1, len(shuffled) // nbatches)
    for i in range(0, len(shuffled), size):
        accumulate(chunked, shuffled[i : i + size])
    assert serialize_net(build_net(once)) == serialize_net(build_net(chunked))
    assert chunked.df_count == once.df_count


# -- measures -------------------------------------------------------------------


def _stats_with(df: dict) -> DfStats:
    stats = DfStats()
    stats.df_count.update(df)
    return stats


def test_dependency_direct_formula_values():
    stats = _stats_with({("a", "b"): 5})
    assert dependency_measure(stats, "a", "b") == pytest.approx(5 / 6)
    stats = _stats_with({("a", "b"): 3, ("b", "a"): 3})
    assert dependency_measure(stats, "a", "b") == 0.0


def test_dependency_from_two_case_counts(hospital_log, pharma_log, clinic_log):
    t312 = merge_case(
        [enclave_rows("312", log.cases["312"]) for log in (hospital_log, pharma_log, clinic_log)]
    )
    t711 = merge_case([enclave_rows("711", log.cases["711"]) for log in (hospital_log, pharma_log)])
    stats = accumulate(DfStats(), [t312, t711])
    assert stats.df_count[("PH", "COPA")] == 2
    assert stats.df_count.get(("COPA", "PH"), 0) == 0
    assert dependency_measure(stats, "PH", "COPA") == pytest.approx(2 / 3)


def test_dependency_self_loop_uses_own_count():
    stats = _stats_with({("a", "a"): 4})
    assert dependency_measure(stats, "a", "a") == pytest.approx(4 / 5)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_dependency_antisymmetric_and_bounded(ab, ba):
    stats = _stats_with({("a", "b"): ab, ("b", "a"): ba})
    d = dependency_measure(stats, "a", "b")
    assert d + dependency_measure(stats, "b", "a") == pytest.approx(0.0)
    assert -1.0 < d < 1.0


def test_and_measures_direct_formula():
    stats = _stats_with(
        {("a", "b"): 4, ("a", "c"): 5, ("b", "c"): 3, ("c", "b"): 2}
    )
    assert and_split_measure(stats, "a", "b", "c") == pytest.approx(5 / 10)
    # a join is a split of the reversed arcs: b and c join into a with
    # measure (3 + 2) / (4 + 5 + 1) = 0.5, exactly at the first threshold
    stats = _stats_with(
        {("b", "a"): 4, ("c", "a"): 5, ("b", "c"): 3, ("c", "b"): 2}
    )
    stats.case_count = 1
    for threshold, groups in ((0.5, (("b", "c"),)), (0.51, (("b",), ("c",)))):
        cfg = MinerConfig(dependency_threshold=0.5, and_threshold=threshold, all_activities_connected=False)
        assert build_net(stats, cfg).joins["a"] == groups


# -- config ----------------------------------------------------------------------


def test_config_defaults():
    cfg = MinerConfig()
    assert cfg.dependency_threshold == 0.9
    assert cfg.and_threshold == 0.65
    assert cfg.min_df_count == 1
    assert cfg.all_activities_connected is True


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dependency_threshold": 1.5},
        {"dependency_threshold": -0.1},
        {"and_threshold": 2.0},
        {"min_df_count": -1},
    ],
)
def test_config_range_validation(kwargs):
    with pytest.raises(ValueError):
        MinerConfig(**kwargs)


# -- build_net -------------------------------------------------------------------


def test_build_net_minimal_log():
    net = build_net(accumulate(DfStats(), [["A", "B"]]))
    assert net.arc_pairs() == {("A", "B")}
    assert net.start_activities == ("A",)
    assert net.end_activities == ("B",)


def test_build_net_empty_stats_is_error():
    with pytest.raises(ValueError):
        build_net(DfStats())


def test_build_net_threshold_zero_brute_force_oracle():
    rng = random.Random(17)
    cases = [
        [rng.choice("ABCDE") for _ in range(rng.randrange(2, 10))]
        for _ in range(40)
    ]
    stats = accumulate(DfStats(), cases)
    cfg = MinerConfig(dependency_threshold=0.0, all_activities_connected=False)
    net = build_net(stats, cfg)
    acts = sorted(stats.activity_count)
    expected = {
        (a, b)
        for a in acts
        for b in acts
        if stats.df_count.get((a, b), 0) >= 1 and dependency_measure(stats, a, b) >= 0.0
    }
    assert net.arc_pairs() == expected


def test_build_net_threshold_monotonicity():
    rng = random.Random(23)
    cases = [
        [rng.choice("ABCD") for _ in range(rng.randrange(2, 8))]
        for _ in range(30)
    ]
    stats = accumulate(DfStats(), cases)
    previous = None
    for thr in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
        arcs = build_net(
            stats, MinerConfig(dependency_threshold=thr, all_activities_connected=False)
        ).arc_pairs()
        if previous is not None:
            assert arcs <= previous
        previous = arcs


def test_all_connected_rescues_isolated_activities():
    cases = [["A", "B", "C"]] * 2 + [["A", "X", "C"]] * 8
    stats = accumulate(DfStats(), cases)
    bare = build_net(stats, MinerConfig(all_activities_connected=False))
    assert bare.arc_pairs() == set()
    net = build_net(stats, MinerConfig())
    assert net.arc_pairs() == {("A", "B"), ("B", "C"), ("A", "X"), ("X", "C")}


def test_all_connected_tie_breaks_on_df_then_label():
    stats = DfStats()
    stats.activity_count.update({"A": 25, "B": 25, "C": 4, "D": 40})
    stats.df_count.update(
        {("A", "D"): 20, ("B", "D"): 20, ("A", "C"): 2, ("C", "A"): 2, ("B", "C"): 1, ("C", "B"): 1}
    )
    stats.start_count.update({"A": 20, "B": 20})
    stats.end_count.update({"D": 37, "C": 3})
    stats.case_count = 40
    net = build_net(stats, MinerConfig())
    # C's incoming rescue: both candidates have dependency 0; df 2 beats 1
    assert ("A", "C") in net.arc_pairs()
    assert ("B", "C") not in net.arc_pairs()

    equal_df = DfStats()
    equal_df.activity_count.update({"A": 25, "B": 25, "C": 2, "D": 40})
    equal_df.df_count.update(
        {("A", "D"): 20, ("B", "D"): 20, ("A", "C"): 1, ("C", "A"): 1, ("B", "C"): 1, ("C", "B"): 1}
    )
    equal_df.start_count.update({"A": 20, "B": 20})
    equal_df.end_count.update({"D": 38, "C": 2})
    equal_df.case_count = 40
    net = build_net(equal_df, MinerConfig())
    # full tie: lexicographically smallest source wins
    assert ("A", "C") in net.arc_pairs()
    assert ("B", "C") not in net.arc_pairs()


def test_all_connected_excludes_self_loop_rescue():
    # a self-loop must not satisfy the connectivity requirement: B's rescue
    # arcs are A->B and B->C even though (B,B) has the same dependency
    stats = accumulate(DfStats(), [["A", "B", "B", "C"]])
    net = build_net(stats, MinerConfig())
    assert net.arc_pairs() == {("A", "B"), ("B", "C")}


def test_every_activity_connected_property():
    rng = random.Random(31)
    for trial in range(10):
        cases = [
            [rng.choice("ABCDEF") for _ in range(rng.randrange(2, 9))]
            for _ in range(25)
        ]
        stats = accumulate(DfStats(), cases)
        net = build_net(stats, MinerConfig())
        starts, ends = set(net.start_activities), set(net.end_activities)
        for act in net.activities:
            has_in = any(b == act and a != act for a, b in net.arc_pairs())
            has_out = any(a == act and b != act for a, b in net.arc_pairs())
            assert has_in or act in starts
            assert has_out or act in ends


def test_split_classification_xor_and():
    # S goes to both B and C in parallel (both orders observed), then one
    # of D or E exclusively
    cases = [["S", "B", "C", "Z", "D"], ["S", "C", "B", "Z", "E"]] * 5
    stats = accumulate(DfStats(), cases)
    net = build_net(stats, MinerConfig(dependency_threshold=0.5))
    assert net.splits["S"] == (("B", "C"),)
    assert net.splits["Z"] == (("D",), ("E",))
    assert net.joins["Z"] == (("B", "C"),)


def test_and_group_merges_two_earlier_groups():
    # B and C are unrelated, D is concurrent with both: D arrives last in
    # label order and must pull the two earlier groups into one
    df = {("S", x): 10 for x in "BCD"}
    df.update({(x, "T"): 10 for x in "BCD"})
    df.update({("B", "D"): 7, ("D", "B"): 7, ("C", "D"): 7, ("D", "C"): 7})
    stats = DfStats(
        df_count=df,
        activity_count={a: 10 for a in "SBCDT"},
        start_count={"S": 10},
        end_count={"T": 10},
        case_count=10,
    )
    assert and_split_measure(stats, "S", "B", "C") == 0
    assert and_split_measure(stats, "S", "B", "D") >= 0.65
    assert and_split_measure(stats, "S", "C", "D") >= 0.65
    net = build_net(stats)
    assert net.splits["S"] == (("B", "C", "D"),)
    assert net.joins["T"] == (("B", "C", "D"),)


# -- serialization ----------------------------------------------------------------


def test_serialize_dot_single_edge():
    net = build_net(accumulate(DfStats(), [["A", "B"]]))
    dot = serialize_net(net, "dot")
    assert dot.count("->") == 1
    assert '"A" -> "B"' in dot


def test_serialize_dot_no_arcs_lists_nodes():
    stats = accumulate(DfStats(), [["A"], ["B"]])
    net = build_net(stats, MinerConfig(all_activities_connected=False))
    dot = serialize_net(net, "dot")
    assert "->" not in dot
    assert '"A"' in dot and '"B"' in dot


def test_serialize_json_round_trip(hospital_log, pharma_log, clinic_log):
    t312 = merge_case(
        [enclave_rows("312", log.cases["312"]) for log in (hospital_log, pharma_log, clinic_log)]
    )
    t711 = merge_case([enclave_rows("711", log.cases["711"]) for log in (hospital_log, pharma_log)])
    stats = accumulate(DfStats(), [t312, t711])
    config = MinerConfig(dependency_threshold=0.5)
    net = build_net(stats, config)
    text = serialize_net(net)
    # canonical: the parsed text writes back byte for byte, and mining again gives it
    raw = json.loads(text)
    assert json.dumps(raw, sort_keys=True, indent=2) + "\n" == text
    assert serialize_net(build_net(stats, config)) == text
    assert raw["activities"] == list(net.activities)
    assert [Arc(**arc) for arc in raw["arcs"]] == list(net.arcs)


def test_serialize_deterministic_ordering():
    rng = random.Random(5)
    cases = [
        [rng.choice("ABCDE") for _ in range(rng.randrange(2, 8))]
        for _ in range(20)
    ]
    stats = accumulate(DfStats(), cases)
    assert serialize_net(build_net(stats)) == serialize_net(build_net(stats))


def test_serialize_unknown_format():
    net = build_net(accumulate(DfStats(), [["A", "B"]]))
    with pytest.raises(ValueError):
        serialize_net(net, "yaml")


def test_estimate_bytes_grows_with_content():
    empty = DfStats().estimate_bytes()
    stats = accumulate(DfStats(), [["A", "B", "C"]])
    assert stats.estimate_bytes() > empty
