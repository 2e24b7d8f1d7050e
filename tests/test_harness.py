"""Experiment harness tests: scenario generator, memory runs, regressions, splits."""

import csv
import json
import time
from datetime import datetime, timedelta, timezone

import pytest

from confine.eventlog import (
    Event,
    PartitionError,
    parse_csv,
    parse_timestamp,
    parse_xes,
    partition_by_org,
    serialize_log,
)
from confine.harness import (
    ALL_ACTIVITIES,
    LOOP_UNIT,
    REFERENCE_SCALABILITY_STATS,
    SCALABILITY_TESTS,
    SCENARIO_ORG_MAP,
    SEPSIS_SCHEME_MAP,
    SPLIT_SCHEMES,
    SWEEP_SIZES,
    ScenarioParams,
    VARIANT_SPECIALIZED,
    VARIANT_STANDARD,
    activity_org_map,
    fit_trends,
    generate_scenario_log,
    run_convergence,
    run_memory_experiment,
    run_protocol,
    run_scalability_suite,
    split_real_log,
    standalone_net,
    write_scenario_files,
)
from confine.hminer import serialize_net
from confine.miner import STAGES
from confine import harness
from confine.wire import KIB, segment_log

from conftest import log_of


# ---------------------------------------------------------------------------
# scenario generator


def test_activity_inventory():
    assert len(ALL_ACTIVITIES) == 19
    assert len(VARIANT_SPECIALIZED) == 18
    assert len(VARIANT_STANDARD) == 12
    assert set(VARIANT_SPECIALIZED) | set(VARIANT_STANDARD) == set(ALL_ACTIVITIES)
    assert LOOP_UNIT == VARIANT_SPECIALIZED[:16]


def test_generate_counts_and_lengths():
    log, org_map = generate_scenario_log(ScenarioParams(cases=200, seed=7))
    assert len(log.cases) == 200
    assert log.case_refs()[0] == "case00000"
    assert log.case_refs()[-1] == "case00199"
    assert {len(rows) for rows in log.cases.values()} == {12, 18}
    assert org_map == SCENARIO_ORG_MAP
    assert all(ev.org == org_map[ev.activity] for ev in log.events())


def test_generate_mean_length_near_mixture():
    log, _ = generate_scenario_log(ScenarioParams(cases=3000, seed=5))
    mean = log.event_count() / len(log.cases)
    assert abs(mean - 14.0) < 0.3  # 2/3 * 12 + 1/3 * 18


@pytest.mark.parametrize("x", [2, 5, 16])
def test_loop_iterations_stretch_specialized_variant(x):
    log, _ = generate_scenario_log(ScenarioParams(cases=60, loop_iterations=x, seed=11))
    lengths = {len(rows) for rows in log.cases.values()}
    assert lengths == {12, 16 * x + 2}


def test_generator_is_deterministic_per_seed():
    a1, _ = generate_scenario_log(ScenarioParams(cases=60, seed=1))
    a2, _ = generate_scenario_log(ScenarioParams(cases=60, seed=1))
    b, _ = generate_scenario_log(ScenarioParams(cases=60, seed=2))
    from confine.eventlog import serialize_log

    assert serialize_log(a1) == serialize_log(a2)
    assert serialize_log(a1) != serialize_log(b)


def test_generator_timing_grid():
    log, _ = generate_scenario_log(ScenarioParams(cases=3, seed=9))
    base = datetime(2022, 7, 14, 8, 0, tzinfo=timezone.utc)
    stamps = [ts for ts, _, _ in log.cases["case00002"]]
    assert stamps[0] == base + timedelta(seconds=120)
    steps = [(b - a).total_seconds() for a, b in zip(stamps, stamps[1:])]
    assert steps == [60.0] * (len(stamps) - 1)


def test_serialize_log_writes_scenario_in_global_time_order():
    # cases overlap in time, so case order alone would not be time order
    log, _ = generate_scenario_log(ScenarioParams(cases=20, seed=3))
    text = serialize_log(log)
    stamps = [parse_timestamp(line.split(",")[1]) for line in text.splitlines()[1:]]
    assert len(stamps) == log.event_count()
    assert stamps == sorted(stamps)
    assert stamps != [ev.timestamp for ev in log.events()]
    assert parse_csv(text) == log


def test_org_map_three_way_pools():
    m = activity_org_map(3)
    assert m == SCENARIO_ORG_MAP
    pools = {}
    for act, org in m.items():
        pools.setdefault(org, set()).add(act)
    assert len(pools["H"]) == 11
    assert len(pools["P"]) == 3
    assert len(pools["C"]) == 5


def test_org_map_round_robin():
    m = activity_org_map(5)
    assert set(m) == set(ALL_ACTIVITIES)
    counts = {}
    for org in m.values():
        counts[org] = counts.get(org, 0) + 1
    assert counts == {"O1": 4, "O2": 4, "O3": 4, "O4": 4, "O5": 3}


@pytest.mark.parametrize(
    "kw",
    [
        {"cases": -1},
        {"specialized_care_prob": 1.5},
        {"loop_iterations": 0},
        {"org_count": 0},
    ],
)
def test_params_validation(kw):
    with pytest.raises(ValueError):
        ScenarioParams(**kw)


# ---------------------------------------------------------------------------
# protocol drivers


def test_run_convergence_loopback(tmp_path):
    row = run_convergence(ScenarioParams(cases=40, seed=3), seg_size=100 * KIB, metrics_dir=tmp_path)
    # the same row a memory run or a scalability cell records
    assert list(row) == ["seg_size", "events", "status", "error", *harness._MEASURES]
    assert row["status"] == "ok" and row["converged"] is True
    assert row["seg_size"] == 100 * KIB
    assert row["events"] in range(40 * 12, 40 * 18 + 1)
    assert row["peak_bytes"] > 0 and row["final_in_use"] == 0
    assert row["elapsed_ms"] >= 0.0
    assert [p.name for p in tmp_path.iterdir()] == [f"segsize_{100 * KIB}_metrics.csv"]


def test_run_convergence_networked():
    row = run_convergence(ScenarioParams(cases=20, seed=4), networked=True)
    assert row["status"] == "ok" and row["converged"] is True


def test_run_convergence_times_no_key_generation(monkeypatch, identity):
    # each cell generates its enclave key as set-up, outside the timed session
    sleep_s = 0.5

    def slow_generate():
        time.sleep(sleep_s)
        return identity

    monkeypatch.setattr(harness.EnclaveIdentity, "generate", slow_generate)
    row = run_convergence(ScenarioParams(cases=10, seed=5))
    assert row["converged"] is True
    assert row["elapsed_ms"] < sleep_s * 1000, row


@pytest.mark.parametrize("networked", [False, True])
def test_run_protocol_builds_no_event_or_view(monkeypatch, networked):
    # logs are built, split, parsed and mined as plain rows: a set-up or a
    # session that builds an Event anywhere pays for objects mining never reads
    built: list[str] = []
    post_init = Event.__post_init__

    def counted(ev):
        built.append(ev.case_ref)
        post_init(ev)

    monkeypatch.setattr(Event, "__post_init__", counted)
    log, org_map = generate_scenario_log(ScenarioParams(cases=20, seed=3))
    parts = {
        org: parse_csv(serialize_log(part), source_org=org)
        for org, part in partition_by_org(log, org_map).items()
    }
    xes = parse_xes(
        "<log><trace><string key='concept:name' value='312'/><event>"
        "<string key='concept:name' value='PH'/><date key='time:timestamp' value='2022-07-14T10:36'/>"
        "</event></trace></log>"
    )
    assert xes.event_count() == 1
    session = run_protocol(parts, networked=networked)
    assert session.net is not None
    assert built == []


def test_run_protocol_incremental_equivalence():
    log, org_map = generate_scenario_log(ScenarioParams(cases=50, seed=8))
    parts = partition_by_org(log, org_map)
    one = run_protocol(parts, seg_size=4 * KIB)
    inc = run_protocol(parts, seg_size=4 * KIB, mode="incremental", batch_cases=10)
    assert serialize_net(one.net) == serialize_net(inc.net)
    assert one.budget.in_use == 0 and inc.budget.in_use == 0


def test_run_protocol_allows_the_sessions_miner_id():
    log, org_map = generate_scenario_log(ScenarioParams(cases=10, seed=8))
    session = run_protocol(partition_by_org(log, org_map), miner_id="auditor")
    assert session.miner_id == "auditor"
    assert serialize_net(session.net) == serialize_net(standalone_net(log))


# ---------------------------------------------------------------------------
# memory runs


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def test_memory_stage_profile(tmp_path):
    summary = run_memory_experiment(
        out_dir=tmp_path, params=ScenarioParams(cases=30, seed=2), seg_sizes=(64 * KIB,)
    )
    (run,) = summary["runs"]
    assert summary["cases"] == 30
    assert run["status"] == "ok" and run["converged"]
    assert run["final_in_use"] == 0
    assert run["peak_bytes"] > 0
    # the stage profile is the run's metrics CSV
    profile = _read_csv(tmp_path / f"segsize_{64 * KIB}_metrics.csv")
    assert sorted({row["stage"] for row in profile}) == sorted(STAGES)
    assert max(int(row["peak_bytes"]) for row in profile) == run["peak_bytes"]
    assert json.loads((tmp_path / "memory_summary.json").read_text()) == summary


def test_memory_with_without_compute(tmp_path):
    summary = run_memory_experiment(
        out_dir=tmp_path,
        params=ScenarioParams(cases=30, seed=2),
        seg_sizes=(4 * KIB, 64 * KIB),
        mode="incremental",
        batch_cases=10,
    )
    for run in summary["runs"]:
        assert run["final_in_use"] == 0
        # mining charges the statistics while case buffers are still held
        assert run["peak_before_compute"] <= run["peak_bytes"]
        # without computation a session stops at its first compute row
        profile = _read_csv(tmp_path / f"segsize_{run['seg_size']}_metrics.csv")
        first = next(row for row in profile if row["stage"] == "compute")
        assert int(first["peak_bytes"]) == run["peak_before_compute"]


def test_memory_segsize_sweep(tmp_path):
    params = ScenarioParams(cases=40, seed=2)
    summary = run_memory_experiment(out_dir=tmp_path, params=params, seg_sizes=(4 * KIB, 64 * KIB))
    rows = {r["seg_size"]: r for r in summary["runs"]}
    assert rows[4 * KIB]["status"] == "ok"
    assert rows[64 * KIB]["status"] == "ok"
    assert not rows[4 * KIB]["single_segment"]
    assert rows[64 * KIB]["single_segment"]
    assert rows[4 * KIB]["peak_bytes"] <= rows[64 * KIB]["peak_bytes"]
    table = _read_csv(tmp_path / "memory_runs.csv")
    assert [int(r["seg_size"]) for r in table] == [4 * KIB, 64 * KIB]
    assert list(table[0]) == list(summary["runs"][0])


@pytest.mark.parametrize("cases", [1, 2, 40])
def test_memory_single_segment_agrees_with_segmentation(cases):
    log, org_map = generate_scenario_log(ScenarioParams(cases=cases, seed=2))
    parts = partition_by_org(log, org_map)
    sizes = (KIB, 2 * KIB, 4 * KIB, 16 * KIB, 64 * KIB)
    runs = run_memory_experiment(params=ScenarioParams(cases=cases, seed=2), seg_sizes=sizes)["runs"]
    for run in runs:
        packed = [segment_log(sub, sub.case_refs(), run["seg_size"], org) for org, sub in parts.items()]
        assert run["single_segment"] == all(len(segments) <= 1 for segments in packed), run["seg_size"]


def test_memory_sweep_reports_capacity_exhaustion(tmp_path):
    summary = run_memory_experiment(
        out_dir=tmp_path,
        params=ScenarioParams(cases=40, seed=2),
        seg_sizes=(64 * KIB,),
        capacity=2000,
    )
    (row,) = summary["runs"]
    assert row["status"] == "memory_exceeded"
    assert "capacity" in row["error"]
    assert row["peak_bytes"] is None and row["converged"] is None
    (cell,) = _read_csv(tmp_path / "memory_runs.csv")
    assert cell["status"] == "memory_exceeded" and cell["peak_bytes"] == ""
    assert not (tmp_path / f"segsize_{64 * KIB}_metrics.csv").exists()


# Taken at the parent of the single-runner rewrite from its segsize_sweep and
# with_without_compute presets: (seg_size, peak_bytes, peak_before_compute,
# single_segment) on 200 cases, seed 2. Each peak holds one wrapped delivery
# key, 92 B since the HPKE wrap where it was 384 B, so each fell by 292 B.
PINNED_RUNS = [
    (64 * KIB, 231_451, 231_451, False),
    (128 * KIB, 263_650, 263_650, True),
    (256 * KIB, 263_650, 263_650, True),
    (512 * KIB, 263_650, 263_650, True),
    (1024 * KIB, 263_650, 263_650, True),
    (2048 * KIB, 263_650, 263_650, True),
    (4096 * KIB, 263_650, 263_650, True),
]


def test_memory_figures_match_pinned_values():
    runs = run_memory_experiment(params=ScenarioParams(cases=200, seed=2))["runs"]
    assert SWEEP_SIZES == tuple(seg for seg, *_ in PINNED_RUNS)
    got = [(r["seg_size"], r["peak_bytes"], r["peak_before_compute"], r["single_segment"]) for r in runs]
    assert got == PINNED_RUNS
    assert all(r["status"] == "ok" and r["converged"] and r["final_in_use"] == 0 for r in runs)


def test_memory_refuses_empty_seg_sizes():
    with pytest.raises(ValueError, match="empty"):
        run_memory_experiment(params=ScenarioParams(cases=5), seg_sizes=())


# ---------------------------------------------------------------------------
# regression statistics


def test_regression_recovers_perfect_linear_trend():
    xs = list(range(1, 9))
    ys = [3.0 * x + 7.0 for x in xs]
    stats = fit_trends(xs, ys)
    assert list(stats) == ["r2_lin", "r2_log", "slope_hat"]
    assert abs(stats["r2_lin"] - 1.0) < 1e-9
    assert abs(stats["slope_hat"] - 3.0) < 1e-9
    assert 0.0 < stats["r2_log"] < 0.999


def test_regression_recovers_perfect_log_trend():
    import math

    xs = list(range(1, 9))
    ys = [2.0 * math.log(x) + 5.0 for x in xs]
    stats = fit_trends(xs, ys)
    assert abs(stats["r2_log"] - 1.0) < 1e-9
    assert stats["r2_lin"] < 0.999


@pytest.mark.parametrize("xs,ys", [([], []), ([1.0], [2.0])])
def test_regression_too_few_points(xs, ys):
    assert fit_trends(xs, ys) == {"r2_lin": 0.0, "r2_log": 0.0, "slope_hat": 0.0}


def test_regression_zero_variance_reports_zero():
    flat = fit_trends([1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0])
    assert flat["r2_lin"] == 0.0 and flat["r2_log"] == 0.0
    assert fit_trends([2, 2, 2], [1.0, 2.0, 3.0]) == {"r2_lin": 0.0, "r2_log": 0.0, "slope_hat": 0.0}


def test_regression_length_mismatch():
    with pytest.raises(ValueError):
        fit_trends([1, 2], [1.0])


def test_reference_stats_shape():
    assert set(REFERENCE_SCALABILITY_STATS) == set(SCALABILITY_TESTS)
    for per_seg in REFERENCE_SCALABILITY_STATS.values():
        for stats in per_seg.values():
            assert set(stats) == {"r2_lin", "slope_hat", "r2_log"}
            assert all(isinstance(v, float) for v in stats.values())


# ---------------------------------------------------------------------------
# scalability suite


def test_scalability_suite_small_grid(tmp_path):
    summary = run_scalability_suite(
        "cases", out_dir=tmp_path, xs=(8, 16), seg_sizes=(100 * KIB,)
    )
    assert summary["all_converged"]
    assert len(summary["cells"]) == 2
    assert all(c["converged"] for c in summary["cells"])
    reg = summary["regressions"][str(100 * KIB)]
    assert set(reg) == {"r2_lin", "r2_log", "slope_hat"}
    assert summary["reference_stats"] == REFERENCE_SCALABILITY_STATS["cases"]
    assert json.loads((tmp_path / "scale_cases_summary.json").read_text()) == summary
    table = _read_csv(tmp_path / "scale_cases_cells.csv")
    assert [(int(c["x"]), c["status"], c["converged"]) for c in table] == [(8, "ok", "True"), (16, "ok", "True")]


def test_scalability_cells_match_pinned_values():
    # taken at the parent of the single-runner rewrite: (x, peak_bytes, converged),
    # each peak less 292 B for the smaller wrapped key (384 B -> 92 B)
    summary = run_scalability_suite("cases", xs=(64, 128), seg_sizes=(100 * KIB,))
    got = [(c["x"], c["peak_bytes"], c["converged"]) for c in summary["cells"]]
    assert got == [(64, 85_062, True), (128, 169_974, True)]


def test_scalability_sweeps_one_field_of_the_given_scenario():
    params = ScenarioParams(cases=20, specialized_care_prob=0.5, seed=3)
    summary = run_scalability_suite("orgs", xs=(2, 4), seg_sizes=(100 * KIB,), params=params)
    expected = [generate_scenario_log(ScenarioParams(20, 0.5, 1, orgs, 3))[0].event_count() for orgs in (2, 4)]
    assert [c["events"] for c in summary["cells"]] == expected
    assert summary["all_converged"]


def test_scalability_fit_leaves_out_exhausted_cells(monkeypatch):
    # a budget that 8, 16 and 32 cases fit (peaks 11,426 to 43,268 B) and 64 do not
    real = harness.run_protocol
    monkeypatch.setattr(harness, "run_protocol", lambda *a, **kw: real(*a, capacity=60_000, **kw))
    summary = run_scalability_suite("cases", xs=(8, 16, 32, 64), seg_sizes=(100 * KIB,))
    statuses = [c["status"] for c in summary["cells"]]
    assert statuses == ["ok", "ok", "ok", "memory_exceeded"]
    ok = summary["cells"][:3]
    fit = fit_trends([c["x"] for c in ok], [c["peak_bytes"] for c in ok])
    assert summary["regressions"][str(100 * KIB)] == fit
    assert not summary["all_converged"]


@pytest.mark.parametrize("kw", [{"xs": ()}, {"seg_sizes": ()}], ids=["xs", "seg_sizes"])
def test_scalability_refuses_empty_grids(kw):
    with pytest.raises(ValueError, match="empty"):
        run_scalability_suite("cases", **kw)


def test_scalability_unknown_test():
    with pytest.raises(ValueError, match="unknown test"):
        run_scalability_suite("latency")


# ---------------------------------------------------------------------------
# real-log splitting


def _toy_log(rows):
    base = datetime(2022, 1, 1, tzinfo=timezone.utc)
    return log_of((ref, base + timedelta(minutes=i), org, act) for i, (ref, act, org) in enumerate(rows))


def test_split_sepsis_care_paths():
    log = _toy_log([
        ("s1", "ER Registration", ""),
        ("s1", "ER Triage", ""),
        ("s1", "Admission IC", ""),
        ("s2", "ER Registration", ""),
        ("s2", "Admission NC", ""),
        ("s2", "Release A", ""),
    ])
    parts = split_real_log(log, "sepsis_care_paths")
    assert set(parts) == {"intensive_care", "normal_care"}
    assert parts["intensive_care"].event_count() == 1
    assert parts["normal_care"].event_count() == 5
    assert set(SEPSIS_SCHEME_MAP.values()) == {"intensive_care", "normal_care"}


def test_split_sepsis_rejects_unknown_activity():
    log = _toy_log([("s1", "ER Registration", ""), ("s1", "Surgery", "")])
    with pytest.raises(PartitionError, match="Surgery"):
        split_real_log(log, "sepsis_care_paths")


def test_split_departments_by_org_field():
    log = _toy_log([
        ("c1", "A", "D1"), ("c1", "B", "D2"), ("c1", "C", "D3"),
        ("c2", "A", "D1"), ("c2", "C", "D3"),
    ])
    parts = split_real_log(log, "bpic_departments")
    assert set(parts) == {"D1", "D2", "D3"}
    assert parts["D1"].event_count() == 2
    assert parts["D2"].event_count() == 1
    assert parts["D3"].event_count() == 2


def test_split_departments_needs_exactly_three():
    log = _toy_log([("c1", "A", "D1"), ("c1", "B", "D2")])
    with pytest.raises(PartitionError, match="exactly 3"):
        split_real_log(log, "bpic_departments")


def test_split_departments_needs_org_values():
    log = _toy_log([("c1", "A", "D1"), ("c1", "B", "D2"), ("c1", "C", "")])
    with pytest.raises(PartitionError, match="org value"):
        split_real_log(log, "bpic_departments")


def test_split_unknown_scheme():
    log = _toy_log([("c1", "A", "")])
    with pytest.raises(ValueError, match="unknown scheme"):
        split_real_log(log, "by_vibes")
    assert "sepsis_care_paths" in SPLIT_SCHEMES


# ---------------------------------------------------------------------------
# scenario file output


def test_write_scenario_files(tmp_path):
    params = ScenarioParams(cases=12, seed=6)
    log_path, map_path = write_scenario_files(tmp_path, params)
    assert log_path.name == "scenario_log.csv"
    assert map_path.name == "activity_org_map.json"
    round_trip = parse_csv(log_path.read_text(encoding="utf-8"))
    expected, org_map = generate_scenario_log(params)
    assert round_trip.case_refs() == expected.case_refs()
    assert round_trip.event_count() == expected.event_count()
    assert json.loads(map_path.read_text(encoding="utf-8")) == org_map


def test_protocol_standalone_agreement_is_meaningful():
    # same data, different org carve-up: the protocol result must not move
    log, _ = generate_scenario_log(ScenarioParams(cases=25, seed=13))
    ref = serialize_net(standalone_net(log))
    for k in (2, 5):
        parts = partition_by_org(log, activity_org_map(k))
        session = run_protocol(parts, seg_size=8 * KIB)
        assert serialize_net(session.net) == ref


def test_protocol_matches_standalone_when_holders_tie():
    # an empty org column cannot tell the holders apart; the tie falls to
    # the activity, which orders the pooled log and the merge alike
    t0 = datetime(2022, 7, 14, 10, tzinfo=timezone.utc)
    t1 = t0 + timedelta(hours=1)
    log = log_of([("c1", t0, "", "S"), ("c1", t1, "", "B"), ("c1", t1, "", "A")])
    parts = partition_by_org(log, {"S": "X", "B": "X", "A": "Y"})
    assert serialize_net(run_protocol(parts).net) == serialize_net(standalone_net(log))
