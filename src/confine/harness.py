"""Experiment toolchain: scenario generator, convergence, memory, scale.

The synthetic healthcare scenario has two trace variants, a specialized
care path of 18 activities drawn with probability 1/3 and a standard path
of 12, giving a mean length of 14. The specialized path can repeat its
first 16 activities, so with x loop iterations a case grows to
18 + 16*(x-1) events. All experiment drivers run real protocol sessions,
by default over the in-process loopback transport.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import random
import statistics
import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from datetime import timedelta
from pathlib import Path

from .attest import EnclaveIdentity, ReferenceRegistry
from .eventlog import EventLog, PartitionError, Row, parse_timestamp, partition_by_org, serialize_log
from .hminer import DfStats, HeuristicsNet, MinerConfig, accumulate, build_net, serialize_net
from .miner import EnclaveMemoryExceeded, MinerReceiver, MinerSession
from .provisioner import ProvisionerServer, ProvisionerService
from .transport import HttpTransport, LoopbackHub
from .wire import DEFAULT_SEG_SIZE, KIB, MIB

__all__ = [
    "VARIANT_SPECIALIZED",
    "VARIANT_STANDARD",
    "LOOP_UNIT",
    "SCENARIO_ORG_MAP",
    "ScenarioParams",
    "generate_scenario_log",
    "activity_org_map",
    "standalone_net",
    "run_protocol",
    "run_convergence",
    "SWEEP_SIZES",
    "run_memory_experiment",
    "fit_trends",
    "run_scalability_suite",
    "REFERENCE_SCALABILITY_STATS",
    "SEPSIS_SCHEME_MAP",
    "split_real_log",
]

log = logging.getLogger(__name__)

VARIANT_SPECIALIZED = (
    "PH", "COPA", "OD", "DOR", "PDL", "SD", "RD", "AD", "TP", "PAFH",
    "PIA", "PT", "VRT", "TPB", "RPB", "DPH", "PCD", "DP",
)
VARIANT_STANDARD = (
    "PH", "COPA", "OD", "DOR", "PDL", "SD", "RD", "AD", "PRTA", "PCD", "DPH", "DP",
)
# Repeatable portion of the specialized path: everything before the final
# PCD, DP tail. One extra iteration adds exactly 16 events.
LOOP_UNIT = VARIANT_SPECIALIZED[:16]

ALL_ACTIVITIES = tuple(sorted(set(VARIANT_SPECIALIZED) | set(VARIANT_STANDARD)))

SCENARIO_ORG_MAP = {
    # pharmaceutical company
    "DOR": "P", "PDL": "P", "SD": "P",
    # specialized clinic
    "PAFH": "C", "PIA": "C", "PT": "C", "VRT": "C", "TPB": "C",
    # hospital holds the remainder
    "PH": "H", "COPA": "H", "OD": "H", "RD": "H", "AD": "H", "TP": "H",
    "RPB": "H", "DPH": "H", "PCD": "H", "DP": "H", "PRTA": "H",
}

_BASE_TIME = parse_timestamp("2022-07-14T08:00:00Z")
_CASE_SPACING_S = 60
_EVENT_STEP_S = 60


@dataclass(frozen=True, slots=True)
class ScenarioParams:
    cases: int = 1000
    specialized_care_prob: float = 1 / 3
    loop_iterations: int = 1
    org_count: int = 3
    seed: int = 42

    def __post_init__(self) -> None:
        if self.cases < 0:
            raise ValueError(f"cases must be >= 0, got {self.cases}")
        if not 0.0 <= self.specialized_care_prob <= 1.0:
            raise ValueError(f"specialized_care_prob outside [0, 1], got {self.specialized_care_prob}")
        if self.loop_iterations < 1:
            raise ValueError(f"loop_iterations must be >= 1, got {self.loop_iterations}")
        if self.org_count < 1:
            raise ValueError(f"org_count must be >= 1, got {self.org_count}")


def activity_org_map(org_count: int = 3) -> dict[str, str]:
    """Scenario assignment for 3 orgs, round-robin pools otherwise."""
    if org_count == 3:
        return dict(SCENARIO_ORG_MAP)
    return {act: f"O{(i % org_count) + 1}" for i, act in enumerate(ALL_ACTIVITIES)}


def generate_scenario_log(params: ScenarioParams = ScenarioParams()) -> tuple[EventLog, dict[str, str]]:
    """Deterministic synthetic log plus its activity to org assignment."""
    rng = random.Random(params.seed)
    org_map = activity_org_map(params.org_count)
    cases: dict[str, list[Row]] = {}
    for i in range(params.cases):
        ref = f"case{i:05d}"
        if rng.random() < params.specialized_care_prob:
            acts = list(LOOP_UNIT) * params.loop_iterations + list(VARIANT_SPECIALIZED[16:])
        else:
            acts = list(VARIANT_STANDARD)
        start = _BASE_TIME + timedelta(seconds=i * _CASE_SPACING_S)
        cases[ref] = [
            (start + timedelta(seconds=j * _EVENT_STEP_S), org_map[act], act) for j, act in enumerate(acts)
        ]
    return EventLog(cases), org_map


# ---------------------------------------------------------------------------
# protocol drivers


def standalone_net(log_data: EventLog, config: MinerConfig = MinerConfig()) -> HeuristicsNet:
    """Reference result: mine the unpartitioned log in one process."""
    stats = DfStats()
    accumulate(stats, [[act for _, _, act in rows] for rows in log_data.cases.values()])
    return build_net(stats, config)


def run_protocol(partitions: dict[str, EventLog], networked: bool = False, **session_args) -> MinerSession:
    """Run one full protocol session against per-org provisioners.

    ``session_args`` (``seg_size``, ``mode``, ``batch_cases``, ``capacity``,
    ``miner_config``, ``miner_id``, ``identity``) go to ``MinerSession`` as
    they are; every provisioner trusts the session's measurement and allows
    its miner id. Returns the finished session; the net is on session.net,
    budget and metrics on the session as well.
    """
    transport = HttpTransport() if networked else LoopbackHub()
    session = MinerSession(providers=[], transport=transport, callback_url="loop://miner", **session_args)
    registry = ReferenceRegistry.of(session.identity.measurement)
    with ExitStack() as servers:
        if networked:
            servers.callback(transport.close)
            receiver = MinerReceiver(session).start()
            servers.callback(receiver.close)
            session.callback_url = receiver.url
        else:
            transport.register_receiver(session.callback_url, session.enqueue)
        for org in sorted(partitions):
            service = ProvisionerService(
                org_id=org,
                log_data=partitions[org],
                registry=registry,
                allowed_miners={session.miner_id},
                push=transport.push_segment,
            )
            if networked:
                server = ProvisionerServer(service).start()
                servers.callback(server.close)
                url = server.url
            else:
                url = f"loop://{org}"
                transport.register_provisioner(url, service)
            session.providers.append(url)
        session.run()
    return session


# ---------------------------------------------------------------------------
# experiment cells and the memory experiment

SWEEP_SIZES = (64 * KIB, 128 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB, 4 * MIB)

# the columns a memory_exceeded cell leaves empty, in the order _run_cell writes them
_MEASURES = ("elapsed_ms", "peak_bytes", "peak_before_compute", "final_in_use", "converged", "single_segment")


def _write(out_dir: str | Path | None, name: str, text: str) -> None:
    if out_dir is None:
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(text, encoding="utf-8")


def _write_table(out_dir: str | Path | None, name: str, rows: list[dict]) -> None:
    """Write rows that share one key order as CSV; None is an empty cell."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write(out_dir, name, text.getvalue())


def _scenario(params: ScenarioParams) -> tuple[dict[str, EventLog], str]:
    """A scenario's per-org partitions and its standalone net's JSON text.

    A log without cases has no net, and its session refuses to mine with a
    DeliveryError before anything is compared.
    """
    log_data, org_map = generate_scenario_log(params)
    reference = serialize_net(standalone_net(log_data)) if len(log_data) else ""
    return partition_by_org(log_data, org_map), reference


def _run_cell(
    partitions: dict[str, EventLog],
    reference: str,
    seg_size: int,
    metrics_dir: str | Path | None = None,
    **session_args,
) -> dict:
    """Run one protocol session at one segment size, recorded as one table row.

    ``peak_before_compute`` is the peak on the first compute metrics row,
    ``converged`` compares the mined net with ``reference``, and
    ``single_segment`` says every org's delivery was at most one segment,
    from the session's count of the segments it opened. The session's
    metrics CSV, its stage profile, goes to ``metrics_dir`` when one is given.
    """
    cell = {"seg_size": seg_size, "events": sum(sub.event_count() for sub in partitions.values())}
    identity = EnclaveIdentity.generate()  # set-up, outside the timed session
    t0 = time.perf_counter()
    try:
        session = run_protocol(partitions, seg_size=seg_size, identity=identity, **session_args)
    except EnclaveMemoryExceeded as exc:
        return {**cell, "status": "memory_exceeded", "error": str(exc), **dict.fromkeys(_MEASURES)}
    elapsed_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    _write(metrics_dir, f"segsize_{seg_size}_metrics.csv", session.metrics_csv())
    log.info("cell seg=%d events=%d peak=%d", seg_size, cell["events"], session.budget.peak)
    return {
        **cell,
        "status": "ok",
        "error": None,
        "elapsed_ms": elapsed_ms,
        "peak_bytes": session.budget.peak,
        "peak_before_compute": next(row[3] for row in session.metrics if row[1] == "compute"),
        "final_in_use": session.budget.in_use,
        "converged": session.net is not None and serialize_net(session.net) == reference,
        "single_segment": all(n <= 1 for n in session.segments_opened.values()),
    }


def run_convergence(
    params: ScenarioParams = ScenarioParams(),
    seg_size: int = DEFAULT_SEG_SIZE,
    **cell_args,
) -> dict:
    """Mine a scenario standalone and via the protocol, as one recorded cell.

    Returns the ``_run_cell`` row, whose ``converged`` is the exact net
    comparison; ``metrics_dir`` and ``run_protocol``'s keywords pass through.
    """
    return _run_cell(*_scenario(params), seg_size, **cell_args)


def run_memory_experiment(
    out_dir: str | Path | None = None,
    params: ScenarioParams = ScenarioParams(),
    seg_sizes: tuple[int, ...] = SWEEP_SIZES,
    **session_args,
) -> dict:
    """Run one session per segment size on one scenario.

    The peak stops growing from the first run whose ``single_segment`` is
    true. Writes each run's metrics CSV, ``memory_runs.csv`` and
    ``memory_summary.json``. ``session_args`` go to every session.
    """
    if not seg_sizes:
        raise ValueError("seg_sizes must not be empty")
    partitions, reference = _scenario(params)
    runs = [_run_cell(partitions, reference, seg, out_dir, **session_args) for seg in seg_sizes]
    summary = {"cases": params.cases, "runs": runs}
    _write_table(out_dir, "memory_runs.csv", runs)
    _write(out_dir, "memory_summary.json", json.dumps(summary, indent=2) + "\n")
    return summary


# ---------------------------------------------------------------------------
# regression statistics and scalability suite


def fit_trends(xs: list[float], ys: list[float]) -> dict[str, float]:
    """Least squares y = a + b*x and y = a + b*ln(x): ``r2_lin``, ``r2_log``, ``slope_hat``.

    Each r2 is its fit's squared correlation, and ``slope_hat`` is the
    linear fit's b. Degenerate inputs (fewer than two points or zero
    variance) report 0 by convention instead of failing, as does
    ``r2_log`` when an x is not positive.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("x and y series differ in length")

    def r2(us: list[float]) -> float:
        try:
            return statistics.correlation(us, ys) ** 2
        except statistics.StatisticsError:
            return 0.0

    try:
        slope = statistics.linear_regression(xs, ys).slope
    except statistics.StatisticsError:
        slope = 0.0
    r2_log = r2([math.log(x) for x in xs]) if all(x > 0 for x in xs) else 0.0
    return {"r2_lin": r2(xs), "r2_log": r2_log, "slope_hat": slope}


# Published campaign statistics (r2_lin, slope_hat, r2_log) per segment
# size label in KB. Reported alongside our runs for orientation; they
# depend on the original hardware and are never asserted.
REFERENCE_SCALABILITY_STATS = {
    "events": {
        "100": {"r2_lin": 0.9847, "slope_hat": 0.0980, "r2_log": 0.8291},
        "1000": {"r2_lin": 0.9544, "slope_hat": 0.0821, "r2_log": 0.9043},
        "10000": {"r2_lin": 0.7357, "slope_hat": 0.1518, "r2_log": 0.9386},
    },
    "cases": {
        "100": {"r2_lin": 0.9896, "slope_hat": 0.0013, "r2_log": 0.6822},
        "1000": {"r2_lin": 0.9629, "slope_hat": 0.0010, "r2_log": 0.8682},
        "10000": {"r2_lin": 0.7729, "slope_hat": 0.0068, "r2_log": 0.9303},
    },
    "orgs": {
        "100": {"r2_lin": 0.9770, "slope_hat": 0.3184, "r2_log": 0.8577},
        "500": {"r2_lin": 0.9602, "slope_hat": 0.5174, "r2_log": 0.7902},
        "1000": {"r2_lin": 0.9066, "slope_hat": 0.6102, "r2_log": 0.6977},
    },
}

# Per test, the ScenarioParams field that x sets, the default xs and the
# default segment sizes.
_GRIDS = {
    "events": ("loop_iterations", (2, 4, 6, 8, 10, 12, 14, 16), (100 * KIB, 1000 * KIB, 10000 * KIB)),
    "cases": ("cases", tuple(2 ** x for x in range(7, 14)), (100 * KIB, 1000 * KIB, 10000 * KIB)),
    "orgs": ("org_count", (1, 2, 3, 4, 5, 6, 7, 8), (100 * KIB, 500 * KIB, 1000 * KIB)),
}
SCALABILITY_TESTS = tuple(_GRIDS)


def run_scalability_suite(
    test: str,
    out_dir: str | Path | None = None,
    xs: tuple[int, ...] | None = None,
    seg_sizes: tuple[int, ...] | None = None,
    params: ScenarioParams = ScenarioParams(),
) -> dict:
    """Sweep one scaling dimension of ``params`` over the segment-size grid.

    Each cell is one session recorded as a memory run is, plus its x, and
    doubles as a convergence check. A ``memory_exceeded`` cell is left out
    of the fit. Returns the cells plus the ``fit_trends`` of each seg_size.
    """
    if test not in _GRIDS:
        raise ValueError(f"unknown test {test!r}, expected one of {SCALABILITY_TESTS}")
    field, grid_xs, grid_segs = _GRIDS[test]
    xs = grid_xs if xs is None else xs
    seg_sizes = grid_segs if seg_sizes is None else seg_sizes
    if not xs or not seg_sizes:
        raise ValueError("xs and seg_sizes must not be empty")

    cells: list[dict] = []
    for x in xs:
        partitions, reference = _scenario(replace(params, **{field: x}))
        cells.extend({"x": x, **_run_cell(partitions, reference, seg)} for seg in seg_sizes)

    regressions = {}
    for seg in seg_sizes:
        ok = [c for c in cells if c["seg_size"] == seg and c["status"] == "ok"]
        regressions[str(seg)] = fit_trends([c["x"] for c in ok], [c["peak_bytes"] for c in ok])

    summary = {
        "test": test,
        "xs": list(xs),
        "seg_sizes": list(seg_sizes),
        "cells": cells,
        "regressions": regressions,
        "reference_stats": REFERENCE_SCALABILITY_STATS[test],
        "all_converged": all(c["converged"] for c in cells),
    }
    _write(out_dir, f"scale_{test}_summary.json", json.dumps(summary, indent=2) + "\n")
    _write_table(out_dir, f"scale_{test}_cells.csv", cells)
    return summary


# ---------------------------------------------------------------------------
# real-log splitting schemes

SEPSIS_INTENSIVE_CARE = ("Admission IC",)
SEPSIS_NORMAL_CARE = (
    "ER Registration", "ER Triage", "ER Sepsis Triage", "Leucocytes", "CRP",
    "LacticAcid", "IV Antibiotics", "IV Liquid", "Admission NC", "Release A",
    "Release B", "Release C", "Release D", "Release E", "Return ER",
)
SEPSIS_SCHEME_MAP = {
    **{act: "intensive_care" for act in SEPSIS_INTENSIVE_CARE},
    **{act: "normal_care" for act in SEPSIS_NORMAL_CARE},
}

SPLIT_SCHEMES = ("sepsis_care_paths", "bpic_departments")


def split_real_log(log_data: EventLog, scheme: str) -> dict[str, EventLog]:
    """Split a user-supplied log for multi-org experiments.

    sepsis_care_paths separates intensive care admissions from the normal
    care path by activity. bpic_departments groups events by their org
    field and expects exactly three departments. For a custom activity to
    org map, use partition_by_org.
    """
    if scheme == "sepsis_care_paths":
        unmatched = sorted(log_data.activities() - set(SEPSIS_SCHEME_MAP))
        if unmatched:
            raise PartitionError(
                f"activities not covered by sepsis_care_paths: {', '.join(unmatched)}"
            )
        return partition_by_org(log_data, SEPSIS_SCHEME_MAP)
    if scheme == "bpic_departments":
        orgs = sorted({org for rows in log_data.cases.values() for _, org, _ in rows})
        if "" in orgs:
            raise PartitionError("bpic_departments needs an org value on every event")
        if len(orgs) != 3:
            raise PartitionError(
                f"bpic_departments expects exactly 3 departments, found {len(orgs)}: "
                + ", ".join(orgs)
            )
        buckets: dict[str, dict[str, list[Row]]] = {org: {} for org in orgs}
        for ref, rows in log_data.cases.items():
            for row in rows:
                buckets[row[1]].setdefault(ref, []).append(row)
        return {org: EventLog(cases, source_org=org, stamps=log_data.stamps) for org, cases in buckets.items()}
    raise ValueError(f"unknown scheme {scheme!r}, expected one of {SPLIT_SCHEMES}")


def write_scenario_files(out_dir: str | Path, params: ScenarioParams = ScenarioParams()) -> tuple[Path, Path]:
    """Generate and write the scenario log CSV plus its org map JSON."""
    log_data, org_map = generate_scenario_log(params)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "scenario_log.csv"
    map_path = out / "activity_org_map.json"
    log_path.write_text(serialize_log(log_data), encoding="utf-8")
    map_path.write_text(json.dumps(org_map, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return log_path, map_path
