"""Command line smoke tests: the README quick start and each driver, run in-process."""

import json
import logging
import os
import select
import signal
import socket
import subprocess
import sys
import urllib.request
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from confine.attest import ReferenceRegistry, default_measurement
from confine import cli
from confine.cli import main
from confine.eventlog import parse_log, serialize_log
from confine.harness import ScenarioParams, standalone_net
from confine.hminer import MinerConfig, serialize_net
from confine.provisioner import ProvisionerServer, ProvisionerService
from confine.transport import HttpTransport

from conftest import HOSPITAL_CSV

SRC = Path(__file__).resolve().parents[1] / "src"


def test_quick_start_protocol_equals_local_mining(tmp_path):
    demo = tmp_path / "demo"
    assert main(["gen", "--out", str(demo), "--cases", "40"]) == 0
    assert main([
        "partition", "--log", str(demo / "scenario_log.csv"),
        "--map", str(demo / "activity_org_map.json"), "--out", str(demo / "parts"),
    ]) == 0
    parts = sorted((demo / "parts").glob("*.csv"))
    assert [p.stem for p in parts] == ["C", "H", "P"]

    servers = [
        ProvisionerServer(ProvisionerService(
            org_id=part.stem,
            log_data=parse_log(part),
            registry=ReferenceRegistry.of(default_measurement()),
            allowed_miners={"*"},
            push=HttpTransport().push_segment,
        )).start()
        for part in parts
    ]
    try:
        urls = [server.url for server in servers]
        assert main(["miner", *urls, "--seg-size", "4KB", "--out", str(demo / "out")]) == 0
    finally:
        for server in servers:
            server.close()
    assert main(["mine", "--log", str(demo / "scenario_log.csv"), "--out", str(demo / "ref")]) == 0

    net = (demo / "out" / "net.json").read_bytes()
    assert net == (demo / "ref" / "net.json").read_bytes()
    assert (demo / "out" / "metrics.csv").exists()


def test_provisioner_serves_its_refs_until_interrupted(tmp_path):
    log_path = tmp_path / "H.csv"
    log_path.write_text(HOSPITAL_CSV, encoding="utf-8")
    argv = [sys.executable, "-m", "confine.cli", "provisioner", "--log", str(log_path), "--org", "H", "--port", "0"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        # a child of a shell that ignores SIGINT would inherit that and never stop on it
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    ) as proc:
        try:
            assert select.select([proc.stdout], [], [], 30)[0], "no start-up line within 30 s"
            line = proc.stdout.readline()
            assert line.startswith("provisioner H: 2 cases at http://127.0.0.1:"), line
            url = line.rsplit(" ", 1)[1].strip()
            with urllib.request.urlopen(f"{url}/caserefs?miner_id=x", timeout=5) as resp:
                assert json.load(resp) == {"org": "H", "refs": ["312", "711"]}
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()


def test_provisioner_interrupted_at_its_start_up_line_closes_its_port(tmp_path, monkeypatch):
    # Ctrl-C may land while the start-up line is printed; the port must close all the same
    log_path = tmp_path / "H.csv"
    log_path.write_text(HOSPITAL_CSV, encoding="utf-8")
    lines = []

    def interrupted_print(*args, **kwargs):
        lines.append(" ".join(map(str, args)))
        raise KeyboardInterrupt

    monkeypatch.setattr("builtins.print", interrupted_print)
    try:
        status = main(["provisioner", "--log", str(log_path), "--org", "H", "--port", "0"])
    except KeyboardInterrupt:  # pytest would take it for the user's own Ctrl-C and stop the run
        pytest.fail("the interrupt escaped main")
    assert status == 0
    (line,) = lines
    assert line.startswith("provisioner H: 2 cases at http://127.0.0.1:"), line
    port = int(line.rsplit(":", 1)[1])
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5).close()


def test_mine_writes_the_net_to_stdout(tmp_path, capsys):
    log_path = tmp_path / "H.csv"
    log_path.write_text(HOSPITAL_CSV, encoding="utf-8")
    assert main(["mine", "--log", str(log_path)]) == 0
    assert capsys.readouterr().out == serialize_net(standalone_net(parse_log(log_path)))


def test_split_requires_scheme():
    with pytest.raises(SystemExit) as exc:
        main(["split", "--log", "x"])
    assert exc.value.code == 2


def test_converge_reports_equal_nets(tmp_path, capsys):
    assert main(["converge", "--cases", "20", "--seg-size", "4KB", "--out", str(tmp_path)]) == 0
    line = capsys.readouterr().out
    assert line.startswith("converged=True cases=20 events=") and " peak=" in line
    # one cell's output: its metrics CSV, and no nets
    assert [p.name for p in tmp_path.iterdir()] == ["segsize_4096_metrics.csv"]
    rows = (tmp_path / "segsize_4096_metrics.csv").read_text().splitlines()
    assert rows[0] == "t_ms,stage,in_use_bytes,peak_bytes"
    assert {row.split(",")[1] for row in rows[1:]} == {"init", "attest", "transmit", "compute"}


def test_mem_writes_its_summary(tmp_path):
    argv = ["mem", "--cases", "20", "--seg-sizes", "1KB,64KB", "--out", str(tmp_path)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "memory_summary.json").read_text())
    assert summary["cases"] == 20
    assert [r["seg_size"] for r in summary["runs"]] == [1024, 65536]
    assert all(r["status"] == "ok" and r["converged"] and r["final_in_use"] == 0 for r in summary["runs"])
    assert (tmp_path / "memory_runs.csv").exists()
    assert (tmp_path / "segsize_1024_metrics.csv").exists()
    assert (tmp_path / "segsize_65536_metrics.csv").exists()


def test_scale_writes_its_cells(tmp_path):
    argv = ["scale", "--test", "cases", "--xs", "8,16", "--seg-sizes", "100KB", "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / "scale_cases_cells.csv").read_text().splitlines()
    assert lines[0] == (
        "x,seg_size,events,status,error,elapsed_ms,peak_bytes,peak_before_compute,final_in_use,converged,single_segment"
    )
    assert [line.split(",")[0] for line in lines[1:]] == ["8", "16"]
    # 8 and 16 cases each fit one 100 KB segment per org
    assert all(line.endswith(",True,True") for line in lines[1:])


def test_registry_round_trips(tmp_path):
    path = tmp_path / "ref_registry.json"
    assert main(["registry", "--out", str(path)]) == 0
    assert ReferenceRegistry.load(path) == ReferenceRegistry.of(default_measurement())


def test_split_bpic_departments_writes_one_file_per_org(tmp_path, merged_log):
    log_path = tmp_path / "three_orgs.csv"
    log_path.write_text(serialize_log(merged_log), encoding="utf-8")
    out = tmp_path / "parts"
    assert main(["split", "--log", str(log_path), "--scheme", "bpic_departments", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["C.csv", "H.csv", "P.csv"]
    assert parse_log(out / "C.csv").event_count() == 5


@pytest.mark.parametrize("org_map", [["A"], {"A": 1}, {"A": ""}], ids=["list", "number", "empty"])
def test_partition_refuses_a_bad_org_map(tmp_path, capsys, org_map):
    log_path = tmp_path / "one_row.csv"
    log_path.write_text("case,timestamp,activity,org\nc1,2022-01-01T00:00:00Z,A,H\n", encoding="utf-8")
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(org_map), encoding="utf-8")
    out = tmp_path / "parts"
    assert main(["partition", "--log", str(log_path), "--map", str(map_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-empty org name" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["scale", "--test", "cases", "--xs", "8,a"], "--xs"),
        (["scale", "--test", "cases", "--xs", "8,0"], "--xs"),
        (["scale", "--test", "cases", "--xs", ""], "--xs"),
        (["scale", "--test", "cases", "--seg-sizes", "100KB,"], "--seg-sizes"),
        (["mem", "--seg-sizes", "12XB"], "--seg-sizes"),
        (["mem", "--seg-sizes", ""], "--seg-sizes"),
        (["mem", "--capacity", "0"], "--capacity"),
        (["converge", "--seg-size", "0"], "--seg-size"),
        (["miner", "http://127.0.0.1:1", "--seg-size", "12XB"], "--seg-size"),
        (["--log-level", "NOPE", "gen", "--cases", "1"], "--log-level"),
    ],
    ids=["xs-word", "xs-zero", "xs-empty", "seg-sizes-trailing-comma", "mem-seg-sizes-unit",
         "mem-seg-sizes-empty", "mem-capacity-zero", "converge-seg-size-zero", "miner-seg-size-unit",
         "log-level-unknown"],
)
def test_bad_flag_values_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["debug", "Info", "WARNING", "error", "critical"])
def test_log_level_takes_a_standard_name_in_any_case(tmp_path, monkeypatch, name):
    configured = {}
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: configured.update(kw))
    assert main(["--log-level", name, "registry", "--out", str(tmp_path / "registry.json")]) == 0
    assert configured["level"] == name.upper()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["converge", "--cases", "-1"], "cases must be >= 0, got -1"),
        (["scale", "--test", "events", "--cases", "-1"], "cases must be >= 0, got -1"),
        (["gen", "--specialized-prob", "2"], "specialized_care_prob outside [0, 1], got 2.0"),
        (["converge", "--org-count", "0"], "org_count must be >= 1, got 0"),
        (["mine", "--log", "x.csv", "--dependency-threshold", "2"], "dependency_threshold outside [0, 1], got 2.0"),
        (["converge", "--cases", "5", "--mode", "incremental", "--batch-cases", "0"], "--batch-cases: invalid count value: '0'"),
        (["mem", "--cases", "5", "--mode", "incremental", "--batch-cases", "0"], "--batch-cases: invalid count value: '0'"),
        (["miner", "http://127.0.0.1:1", "--mode", "incremental", "--batch-cases", "0"],
         "--batch-cases: invalid count value: '0'"),
    ],
    ids=["converge-cases", "scale-cases", "gen-specialized-prob", "converge-org-count", "mine-dependency-threshold",
         "converge-batch-cases", "mem-batch-cases", "miner-batch-cases"],
)
def test_refused_settings_are_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "log_name, message",
    [("missing.csv", "missing.csv"), ("bad_stamp.csv", "yesterday"), ("header_only.csv", "header_only.csv")],
    ids=["missing-log", "bad-stamp", "no-events"],
)
def test_expected_failures_print_one_line(tmp_path, capsys, log_name, message):
    (tmp_path / "bad_stamp.csv").write_text("case,timestamp,activity,org\nc1,yesterday,A,H\n", encoding="utf-8")
    (tmp_path / "header_only.csv").write_text("case,timestamp,activity,org\n", encoding="utf-8")
    assert main(["mine", "--log", str(tmp_path / log_name)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["partition", "--log", "two_orgs.csv", "--map", "map.txt"], "map.txt is not JSON"),
        (["split", "--log", "two_orgs.csv", "--scheme", "bpic_departments"], "exactly 3 departments"),
        (["split", "--log", "blank_org.csv", "--scheme", "bpic_departments"], "an org value on every event"),
        (["converge", "--cases", "0"], "no eligible cases were delivered"),
        (["mine", "--log", "bin.csv"], "bin.csv: not UTF-8"),
        (["partition", "--log", "bin.csv", "--map", "map.json"], "bin.csv: not UTF-8"),
    ],
    ids=["partition-map-not-json", "split-two-orgs", "split-blank-org", "converge-no-cases",
         "mine-log-not-utf8", "partition-log-not-utf8"],
)
def test_refused_inputs_print_one_line(tmp_path, monkeypatch, capsys, argv, message):
    header = "case,timestamp,activity,org\n"
    (tmp_path / "bin.csv").write_bytes(b"\xff\xfe\x00garbage")
    (tmp_path / "map.json").write_text('{"A": "H"}')
    (tmp_path / "two_orgs.csv").write_text(header + "c1,2022-01-01T00:00:00Z,A,H\nc1,2022-01-01T00:01:00Z,B,P\n")
    (tmp_path / "blank_org.csv").write_text(header + "c1,2022-01-01T00:00:00Z,A,H\nc1,2022-01-01T00:01:00Z,B,\n")
    (tmp_path / "map.txt").write_text("{A: H}")
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "parts"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "parts").exists()


def test_unreachable_provisioner_prints_one_line(capsys):
    # a port that is bound but not listening refuses every connection
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{sock.getsockname()[1]}"
        assert main(["miner", url]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and url in err


SUBCOMMANDS = ["registry", "provisioner", "miner", "mine", "gen", "converge", "mem", "scale", "split", "partition"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_renders_for_every_subcommand(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: confine {command} ")


# A parallel B and C after A, and one rare path through D: each miner setting changes this log's net
TRACES = ["ABCE"] * 4 + ["ACBE"] * 4 + ["ADE"]


def _write_traces(path: Path) -> Path:
    rows = [f"c{i},2022-01-01T00:0{j}:00Z,{act},H" for i, trace in enumerate(TRACES) for j, act in enumerate(trace)]
    path.write_text("\n".join(["case,timestamp,activity,org", *rows]) + "\n", encoding="utf-8")
    return path


def test_mine_takes_every_miner_setting(tmp_path, capsys):
    log_path = _write_traces(tmp_path / "log.csv")
    argv = ["mine", "--log", str(log_path), "--dependency-threshold", "0.5", "--and-threshold", "0.95",
            "--min-df-count", "2", "--no-all-connected"]
    assert main(argv) == 0
    config = MinerConfig(dependency_threshold=0.5, and_threshold=0.95, min_df_count=2, all_activities_connected=False)
    net = capsys.readouterr().out
    assert net == serialize_net(standalone_net(parse_log(log_path), config))
    # each flag counts: the net differs with any one of them left at its default
    for name in ("dependency_threshold", "and_threshold", "min_df_count", "all_activities_connected"):
        one_default = replace(config, **{name: getattr(MinerConfig(), name)})
        assert net != serialize_net(standalone_net(parse_log(log_path), one_default)), name


def test_gen_loop_iterations_stretch_the_specialized_path(tmp_path):
    assert main(["gen", "--out", str(tmp_path), "--cases", "30", "--loop-iterations", "3"]) == 0
    lengths = {len(rows) for rows in parse_log(tmp_path / "scenario_log.csv").cases.values()}
    # the standard path and the specialized one of 18 + 16 * (3 - 1) events
    assert lengths == {12, 50}


def test_left_out_flags_take_the_library_defaults(tmp_path, monkeypatch, capsys):
    @dataclass(frozen=True)
    class FewCases(ScenarioParams):
        cases: int = 7

    @dataclass(frozen=True)
    class StrictAnd(MinerConfig):
        and_threshold: float = 0.95

    monkeypatch.setattr(cli, "ScenarioParams", FewCases)
    monkeypatch.setattr(cli, "MinerConfig", StrictAnd)
    assert main(["gen", "--out", str(tmp_path)]) == 0
    log = parse_log(tmp_path / "scenario_log.csv")
    assert len(log) == 7
    assert main(["converge"]) == 0
    assert "converged=True cases=7 " in capsys.readouterr().out
    log_path = _write_traces(tmp_path / "traces.csv")
    assert main(["mine", "--log", str(log_path)]) == 0
    net = capsys.readouterr().out
    assert net == serialize_net(standalone_net(parse_log(log_path), MinerConfig(and_threshold=0.95)))
    assert net != serialize_net(standalone_net(parse_log(log_path)))


@pytest.mark.parametrize(
    "registry, message",
    [
        ({"x": 1}, "registry needs an accepted_measurements list"),
        ({"accepted_measurements": ["zz"]}, "non-hexadecimal number"),
        (["abcd"], "registry needs an accepted_measurements list"),
        ({"accepted_measurements": ["abcd"]}, "measurements must be 32 bytes"),
    ],
    ids=["no-list", "not-hex", "not-an-object", "short-digest"],
)
def test_bad_registry_prints_one_line(tmp_path, capsys, registry, message):
    log_path = tmp_path / "H.csv"
    log_path.write_text(HOSPITAL_CSV, encoding="utf-8")
    registry_path = tmp_path / "registry.json"
    registry_path.write_text(json.dumps(registry), encoding="utf-8")
    argv = ["provisioner", "--log", str(log_path), "--org", "H", "--registry", str(registry_path), "--port", "0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {registry_path}: ") and err.count("\n") == 1 and message in err


def test_partition_refuses_a_deeply_nested_map(tmp_path, capsys):
    log_path = tmp_path / "one_row.csv"
    log_path.write_text("case,timestamp,activity,org\nc1,2022-01-01T00:00:00Z,A,H\n", encoding="utf-8")
    map_path = tmp_path / "map.json"
    map_path.write_text("[" * 200_000, encoding="utf-8")
    out = tmp_path / "parts"
    assert main(["partition", "--log", str(log_path), "--map", str(map_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "non-empty org name" in err
    assert not out.exists()


def test_miner_id_must_be_allowed_and_out_holds_the_exports(tmp_path, monkeypatch, capsys):
    sessions = []

    class Recorded(cli.MinerSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr(cli, "MinerSession", Recorded)
    log_path = tmp_path / "H.csv"
    log_path.write_text(HOSPITAL_CSV, encoding="utf-8")
    server = ProvisionerServer(ProvisionerService(
        org_id="H",
        log_data=parse_log(log_path),
        registry=ReferenceRegistry.of(default_measurement()),
        allowed_miners={"demo-miner"},
        push=HttpTransport().push_segment,
    )).start()
    try:
        assert main(["miner", server.url]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "not allowed" in err
        out = tmp_path / "out"
        assert main(["miner", server.url, "--miner-id", "demo-miner", "--out", str(out)]) == 0
    finally:
        server.close()
    assert sessions[-1].miner_id == "demo-miner"
    # the files on disk are exactly what the secrecy audit covers
    assert {p.name: p.read_bytes() for p in out.iterdir()} == sessions[-1].exports()
    assert (out / "net.json").read_text() == serialize_net(standalone_net(parse_log(log_path)))
