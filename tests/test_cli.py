"""Command line smoke test: the README quick start, run in-process."""

import pytest

from confine.attest import ReferenceRegistry, default_measurement
from confine.cli import main
from confine.eventlog import parse_log
from confine.provisioner import ProvisionerServer, ProvisionerService
from confine.transport import HttpTransport


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


def test_split_requires_scheme():
    with pytest.raises(SystemExit) as exc:
        main(["split", "--log", "x"])
    assert exc.value.code == 2
