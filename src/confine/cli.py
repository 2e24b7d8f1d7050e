"""Command line front end.

Subcommands cover the two protocol roles (provisioner, miner), local
mining, scenario generation and the experiment drivers. Run
`confine <subcommand> -h` for the full flag list.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import fields
from pathlib import Path

from .attest import ReferenceRegistry, default_measurement
from .eventlog import EventLog, LogParseError, PartitionError, parse_log, partition_by_org, serialize_log
from .harness import (
    SCALABILITY_TESTS,
    SPLIT_SCHEMES,
    SWEEP_SIZES,
    ScenarioParams,
    run_convergence,
    run_memory_experiment,
    run_scalability_suite,
    split_real_log,
    standalone_net,
    write_scenario_files,
)
from .hminer import MinerConfig, serialize_net
from .miner import (
    DEFAULT_CAPACITY,
    AttestationRejectedError,
    DeliveryError,
    EnclaveMemoryExceeded,
    IncompleteDeliveryError,
    InitializationError,
    MinerReceiver,
    MinerSession,
)
from .provisioner import ProvisionerServer, ProvisionerService
from .transport import HttpTransport
from .wire import DEFAULT_SEG_SIZE, EnvelopeFormatError, IntegrityError, parse_size

log = logging.getLogger(__name__)

# Failures that a user's files, logs, peers or budget cause print one line.
# Any other exception is a bug and keeps its traceback.
_EXPECTED_ERRORS = (
    OSError, LogParseError, PartitionError, InitializationError, AttestationRejectedError,
    DeliveryError, IncompleteDeliveryError, IntegrityError, EnvelopeFormatError, EnclaveMemoryExceeded,
)


# argparse names a type by its function in a usage error: "invalid size_list value"
def size_list(text: str) -> tuple[int, ...]:
    return tuple(parse_size(part) for part in text.split(","))


def count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"count must be positive, got {text!r}")
    return value


def count_list(text: str) -> tuple[int, ...]:
    return tuple(count(part) for part in text.split(","))


def _add_host_port(parser: argparse.ArgumentParser, default_port: int) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=default_port, help="bind port, 0 for ephemeral")


def _add_miner_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dependency-threshold", type=float, default=0.9)
    parser.add_argument("--and-threshold", type=float, default=0.65)
    parser.add_argument("--min-df-count", type=int, default=1)
    parser.add_argument(
        "--no-all-connected",
        action="store_true",
        help="drop the rescue arcs that keep every activity connected",
    )


def _miner_config(args: argparse.Namespace) -> MinerConfig:
    return MinerConfig(
        dependency_threshold=args.dependency_threshold,
        and_threshold=args.and_threshold,
        min_df_count=args.min_df_count,
        all_activities_connected=not args.no_all_connected,
    )


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cases", type=int, default=1000)
    parser.add_argument("--specialized-prob", dest="specialized_care_prob", type=float, default=1 / 3)
    parser.add_argument("--loop-iterations", type=int, default=1)
    parser.add_argument("--org-count", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)


def _scenario_params(args: argparse.Namespace) -> ScenarioParams:
    """The scenario set by whichever of its fields the subcommand takes as flags."""
    return ScenarioParams(**{f.name: getattr(args, f.name) for f in fields(ScenarioParams) if f.name in args})


def _write_net(net, out_dir: str | None) -> None:
    if out_dir is None:
        print(serialize_net(net, "json"), end="")
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "net.json").write_text(serialize_net(net, "json"), encoding="utf-8")
    (out / "net.dot").write_text(serialize_net(net, "dot"), encoding="utf-8")
    print(f"wrote {out / 'net.json'} and {out / 'net.dot'}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_registry(args: argparse.Namespace) -> int:
    measurement = default_measurement()
    ReferenceRegistry.of(measurement).write(args.out)
    print(f"wrote {args.out} ({measurement.hex()})")
    return 0


def _cmd_provisioner(args: argparse.Namespace) -> int:
    log_data = parse_log(args.log)
    if args.registry:
        registry = ReferenceRegistry.load(args.registry)
    else:
        registry = ReferenceRegistry.of(default_measurement())
    allowed = set(args.allow) if args.allow else {"*"}
    service = ProvisionerService(
        org_id=args.org,
        log_data=log_data,
        registry=registry,
        allowed_miners=allowed,
        push=HttpTransport().push_segment,
    )
    server = ProvisionerServer(service, host=args.host, port=args.port).start()
    print(f"provisioner {args.org}: {len(log_data)} cases at {server.url}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return 0
    finally:
        server.close()


def _cmd_miner(args: argparse.Namespace) -> int:
    session = MinerSession(
        providers=args.providers,
        transport=HttpTransport(),
        callback_url="",
        seg_size=args.seg_size,
        mode=args.mode,
        batch_cases=args.batch_cases,
        capacity=args.capacity,
        miner_config=args.miner_config,
        miner_id=args.miner_id,
    )
    receiver = MinerReceiver(session, host=args.host, port=args.port).start()
    session.callback_url = receiver.url
    try:
        net = session.run()
    finally:
        receiver.close()
    assert net is not None
    print(
        f"mined {len(net.activities)} activities, {len(net.arcs)} arcs; "
        f"peak enclave memory {session.budget.peak} bytes"
    )
    _write_net(net, args.out)
    if args.out:
        Path(args.out, "metrics.csv").write_bytes(session.exports()["metrics.csv"])
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    log_data = parse_log(args.log)
    if not len(log_data):
        raise LogParseError(f"{args.log} holds no events to mine")
    _write_net(standalone_net(log_data, args.miner_config), args.out)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    log_path, map_path = write_scenario_files(args.out, args.params)
    print(f"wrote {log_path} and {map_path}")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    row = run_convergence(
        params=args.params,
        seg_size=args.seg_size,
        metrics_dir=args.out,
        networked=args.networked,
        mode=args.mode,
        batch_cases=args.batch_cases,
    )
    if row["status"] != "ok":
        print(f"error: {row['error']}", file=sys.stderr)
        return 1
    print(
        f"converged={row['converged']} cases={args.cases} events={row['events']} "
        f"elapsed={row['elapsed_ms'] / 1000:.2f}s peak={row['peak_bytes']}"
    )
    return 0 if row["converged"] else 1


def _cmd_mem(args: argparse.Namespace) -> int:
    summary = run_memory_experiment(
        out_dir=args.out,
        params=args.params,
        seg_sizes=args.seg_sizes,
        capacity=args.capacity,
        mode=args.mode,
        batch_cases=args.batch_cases,
    )
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    summary = run_scalability_suite(
        args.test,
        out_dir=args.out,
        xs=args.xs,
        seg_sizes=args.seg_sizes,
        cases=args.params.cases,
        seed=args.params.seed,
    )
    print(f"test={summary['test']} all_converged={summary['all_converged']}")
    for seg, stats in summary["regressions"].items():
        print(
            f"  seg={seg}: r2_lin={stats['r2_lin']:.4f} "
            f"slope={stats['slope_hat']:.4f} r2_log={stats['r2_log']:.4f}"
        )
    return 0


def _write_partitions(partitions: dict[str, EventLog], out: Path) -> None:
    """Write one canonical CSV per org into out and report each."""
    out.mkdir(parents=True, exist_ok=True)
    for org, sub in sorted(partitions.items()):
        path = out / f"{org}.csv"
        path.write_text(serialize_log(sub), encoding="utf-8")
        print(f"{org}: {len(sub)} cases, {sub.event_count()} events -> {path}")


def _cmd_split(args: argparse.Namespace) -> int:
    _write_partitions(split_real_log(parse_log(args.log), args.scheme), Path(args.out))
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    try:
        org_map = json.loads(Path(args.map).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PartitionError(f"{args.map} is not JSON: {exc}") from None
    if not isinstance(org_map, dict) or not all(isinstance(org, str) and org for org in org_map.values()):
        raise PartitionError(f"{args.map} must map each activity to a non-empty org name")
    _write_partitions(partition_by_org(parse_log(args.log), org_map), Path(args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="confine", description=__doc__)
    parser.add_argument("--log-level", default="WARNING", help="logging level name")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("registry", help="write a registry of this build's source; re-run after code changes")
    p.add_argument("--out", default="ref_registry.json")
    p.set_defaults(func=_cmd_registry)

    p = sub.add_parser("provisioner", help="serve one org's sub-log to attested miners")
    p.add_argument("--log", required=True, help="CSV or XES sub-log for this org")
    p.add_argument("--org", required=True, help="organization identifier")
    p.add_argument("--registry", help="accepted-measurement registry JSON")
    p.add_argument("--allow", action="append", help="allowed miner id (repeatable, default any)")
    _add_host_port(p, 8421)
    p.set_defaults(func=_cmd_provisioner)

    p = sub.add_parser("miner", help="mine a net from remote provisioners")
    p.add_argument("providers", nargs="+", help="provisioner base URLs")
    p.add_argument("--seg-size", type=parse_size, default=DEFAULT_SEG_SIZE)
    p.add_argument("--mode", choices=["single_batch", "incremental"], default="single_batch")
    p.add_argument("--batch-cases", type=count, default=100)
    p.add_argument("--capacity", type=parse_size, default=DEFAULT_CAPACITY)
    p.add_argument("--miner-id", default="miner1")
    p.add_argument("--out", help="directory for net.json, net.dot, metrics.csv")
    _add_miner_config(p)
    _add_host_port(p, 0)
    p.set_defaults(func=_cmd_miner)

    p = sub.add_parser("mine", help="mine a local log without the protocol")
    p.add_argument("--log", required=True)
    p.add_argument("--out", help="directory for net.json and net.dot; stdout otherwise")
    _add_miner_config(p)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("gen", help="write the synthetic scenario log and org map")
    p.add_argument("--out", default="scenario")
    _add_scenario(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("converge", help="compare protocol result against standalone mining")
    p.add_argument("--seg-size", type=parse_size, default=DEFAULT_SEG_SIZE)
    p.add_argument("--networked", action="store_true", help="use localhost HTTP instead of loopback")
    p.add_argument("--mode", choices=["single_batch", "incremental"], default="single_batch")
    p.add_argument("--batch-cases", type=count, default=100)
    p.add_argument("--out", help="directory for the session's metrics CSV")
    _add_scenario(p)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("mem", help="memory experiment: one session per segment size")
    p.add_argument("--out", help="directory for each run's metrics CSV, the runs table and the summary")
    p.add_argument("--seg-sizes", type=size_list, default=SWEEP_SIZES, help="comma list like 64KB,128KB,1MB")
    p.add_argument("--capacity", type=parse_size, default=DEFAULT_CAPACITY)
    p.add_argument("--mode", choices=["single_batch", "incremental"], default="single_batch")
    p.add_argument("--batch-cases", type=count, default=100)
    _add_scenario(p)
    p.set_defaults(func=_cmd_mem)

    p = sub.add_parser("scale", help="scalability sweep with per-cell convergence")
    p.add_argument("--test", choices=list(SCALABILITY_TESTS), required=True)
    p.add_argument("--xs", type=count_list, help="comma list of x values")
    p.add_argument("--seg-sizes", type=size_list, help="comma list like 100KB,1000KB")
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", help="directory for summary JSON and cell CSV")
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("split", help="split a real log by a named scheme")
    p.add_argument("--log", required=True)
    p.add_argument("--scheme", choices=list(SPLIT_SCHEMES), required=True)
    p.add_argument("--out", default="partitions")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("partition", help="split a log by an activity-to-org map")
    p.add_argument("--log", required=True)
    p.add_argument("--map", required=True, help="JSON file mapping activity to org")
    p.add_argument("--out", default="partitions")
    p.set_defaults(func=_cmd_partition)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the settings objects check their own values; one they refuse is a usage error
    try:
        if "cases" in args:
            args.params = _scenario_params(args)
        if "dependency_threshold" in args:
            args.miner_config = _miner_config(args)
    except ValueError as exc:
        parser.error(str(exc))
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper(), logging.WARNING),
        format="%(asctime)s %(levelname)s %(name)s %(message)s",
    )
    try:
        return args.func(args)
    except _EXPECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
