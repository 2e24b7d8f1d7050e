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
    MODES,
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
from .wire import EnvelopeFormatError, IntegrityError, parse_json_object, parse_size

log = logging.getLogger(__name__)

# Failures that a user's files, logs, peers or budget cause print one line.
# Any other exception is a bug and keeps its traceback.
_EXPECTED_ERRORS = (
    OSError, LogParseError, PartitionError, InitializationError, AttestationRejectedError,
    DeliveryError, IncompleteDeliveryError, IntegrityError, EnvelopeFormatError, EnclaveMemoryExceeded,
)

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


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


# Each settings flag, under the object that holds its default. A flag left
# out is missing from the parsed namespace, so that object's default applies.
_SETTINGS = {
    "ScenarioParams": {
        "--cases": {"type": int},
        "--specialized-prob": {"type": float, "dest": "specialized_care_prob"},
        "--loop-iterations": {"type": int},
        "--org-count": {"type": int},
        "--seed": {"type": int},
    },
    "MinerConfig": {
        "--dependency-threshold": {"type": float},
        "--and-threshold": {"type": float},
        "--min-df-count": {"type": int},
        "--no-all-connected": {
            "dest": "all_activities_connected",
            "action": "store_false",
            "help": "drop the rescue arcs that keep every activity connected",
        },
    },
    "MinerSession": {
        "--seg-size": {"type": parse_size},
        "--mode": {"choices": MODES},
        "--batch-cases": {"type": count},
        "--capacity": {"type": parse_size},
        "--miner-id": {},
    },
}


def _add_settings(parser: argparse.ArgumentParser, owner: str, *flags: str) -> None:
    """Add ``flags`` of ``owner``'s settings, or all of them, as one help group."""
    description = f"a flag left out takes its default from {owner}"
    group = parser.add_argument_group(f"{owner} settings", description, argument_default=argparse.SUPPRESS)
    for flag in flags or _SETTINGS[owner]:
        group.add_argument(flag, **_SETTINGS[owner][flag])


def _given(args: argparse.Namespace, owner: str) -> dict:
    """The ``owner`` settings that were given as flags, by keyword (argparse's dest: --seg-size is seg_size)."""
    names = (spec.get("dest", flag[2:].replace("-", "_")) for flag, spec in _SETTINGS[owner].items())
    return {name: getattr(args, name) for name in names if name in args}


def _write(files: dict[str, bytes], out_dir: str | None) -> None:
    """Print net.json, or write every file into out_dir."""
    if out_dir is None:
        print(files["net.json"].decode("utf-8"), end="")
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_bytes(data)
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
    registry = ReferenceRegistry.of(default_measurement())
    if args.registry:
        try:
            registry = ReferenceRegistry.load(args.registry)
        except ValueError as exc:  # the file holds no registry; UnicodeDecodeError included
            print(f"error: {args.registry}: {exc}", file=sys.stderr)
            return 1
    allowed = set(args.allow) if args.allow else {"*"}
    service = ProvisionerService(
        org_id=args.org,
        log_data=log_data,
        registry=registry,
        allowed_miners=allowed,
        push=HttpTransport().push_segment,
    )
    server = ProvisionerServer(service, host=args.host, port=args.port)
    try:
        print(f"provisioner {args.org}: {len(log_data)} cases at {server.url}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_miner(args: argparse.Namespace) -> int:
    session = MinerSession(
        providers=args.providers,
        transport=HttpTransport(),
        callback_url="",
        miner_config=args.miner_config,
        **args.session,
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
    _write(session.exports(), args.out)
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    log_data = parse_log(args.log)
    if not len(log_data):
        raise LogParseError(f"{args.log} holds no events to mine")
    net = standalone_net(log_data, args.miner_config)
    _write({f"net.{fmt}": serialize_net(net, fmt).encode("utf-8") for fmt in ("json", "dot")}, args.out)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    log_path, map_path = write_scenario_files(args.out, args.params)
    print(f"wrote {log_path} and {map_path}")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    row = run_convergence(args.params, metrics_dir=args.out, networked=args.networked, **args.session)
    if row["status"] != "ok":
        print(f"error: {row['error']}", file=sys.stderr)
        return 1
    print(
        f"converged={row['converged']} cases={args.params.cases} events={row['events']} "
        f"elapsed={row['elapsed_ms'] / 1000:.2f}s peak={row['peak_bytes']}"
    )
    return 0 if row["converged"] else 1


def _cmd_mem(args: argparse.Namespace) -> int:
    summary = run_memory_experiment(args.out, args.params, args.seg_sizes, **args.session)
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    summary = run_scalability_suite(args.test, args.out, args.xs, args.seg_sizes, args.params)
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
        org_map = parse_json_object(Path(args.map).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PartitionError(f"{args.map} is not JSON: {exc}") from None
    except ValueError:  # no object, a NaN or Infinity constant, or nesting too deep to parse
        org_map = None
    if org_map is None or not all(isinstance(org, str) and org for org in org_map.values()):
        raise PartitionError(f"{args.map} must map each activity to a non-empty org name")
    _write_partitions(partition_by_org(parse_log(args.log), org_map), Path(args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="confine", description=__doc__)
    parser.add_argument("--log-level", default="WARNING", type=str.upper, choices=_LOG_LEVELS,
                        help="logging level name, in any case")
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
    p.add_argument("--out", help="directory for net.json, net.dot, metrics.csv")
    _add_settings(p, "MinerSession")
    _add_settings(p, "MinerConfig")
    _add_host_port(p, 0)
    p.set_defaults(func=_cmd_miner)

    p = sub.add_parser("mine", help="mine a local log without the protocol")
    p.add_argument("--log", required=True)
    p.add_argument("--out", help="directory for net.json and net.dot; stdout otherwise")
    _add_settings(p, "MinerConfig")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("gen", help="write the synthetic scenario log and org map")
    p.add_argument("--out", default="scenario")
    _add_settings(p, "ScenarioParams")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("converge", help="compare protocol result against standalone mining")
    p.add_argument("--networked", action="store_true", help="use localhost HTTP instead of loopback")
    p.add_argument("--out", help="directory for the session's metrics CSV")
    _add_settings(p, "MinerSession", "--seg-size", "--mode", "--batch-cases")
    _add_settings(p, "ScenarioParams")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("mem", help="memory experiment: one session per segment size")
    p.add_argument("--out", help="directory for each run's metrics CSV, the runs table and the summary")
    p.add_argument("--seg-sizes", type=size_list, default=SWEEP_SIZES, help="comma list like 64KB,128KB,1MB")
    _add_settings(p, "MinerSession", "--capacity", "--mode", "--batch-cases")
    _add_settings(p, "ScenarioParams")
    p.set_defaults(func=_cmd_mem)

    p = sub.add_parser("scale", help="scalability sweep with per-cell convergence")
    p.add_argument("--test", choices=list(SCALABILITY_TESTS), required=True)
    p.add_argument("--xs", type=count_list, help="comma list of x values")
    p.add_argument("--seg-sizes", type=size_list, help="comma list like 100KB,1000KB")
    p.add_argument("--out", help="directory for summary JSON and cell CSV")
    _add_settings(p, "ScenarioParams", "--cases", "--seed")
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
        args.params = ScenarioParams(**_given(args, "ScenarioParams"))
        args.miner_config = MinerConfig(**_given(args, "MinerConfig"))
    except ValueError as exc:
        parser.error(str(exc))
    args.session = _given(args, "MinerSession")
    logging.basicConfig(
        level=args.log_level,
        format="%(asctime)s %(levelname)s %(name)s %(message)s",
    )
    try:
        return args.func(args)
    except _EXPECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
