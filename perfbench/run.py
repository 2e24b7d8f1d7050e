"""Closed-loop protocol benchmark for confine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bulk --seed 42 --seconds 35 --trace 0

For each run the benchmark generates the workload's healthcare scenario from
the seed, partitions it by organization and keeps only each org's CSV text
and the reference net (``standalone_net`` of the pooled log) as bytes. It
then repeats, one session at a time until ``--seconds`` have passed: set up
(parse every org's CSV, build the provisioner services, the miner session
and any servers), run ``MinerSession.run()`` once, shut the servers down,
and check the session. A session fails when it raises, when its exported
net JSON differs from the reference, or when an emitted payload holds a raw
event record (case ref, activity and formatted timestamp in one blob).

Before each set-up the run times a few passes of fixed speed probes (see
``speed.py``); the reported set-up and session times are the run's median
wall times scaled by the probes' median speed, because the shared machines
this runs on change speed by up to 2x for minutes at a time.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half of
the time on untraced sessions and half on sessions traced by patching the
package's public names from outside (see ``tracer.py``), and prints the
per-layer metrics. The last line of standard output is one JSON object.
Why each workload looks the way it does is written down in README.md.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import statistics
import sys
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from speed import REFERENCE_S, AllocProbe, HttpProbe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

KIB = 1024
MINER_ID = "bench-miner"
MIN_SESSIONS = 3
PROBES_PER_SESSION = 5
# A seed's scenario is used only when its share of specialized-care cases
# is within this distance of the generator's probability; otherwise the
# candidates seed + k * SEED_STRIDE are tried in turn, so distinct seeds keep
# distinct scenarios. The specialized path is 21x longer than the standard
# one on ``bulk``, so without this the event count alone spreads by 10%
# (quartile distance over seeds 1-10) and hides any change smaller than that.
MIX_TOLERANCE = 0.005
SEED_STRIDE = 1_000_003
MAX_SEED_TRIES = 1000


@dataclass(frozen=True)
class Workload:
    cases: int
    loop_iterations: int
    org_count: int
    seg_size: int
    networked: bool
    mode: str = "single_batch"
    batch_cases: int = 100


WORKLOADS = {
    "bulk": Workload(cases=1000, loop_iterations=16, org_count=3, seg_size=100 * KIB, networked=False),
    "chatty": Workload(cases=1000, loop_iterations=1, org_count=3, seg_size=1 * KIB, networked=True),
    "wide": Workload(
        cases=2000, loop_iterations=4, org_count=8, seg_size=8 * KIB, networked=False,
        mode="incremental", batch_cases=50,
    ),
}


def import_confine():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import confine

    origin = Path(confine.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"confine was imported from {origin}, not from {SRC}")
    return confine


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    scenario_seed: int
    events: int
    csv_texts: dict[str, str]
    reference_net: bytes
    # Calendar days of every event timestamp: a blob that contains none of
    # them cannot contain a formatted timestamp, so the audit skips it.
    days: frozenset[str]
    standalone_s: list[float] = field(default_factory=list)


def scenario_seed(cf, w: Workload, seed: int) -> int:
    """First candidate ``seed + k * SEED_STRIDE`` whose case mix is nominal."""
    params = cf.ScenarioParams()
    specialized_len = len(cf.harness.VARIANT_SPECIALIZED)
    for k in range(MAX_SEED_TRIES):
        candidate = seed + k * SEED_STRIDE
        # the mix does not depend on loop_iterations, so probe the short log
        probe, _ = cf.generate_scenario_log(
            cf.ScenarioParams(cases=w.cases, loop_iterations=1, org_count=w.org_count, seed=candidate)
        )
        specialized = sum(1 for view in probe.cases.values() if len(view) == specialized_len)
        if abs(specialized / w.cases - params.specialized_care_prob) <= MIX_TOLERANCE:
            return candidate
    raise RuntimeError(f"none of {MAX_SEED_TRIES} scenario seeds from {seed} on has the nominal mix")


def make_inputs(cf, w: Workload, seed: int, standalone_repeats: int) -> Inputs:
    s = scenario_seed(cf, w, seed)
    log, org_map = cf.generate_scenario_log(
        cf.ScenarioParams(cases=w.cases, loop_iterations=w.loop_iterations, org_count=w.org_count, seed=s)
    )
    partitions = cf.partition_by_org(log, org_map)
    csv_texts = {org: cf.serialize_log(partitions[org]) for org in sorted(partitions)}
    standalone_s = []
    for _ in range(standalone_repeats):
        t0 = time.perf_counter()
        net = cf.standalone_net(log)
        standalone_s.append(time.perf_counter() - t0)
    stamps = {ev.timestamp for ev in log.events()}
    days = frozenset(cf.eventlog.format_timestamp(ts)[:10] for ts in stamps)
    return Inputs(
        scenario_seed=s,
        events=log.event_count(),
        csv_texts=csv_texts,
        reference_net=cf.serialize_net(net, "json").encode("utf-8"),
        days=days,
        standalone_s=standalone_s,
    )


# ---------------------------------------------------------------------------
# set-up and one session


class Rig:
    """Provisioners and one miner session, wired the way a deployment is."""

    def __init__(self, cf, w: Workload, csv_texts: dict[str, str], identity, registry):
        self._closers: list = []
        logs = {org: cf.eventlog.parse_csv(text, source_org=org) for org, text in csv_texts.items()}
        session_args = dict(
            seg_size=w.seg_size,
            mode=w.mode,
            batch_cases=w.batch_cases,
            identity=identity,
            miner_id=MINER_ID,
        )

        def service(org, push):
            return cf.ProvisionerService(
                org_id=org, log_data=logs[org], registry=registry, allowed_miners={MINER_ID}, push=push
            )

        if not w.networked:
            hub = cf.LoopbackHub()
            for org in logs:
                hub.register_provisioner(f"loop://{org}", service(org, hub.push_segment))
            self.session = cf.MinerSession(
                providers=[f"loop://{org}" for org in logs],
                transport=hub,
                callback_url="loop://miner",
                **session_args,
            )
            hub.register_receiver("loop://miner", self.session.enqueue)
            return
        try:
            urls = []
            for org in logs:
                server = cf.ProvisionerServer(service(org, cf.HttpTransport().push_segment)).start()
                self._closers.append(server.close)
                urls.append(server.url)
            self.session = cf.MinerSession(
                providers=urls, transport=cf.HttpTransport(), callback_url="", **session_args
            )
            receiver = cf.MinerReceiver(self.session).start()
            self._closers.insert(0, receiver.close)
            self.session.callback_url = receiver.url
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        while self._closers:
            self._closers.pop(0)()


def leaked_records(blobs: list[bytes], inputs: Inputs) -> list[tuple[str, str, str]]:
    """Event records whose case ref, activity and timestamp share one blob."""
    texts = [b.decode("utf-8", errors="replace") for b in blobs]
    texts = [t for t in texts if any(day in t for day in inputs.days)]
    if not texts:
        return []
    leaks = []
    for org, csv_text in inputs.csv_texts.items():
        reader = csv.reader(io.StringIO(csv_text))
        header = next(reader)
        i_case, i_ts, i_act = header.index("case"), header.index("timestamp"), header.index("activity")
        by_stamp: dict[str, list[tuple[str, str]]] = {}
        for row in reader:
            by_stamp.setdefault(row[i_ts], []).append((row[i_case], row[i_act]))
        for text in texts:
            for stamp, pairs in by_stamp.items():
                if stamp in text:
                    leaks.extend((org, ref, act) for ref, act in pairs if ref in text and act in text)
    return leaks


def in_use_at(session, stage: str, last: bool) -> int:
    """Enclave bytes in use at the first or last metrics row of a stage."""
    rows = [r for r in csv.DictReader(io.StringIO(session.metrics_csv())) if r["stage"] == stage]
    if not rows:
        return 0
    return int(rows[-1 if last else 0]["in_use_bytes"])


@dataclass
class SessionResult:
    setup_s: float
    session_s: float
    peak: int
    error: str | None
    # per speed probe, the passes made right before this cycle's set-up
    probe_s: dict[str, list[float]]
    # traced sessions only: per-layer metrics and self time per span name
    layers: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)


def one_session(cf, w: Workload, inputs: Inputs, identity, registry, probes: dict, traced: bool) -> SessionResult:
    """Probe the machine's speed, then set up, run and close one session and
    check what it produced."""
    gc.collect()
    probe_s = {name: [probe.time() for _ in range(PROBES_PER_SESSION)] for name, probe in probes.items()}
    gc.collect()
    tracer = None
    if traced:
        tracer = Tracer()
        install_probes(cf, tracer)
    try:
        t0 = time.perf_counter()
        rig = Rig(cf, w, inputs.csv_texts, identity, registry)
        setup_s = time.perf_counter() - t0
        session = rig.session
        error = None
        try:
            if tracer is not None:
                parse_csv_s = tracer.totals()["eventlog.parse_csv"]
                tracer.reset()
                tracer.watch_gc()
            t0 = time.perf_counter()
            try:
                session.run()
            except Exception as exc:  # a failed session is counted, not fatal
                error = type(exc).__name__
            session_s = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.unwatch_gc()
            t0 = time.perf_counter()
            rig.close()
            close_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()

    if error is None:
        if session.exports().get("net.json") != inputs.reference_net:
            error = "NetMismatch"
        elif leaked_records(session.emitted_payloads(), inputs):
            error = "SecrecyLeak"
    result = SessionResult(setup_s, session_s, session.budget.peak, error, probe_s)
    if tracer is not None:
        result.layers = layer_metrics(tracer, session, parse_csv_s, close_s)
        result.self_s = tracer.self_times()
    return result


# ---------------------------------------------------------------------------
# tracing


def install_probes(cf, tracer: Tracer) -> None:
    """Patch each layer's public names where the calling module looks them up."""

    def segments(t, args, kwargs, result):
        seg_size = kwargs.get("seg_size", args[2] if len(args) > 2 else 0)
        t.count("provisioner.segments", len(result))
        t.count("provisioner.capacity_bytes", len(result) * seg_size)
        t.count("wire.payload_bytes", sum(len(s.payload) for s in result))

    def request(t, args, kwargs, result):
        t.count("transport.requests")

    def post(push: bool):
        def on_call(t, args, kwargs, result):
            # the body as the HTTP transport serializes it
            size = len(json.dumps(args[2]).encode("utf-8"))
            t.count("transport.requests")
            t.count("transport.body_bytes", size)
            if push:
                t.count("transport.push_body_bytes", size)
        return on_call

    def parts(t, args, kwargs, result):
        t.count("merge.parts", len(args[0]))

    probes = [
        (cf.eventlog, "parse_csv", "eventlog.parse_csv", None),
        (cf.provisioner, "segment_log", "provisioner.segment_log", segments),
        (cf.provisioner, "encrypt_segment", "provisioner.seal", None),
        (cf.provisioner, "verify_report", "attest.verify_report", None),
        (cf.wire, "b64u_encode", "codec.b64u_encode", None),
        (cf.wire, "b64u_decode", "codec.b64u_decode", None),
        (cf.attest, "b64u_encode", "codec.b64u_encode", None),
        (cf.attest, "b64u_decode", "codec.b64u_decode", None),
        (cf.wire.SegmentEnvelope, "from_dict", "wire.envelope_decode", None),
        (cf.miner, "parse_segment_payload", "wire.parse_payload", None),
        (cf.miner, "case_payload", "wire.case_payload", None),
        (cf.miner, "decrypt_segment", "wire.decrypt", None),
        (cf.miner, "merge_case", "merge.merge_case", parts),
        (cf.miner, "accumulate", "hminer.accumulate", None),
        (cf.miner, "build_net", "hminer.build_net", None),
        (cf.miner, "make_report", "attest.make_report", None),
        (cf.MinerSession, "run_initialization", "miner.init", None),
        (cf.MinerSession, "run_acquisition", "miner.acquire", None),
        (cf.MinerSession, "run_computation", "miner.compute", None),
        (cf.MinerSession, "enqueue", "miner.enqueue", None),
    ]
    for transport in (cf.LoopbackHub, cf.HttpTransport):
        probes += [
            (transport, "get_case_refs", "transport.caserefs_call", request),
            (transport, "post_cases", "transport.cases_call", post(push=False)),
            (transport, "post_attestation", "transport.attest_call", post(push=False)),
            (transport, "push_segment", "transport.push", post(push=True)),
        ]
    for owner, attr, name, on_call in probes:
        # a name a later version drops reads as zero rather than failing
        if hasattr(owner, attr):
            tracer.patch(owner, attr, name, on_call)


def layer_metrics(tracer: Tracer, session, parse_csv_s: float, close_s: float) -> dict:
    tot = tracer.totals()
    counts = tracer.counts
    segments = counts["provisioner.segments"]
    payload = counts["wire.payload_bytes"]
    calls = Counter(s.name for s in tracer.spans)
    merged = calls["merge.merge_case"]
    transport_under_acquire = tracer.child_time(
        "miner.acquire", {"transport.cases_call", "transport.attest_call", "transport.caserefs_call"}
    )
    return {
        "eventlog.parse_csv_s": parse_csv_s,
        "provisioner.segment_log_s": tot["provisioner.segment_log"],
        "provisioner.segments": segments,
        "provisioner.seg_fill": payload / counts["provisioner.capacity_bytes"] if segments else 0.0,
        "provisioner.seal_s": tot["provisioner.seal"],
        "codec.b64u_encode_s": tot["codec.b64u_encode"],
        "codec.b64u_decode_s": tot["codec.b64u_decode"],
        "wire.envelope_decode_s": tot["wire.envelope_decode"],
        "wire.parse_payload_s": tot["wire.parse_payload"],
        "wire.case_payload_s": tot["wire.case_payload"],
        "wire.payload_bytes": payload,
        "wire.decrypt_s": tot["wire.decrypt"],
        "transport.push_s": tot["transport.push"],
        "transport.attest_call_s": tot["transport.attest_call"],
        "transport.requests": counts["transport.requests"],
        "transport.body_bytes": counts["transport.body_bytes"],
        "transport.expansion": counts["transport.push_body_bytes"] / payload if payload else 0.0,
        "transport.close_s": close_s,
        "miner.init_s": tot["miner.init"],
        "miner.acquire_s": tot["miner.acquire"],
        "miner.drain_s": tot["miner.acquire"] - transport_under_acquire,
        "miner.compute_s": tot["miner.compute"],
        "miner.enqueue_s": tot["miner.enqueue"],
        "miner.ledger_bytes": in_use_at(session, "init", last=True),
        "miner.queued_bytes_at_transmit": in_use_at(session, "transmit", last=False),
        "merge.merge_case_s": tot["merge.merge_case"],
        "merge.cases": calls["merge.merge_case"],
        "merge.parts_per_case": counts["merge.parts"] / merged if merged else 0.0,
        "hminer.accumulate_s": tot["hminer.accumulate"],
        "hminer.folds": calls["hminer.accumulate"],
        "hminer.build_net_s": tot["hminer.build_net"],
        "attest.make_report_s": tot["attest.make_report"],
        "attest.verify_report_s": tot["attest.verify_report"],
        "gc.pause_s": tracer.gc_pause_s,
        "gc.collections": tracer.gc_collections,
    }


# ---------------------------------------------------------------------------
# runs and reporting


def declared_units(section: str) -> dict[str, str]:
    """Metric name to unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def measure(cf, w, inputs, identity, registry, probes, seconds: float, trace: bool):
    """Closed loop: one set-up and session after another until time is up.

    With tracing, traced and untraced sessions alternate, so that a drift in
    machine speed during the run reaches both halves alike.
    """
    deadline = time.perf_counter() + seconds
    plain: list[SessionResult] = []
    traced: list[SessionResult] = []

    def done() -> bool:
        fewest = min(len(plain), len(traced)) if trace else len(plain)
        return fewest >= MIN_SESSIONS and time.perf_counter() >= deadline

    while not done():
        if trace and len(traced) < len(plain):
            traced.append(one_session(cf, w, inputs, identity, registry, probes, traced=True))
        else:
            plain.append(one_session(cf, w, inputs, identity, registry, probes, traced=False))
    return plain, traced


def run_workload(cf, name: str, seed: int, seconds: float, trace: bool, units: dict[str, str]) -> dict:
    w = WORKLOADS[name]
    inputs = make_inputs(cf, w, seed, standalone_repeats=5 if trace else 1)
    gc.collect()
    t0 = time.perf_counter()
    identity = cf.EnclaveIdentity.generate()
    keygen_s = time.perf_counter() - t0
    registry = cf.ReferenceRegistry.of(identity.measurement)
    with ExitStack() as stack:
        # Set-up parses CSV and allocates like AllocProbe. The networked
        # session is socket calls, thread hand-offs and RSA unwraps, which
        # AllocProbe does not track and HttpProbe does (see README.md).
        probes = {"alloc": AllocProbe()}
        if w.networked:
            probes["http"] = stack.enter_context(HttpProbe())
        plain, traced = measure(cf, w, inputs, identity, registry, probes, seconds, trace)
    everything = plain + traced
    failures = Counter(r.error for r in everything if r.error is not None)
    ok = [r for r in plain if r.error is None] or plain

    def scale(probe: str) -> float:
        # One factor for the whole run: the machine's speed phases last
        # longer than a session, and a single pass is noisier than a session.
        return REFERENCE_S / statistics.median(t for r in everything for t in r.probe_s[probe])

    setup_scale = scale("alloc")
    session_scale = scale("http" if w.networked else "alloc")
    session_wall_s = statistics.median(r.session_s for r in ok)
    session_s = session_wall_s * session_scale
    setup_wall_s = statistics.median(r.setup_s for r in plain)
    if trace:
        metrics = {key: statistics.median(r.layers[key] for r in traced) for key in traced[0].layers}
        standalone_s = statistics.median(inputs.standalone_s)
        metrics.update({
            "attest.keygen_s": keygen_s,
            "harness.standalone_s": standalone_s,
            "harness.session_wall_s": session_wall_s,
            "harness.setup_scale": setup_scale,
            "harness.session_scale": session_scale,
            "harness.overhead_x": session_wall_s / standalone_s,
            "harness.tracing_overhead": statistics.median(r.session_s for r in traced) / session_wall_s - 1.0,
        })
    else:
        metrics = {
            "setup_s": setup_wall_s * setup_scale,
            "session_s": session_s,
            "peak_enclave_bytes": statistics.median_low(r.peak for r in ok),
            "session_ok_ratio": 1.0 - sum(r.error is not None for r in plain) / len(plain),
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    print(
        f"workload {name}: seed {seed} (scenario seed {inputs.scenario_seed}), {inputs.events} events, "
        f"{len(inputs.csv_texts)} orgs, seg_size {w.seg_size} B, {'HTTP' if w.networked else 'loopback'}, "
        f"{w.mode}; {len(plain)} untraced + {len(traced)} traced sessions, {sum(failures.values())} failed"
    )
    print("  session wall s:    " + " ".join(f"{r.session_s:.3f}" for r in plain))
    print("  set-up wall s:     " + " ".join(f"{r.setup_s:.3f}" for r in plain))
    for probe in plain[0].probe_s:
        print(f"  {probe + ' probe s:':19s}" + " ".join(f"{statistics.median(r.probe_s[probe]):.3f}" for r in plain))
    print(f"  median wall: session {session_wall_s:.6g} s, set-up {setup_wall_s:.6g} s; "
          f"scale: session {session_scale:.4f}, set-up {setup_scale:.4f}")
    for kind, n in sorted(failures.items()):
        print(f"  failed: {kind} x{n}")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:>16.6g} {units[key]}")
    if trace:
        print_shares(traced)
    return {
        "correct": not failures,
        "attempted": len(everything),
        "failed": sum(failures.values()),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def print_shares(traced: list[SessionResult]) -> None:
    """Where traced session time went, as shares of session wall time."""
    wall = sum(r.session_s for r in traced)
    self_s: Counter = Counter()
    for r in traced:
        self_s.update(r.self_s)
    print("  self time per span, share of traced session time (server-thread spans overlap their caller):")
    for span, t in self_s.most_common():
        print(f"    {span:30s} {t / wall:7.1%}")

    def share(*keys: str) -> float:
        return sum(sum(r.layers[k] for r in traced) for k in keys) / wall

    print(
        "  codec spans (parse, sizing, segment_log, envelope decode): "
        f"{share('wire.parse_payload_s', 'wire.case_payload_s', 'provisioner.segment_log_s', 'wire.envelope_decode_s'):.1%}"
    )
    print(f"  transport.push_s + wire.decrypt_s: {share('transport.push_s', 'wire.decrypt_s'):.1%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        cf = import_confine()
    except ImportError as exc:
        print(f"perfbench: cannot import confine from {SRC}: {exc}", file=sys.stderr)
        return 2
    units = declared_units("per_layer" if args.trace else "end_to_end")
    # the networked workload talks to 127.0.0.1 only; never through a proxy
    for var in ("NO_PROXY", "no_proxy"):
        os.environ[var] = ",".join(filter(None, (os.environ.get(var), "127.0.0.1", "localhost")))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(cf, name, args.seed, args.seconds, bool(args.trace), units)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
