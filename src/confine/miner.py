"""Miner session: the trusted application driving the protocol end to end.

Decrypted case data lives only in the session's private store and leaves
the process exclusively as mined nets and metrics. Each pushed segment is
opened as it arrives, one at a time under a lock, so every buffer inside
the simulated enclave is bounded and charged against an explicit memory
budget: the ciphertext and plaintext of the segment being opened, the
table of cases still waiting on a holder, merged cases waiting to be mined
and the running mining statistics.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass, field

from .attest import EnclaveIdentity, make_report
from .eventlog import Row, merge_case
from .hminer import DfStats, HeuristicsNet, MinerConfig, accumulate, build_net, serialize_net
from .transport import BODY_ALLOWANCE, JsonServer, TransportError, segment_routes
from .wire import (
    Ack,
    AttestationChallenge,
    CaseRefResponse,
    CaseRequest,
    DEFAULT_SEG_SIZE,
    IntegrityError,
    MIB,
    SealingKey,
    SegmentEnvelope,
    decrypt_segment,
    parse_segment_payload,
    unwrap_key,
)

__all__ = [
    "EnclaveMemoryExceeded",
    "BudgetAccountingError",
    "InitializationError",
    "AttestationRejectedError",
    "IncompleteDeliveryError",
    "DeliveryError",
    "EnclaveBudget",
    "MinerSession",
    "MinerReceiver",
    "DEFAULT_CAPACITY",
    "MODES",
]

log = logging.getLogger(__name__)

DEFAULT_CAPACITY = 128 * MIB

MODES = ("single_batch", "incremental")

STAGES = ("init", "attest", "transmit", "compute")

# Logical byte sizes of enclave bookkeeping structures. They are charged
# like any buffer: each (case, org) pair still owed costs an entry until
# that org delivers the case, and every retained part of a case costs a
# fixed overhead on top of its rows.
LEDGER_ENTRY_BYTES = 32
PART_OVERHEAD_BYTES = 48


class EnclaveMemoryExceeded(RuntimeError):
    """A charge would push enclave memory beyond its capacity."""


class BudgetAccountingError(RuntimeError):
    """Charge and release calls went out of balance; this is a bug."""


class InitializationError(RuntimeError):
    """A provider could not be enumerated during initialization."""


class AttestationRejectedError(RuntimeError):
    """A provider refused this enclave's evidence."""

    def __init__(self, org: str, reason: str | None):
        self.org = org
        self.reason = reason
        super().__init__(f"org {org!r} rejected attestation: {reason}")


class DeliveryError(ValueError):
    """A delivery or case-ref list violates the announced protocol state."""


class IncompleteDeliveryError(RuntimeError):
    """Announced cases never arrived in full."""

    def __init__(self, missing: dict[str, set[str]]):
        self.missing = missing
        stragglers = "; ".join(
            f"{ref} (waiting on {', '.join(sorted(orgs))})" for ref, orgs in sorted(missing.items())
        )
        super().__init__(f"incomplete deliveries: {stragglers}")


@dataclass
class EnclaveBudget:
    """Simulated enclave memory: explicit charge/release with a hard cap."""

    capacity: int = DEFAULT_CAPACITY
    in_use: int = 0
    peak: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def charge(self, n: int) -> None:
        if n < 0:
            raise BudgetAccountingError(f"negative charge of {n} bytes")
        with self._lock:
            if self.in_use + n > self.capacity:
                raise EnclaveMemoryExceeded(
                    f"charge of {n} bytes exceeds capacity: "
                    f"{self.in_use} in use of {self.capacity}"
                )
            self.in_use += n
            if self.in_use > self.peak:
                self.peak = self.in_use

    def release(self, n: int) -> None:
        if n < 0:
            raise BudgetAccountingError(f"negative release of {n} bytes")
        with self._lock:
            if n > self.in_use:
                raise BudgetAccountingError(
                    f"release of {n} bytes would drop in_use below zero ({self.in_use} held)"
                )
            self.in_use -= n


def _ct_size(env: SegmentEnvelope) -> int:
    return len(env.wrapped_key) + len(env.ciphertext)


def _entry_size(ref: str, org: str) -> int:
    return len(ref) + len(org) + LEDGER_ENTRY_BYTES


@dataclass
class _Waiting:
    """A case some announced holder still owes: who, the parts so far, their bytes."""

    owed: set[str]
    parts: list[list[Row]] = field(default_factory=list)
    charged: int = 0


class MinerSession:
    """Runs initialization, acquisition and computation against providers.

    A partial case waits in one table entry, as lists of plain
    ``(timestamp, org, activity)`` rows, one per delivering org, until its
    last holder delivers; ``merge_case`` then sorts its rows, the entry
    leaves the table, and only the case's activity sequence waits to be
    folded. No ``Event`` is built inside the enclave.

    mode is "single_batch" (mine once after all cases merged) or
    "incremental" (fold merged cases into the statistics every
    batch_cases, releasing their buffers early).
    """

    def __init__(
        self,
        providers: list[str],
        transport,
        callback_url: str,
        seg_size: int = DEFAULT_SEG_SIZE,
        mode: str = "single_batch",
        batch_cases: int = 100,
        capacity: int = DEFAULT_CAPACITY,
        miner_config: MinerConfig = MinerConfig(),
        identity: EnclaveIdentity | None = None,
        miner_id: str = "miner1",
    ):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "incremental" and batch_cases < 1:
            raise ValueError("batch_cases must be >= 1")
        if seg_size < 1:
            raise ValueError("seg_size must be >= 1")
        self.providers = list(providers)
        self.transport = transport
        self.callback_url = callback_url
        self.seg_size = seg_size
        self.mode = mode
        self.batch_cases = batch_cases
        self.budget = EnclaveBudget(capacity=capacity)
        self.miner_config = miner_config
        self.identity = identity or EnclaveIdentity.generate()
        self.miner_id = miner_id

        self.stats = DfStats()
        self.net: HeuristicsNet | None = None
        self.metrics: list[tuple[float, str, int, int]] = []
        # secrecy audit transcript: every request sent, every ack returned
        # and the text of the error run() raises
        self.emitted: list[bytes] = []

        # enqueue may run on a receiver thread: segments are opened one at
        # a time, and the first failure is kept for run_acquisition to raise.
        # Intake opens once every case-ref list is in, so no case can complete
        # before all its holders are known, and closes when acquisition
        # ends, so an early or late push is refused unopened.
        self._intake_lock = threading.Lock()
        self._open = False
        self._fatal: BaseException | None = None
        self._org_urls: dict[str, str] = {}
        self._org_refs: dict[str, tuple[str, ...]] = {}
        # each org seals its whole delivery under one key: unwrapped on the
        # org's first envelope, then every later envelope must carry it
        self._org_keys: dict[str, SealingKey] = {}
        # segments opened per org; the host saw each one pushed anyway
        self.segments_opened: dict[str, int] = {}
        # Enclave-tagged store: raw case data is reachable only through
        # these private buffers and is never exported.
        self._waiting: dict[str, _Waiting] = {}
        # merged cases waiting to be folded, each only its activity sequence
        self._eligible: list[tuple[str, ...]] = []
        self._eligible_charged = 0
        self._stats_charged = 0
        self._stage = "init"
        self._t0 = time.perf_counter()

    # -- instrumentation ----------------------------------------------------

    def _metric(self) -> None:
        t_ms = (time.perf_counter() - self._t0) * 1000.0
        self.metrics.append((round(t_ms, 3), self._stage, self.budget.in_use, self.budget.peak))

    def metrics_csv(self) -> str:
        lines = ["t_ms,stage,in_use_bytes,peak_bytes"]
        for t_ms, stage, in_use, peak in self.metrics:
            lines.append(f"{t_ms},{stage},{in_use},{peak}")
        return "\n".join(lines) + "\n"

    def exports(self) -> dict[str, bytes]:
        """Everything the enclave ever hands to the outside."""
        out = {"metrics.csv": self.metrics_csv().encode("utf-8")}
        if self.net is not None:
            out["net.json"] = serialize_net(self.net, "json").encode("utf-8")
            out["net.dot"] = serialize_net(self.net, "dot").encode("utf-8")
        return out

    def emitted_payloads(self) -> list[bytes]:
        """All byte blobs that crossed the enclave boundary outward."""
        return self.emitted + list(self.exports().values())

    def _emit(self, message: dict) -> None:
        self.emitted.append(json.dumps(message, sort_keys=True).encode("utf-8"))

    def _send(self, org: str, kind: str, body: dict, parse):
        """One acquisition request to ``org``, parsed by ``parse``.

        A transport failure or malformed answer is a DeliveryError naming
        the org, unless this session already refused a segment: that
        refusal keeps its own error type.
        """
        url = self._org_urls[org]
        self._emit(body)
        call = self.transport.post_cases if kind == "cases" else self.transport.post_attestation
        try:
            return parse(call(url, body))
        except TransportError as exc:
            detail = exc.detail
        except ValueError as exc:
            detail = str(exc)
        if self._fatal is not None:
            raise self._fatal
        raise DeliveryError(f"org {org!r} {kind} request failed: {detail}")

    # -- segment intake ------------------------------------------------------

    def enqueue(self, raw: dict) -> dict:
        """Open one pushed envelope now; the receiver calls this once per envelope of a batch.

        A refusal names only the exception's class, since every ack leaves
        the enclave. The first refusal is kept without its traceback or
        chained errors, whose frames would hold the payload or the delivery
        key. Before ``run_initialization`` completes and once acquisition
        ended, every envelope is refused as a DeliveryError and nothing is
        charged.
        """
        with self._intake_lock:
            try:
                env = SegmentEnvelope.from_dict(raw)
                if not self._open:
                    raise DeliveryError(
                        f"org {env.org!r} segment {env.seq_no}/{env.total} arrived while intake is closed"
                    )
                self._process_envelope(env)
                ack = Ack(status="ok")
            except Exception as exc:
                if self._fatal is None:
                    exc.__cause__ = exc.__context__ = None
                    self._fatal = exc.with_traceback(None)
                ack = Ack(status="error", reason=type(exc).__name__)
            reply = ack.to_dict()
            self._emit(reply)
            return reply

    # -- stage 1: initialization ---------------------------------------------

    def run_initialization(self) -> None:
        """Learn which org holds which cases, then open intake.

        Every case enters the waiting table owed by each org that announced
        it; an org listing a case twice owes it once.
        """
        self._stage = "init"
        self._metric()
        for url in self.providers:
            self._emit({"miner_id": self.miner_id})
            try:
                resp = CaseRefResponse.from_dict(self.transport.get_case_refs(url, self.miner_id))
            except TransportError as exc:
                raise InitializationError(f"provider {url} failed: {exc.detail}") from None
            except ValueError as exc:
                raise InitializationError(f"provider {url} answered badly: {exc}") from None
            if resp.org in self._org_urls:
                raise InitializationError(f"duplicate org {resp.org!r} announced by {url}")
            self._org_urls[resp.org] = url
            self._org_refs[resp.org] = resp.refs
            refs = set(resp.refs)
            self.budget.charge(sum(_entry_size(ref, resp.org) for ref in refs))
            for ref in refs:
                self._waiting.setdefault(ref, _Waiting(set())).owed.add(resp.org)
            log.info("org %s announced %d case(s)", resp.org, len(refs))
            self._metric()
        self._open = True

    # -- stage 2 + 3: attestation and transmission ----------------------------

    def run_acquisition(self) -> None:
        """Attest to every provider; each pushes its segments before it answers.

        Intake closes when this returns or raises, so a later push is
        refused unopened.
        """
        try:
            for org in sorted(self._org_urls):
                refs = self._org_refs[org]
                if not refs:
                    log.info("org %s holds no cases, skipping", org)
                    continue
                self._stage = "attest"
                self._metric()
                request = CaseRequest(seg_size=self.seg_size, refs=refs, callback=self.callback_url)
                challenge = self._send(org, "cases", request.to_dict(), AttestationChallenge.from_dict)
                report = make_report(self.identity, challenge.nonce)
                self._stage = "transmit"
                ack = self._send(org, "attestation", report.to_dict(), Ack.from_dict)
                # a segment this session refused keeps its own error type
                if self._fatal is not None:
                    raise self._fatal
                if ack.status == "rejected":
                    raise AttestationRejectedError(org, ack.reason)
                if ack.status != "trusted":
                    raise DeliveryError(f"org {org!r} could not deliver: {ack.reason}")
                self._metric()
        finally:
            with self._intake_lock:
                self._open = False
        if self._fatal is not None:
            raise self._fatal
        if self._waiting:
            raise IncompleteDeliveryError({ref: set(case.owed) for ref, case in self._waiting.items()})

    def _process_envelope(self, env: SegmentEnvelope) -> None:
        held = _ct_size(env)
        self.budget.charge(held)
        try:
            if env.org not in self._org_refs:
                raise DeliveryError(f"segment from unannounced org {env.org!r}")
            # a relabeled header fails authentication; a replayed segment
            # delivers cases its org no longer owes and is refused below
            payload = decrypt_segment(env, self._delivery_key(env))
            self.segments_opened[env.org] = self.segments_opened.get(env.org, 0) + 1
            self.budget.charge(len(payload))
            held += len(payload)
            part_rows, part_sizes = parse_segment_payload(payload)
            for ref, rows in part_rows.items():
                case = self._waiting.get(ref)
                if case is None or env.org not in case.owed:
                    how = "twice" if ref in self._org_refs[env.org] else "which it never announced"
                    raise DeliveryError(
                        f"org {env.org!r} segment {env.seq_no}/{env.total} delivered case {ref!r} {how}"
                    )
                size = part_sizes[ref] + PART_OVERHEAD_BYTES
                self.budget.charge(size)
                case.owed.remove(env.org)
                self.budget.release(_entry_size(ref, env.org))
                case.parts.append(rows)
                case.charged += size
                if not case.owed:
                    self._eligible.append(merge_case(case.parts))
                    del self._waiting[ref]
                    self._eligible_charged += case.charged
                    if self.mode == "incremental" and len(self._eligible) >= self.batch_cases:
                        self._flush()
        finally:
            self.budget.release(held)
        self._metric()

    def _delivery_key(self, env: SegmentEnvelope) -> SealingKey:
        """The org's delivery key; unwrapped once, on its first envelope."""
        pinned = self._org_keys.get(env.org)
        if pinned is None:
            pinned = self._org_keys[env.org] = unwrap_key(env.wrapped_key, self.identity.enc_priv)
        elif env.wrapped_key != pinned.wrapped:
            raise IntegrityError(
                f"org {env.org!r} segment {env.seq_no}/{env.total} carries a different wrapped key"
            )
        return pinned

    def _flush(self) -> None:
        """Fold buffered merged cases into the statistics, free their bytes."""
        if not self._eligible:
            return
        accumulate(self.stats, self._eligible)
        new_estimate = self.stats.estimate_bytes()
        if new_estimate > self._stats_charged:
            self.budget.charge(new_estimate - self._stats_charged)
            self._stats_charged = new_estimate
        self.budget.release(self._eligible_charged)
        self._eligible_charged = 0
        self._eligible.clear()
        self._metric()

    # -- stage 4: computation --------------------------------------------------

    def run_computation(self) -> HeuristicsNet:
        """Mine the merged cases."""
        self._stage = "compute"
        self._metric()
        self._flush()
        if self.stats.case_count == 0:
            raise DeliveryError("no eligible cases were delivered, nothing to mine")
        self.net = build_net(self.stats, self.miner_config)
        self._metric()
        return self.net

    def finish(self) -> None:
        """Close intake; release every enclave buffer and delivery key."""
        with self._intake_lock:
            self._open = False
            held = self._eligible_charged + self._stats_charged + sum(
                case.charged + sum(_entry_size(ref, org) for org in case.owed)
                for ref, case in self._waiting.items()
            )
            self.budget.release(held)
            self._waiting.clear()
            self._eligible.clear()
            self._eligible_charged = self._stats_charged = 0
            self._org_keys.clear()
            self._metric()

    def run(self) -> HeuristicsNet:
        """Full protocol: initialization, acquisition, computation.

        ``finish`` runs whatever the outcome, so a failure keeps no case
        data; the error's text is recorded in ``emitted`` before it leaves.
        """
        try:
            self.run_initialization()
            self.run_acquisition()
            return self.run_computation()
        except Exception as exc:
            self.emitted.append(f"{type(exc).__name__}: {exc}".encode("utf-8"))
            raise
        finally:
            self.finish()


class MinerReceiver(JsonServer):
    """HTTP endpoint where provisioners push batches of segment envelopes.

    Each provisioner pushes its whole delivery over one kept-alive
    connection, served by that connection's own thread, one request per
    batch; the session still opens and acknowledges segments one at a time
    under its intake lock. A client that trickles a request holds only its
    own thread.
    """

    def __init__(self, session: MinerSession, host: str = "127.0.0.1", port: int = 0):
        # a segment larger than the whole budget in base64 could never be
        # opened; a batch of smaller ones holds at most the provisioner's
        # BATCH_PAYLOAD_BYTES of payload, under 0.6 MB of JSON even as
        # 31-byte one-row segments
        max_body = -(-session.budget.capacity // 3) * 4 + BODY_ALLOWANCE
        super().__init__(segment_routes(session.enqueue), max_body, host, port)
