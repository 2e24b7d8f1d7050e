"""Data holder service: announces case refs, gates them behind attestation.

The service itself is transport-neutral: ``ProvisionerServer`` serves it
over HTTP and ``LoopbackHub`` in process, both through the one route table
in ``transport``. Segments are pushed to the miner's callback only after
the evidence verified, so no case data ever leaves before a trusted
verdict. Sealed segments travel in batches, one push per batch, and each
batch is pushed once before the verdict is answered: ``trusted`` if the
miner acknowledged every segment, else ``error`` naming the segments of
the first batch not delivered. The miner opens each segment as it
arrives, so by the answer it holds everything this org will deliver.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .attest import AttestationReport, ReferenceRegistry, new_nonce, verify_report
from .eventlog import EventLog
from .transport import BODY_ALLOWANCE, JsonServer, TransportError, provisioner_routes
from .wire import (
    Ack,
    AttestationChallenge,
    CaseRefResponse,
    CaseRequest,
    KIB,
    SealingKey,
    Segment,
    UnknownCaseRefsError,
    encrypt_segment,
    segment_log,
)

__all__ = ["AccessDeniedError", "BATCH_PAYLOAD_BYTES", "ProvisionerService", "ProvisionerServer"]

log = logging.getLogger(__name__)

# payload bytes one push carries at most; a larger segment is pushed alone
BATCH_PAYLOAD_BYTES = 64 * KIB


class AccessDeniedError(PermissionError):
    """The requesting miner id is not on the allow-list."""


def _batches(segments: list[Segment]) -> Iterator[list[Segment]]:
    """Consecutive segments, cut where the next would take the payload past the bound."""
    batch: list[Segment] = []
    size = 0
    for segment in segments:
        if batch and size + len(segment.payload) > BATCH_PAYLOAD_BYTES:
            yield batch
            batch, size = [], 0
        batch.append(segment)
        size += len(segment.payload)
    if batch:
        yield batch


def _span(batch: list[Segment]) -> str:
    """The batch's segments as a failure names them: ``segment 5/9`` or ``segments 0-3/9``."""
    first, last = batch[0], batch[-1]
    if first is last:
        return f"segment {first.seq_no}/{first.total}"
    return f"segments {first.seq_no}-{last.seq_no}/{first.total}"


@dataclass
class ProvisionerService:
    """One organization's provisioner: refs, challenges, sealed segments.

    ``push(callback, body)`` sends one batch, ``{"envelopes": [...]}``, to
    the miner's callback and returns its ack.
    """

    org_id: str
    log_data: EventLog
    registry: ReferenceRegistry
    allowed_miners: Iterable[str]
    push: Callable[[str, dict], dict]
    _pending: dict[bytes, CaseRequest] = field(default_factory=dict, init=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def __post_init__(self) -> None:
        self.allowed_miners = set(self.allowed_miners)
        if not self.registry.measurements:
            raise ValueError("reference registry is empty, nothing could ever be trusted")

    # -- stage 1: initialization ------------------------------------------

    def serve_case_refs(self, miner_id: str) -> dict:
        """List the case refs this org holds; empty logs yield empty lists."""
        if "*" not in self.allowed_miners and miner_id not in self.allowed_miners:
            raise AccessDeniedError(f"miner {miner_id!r} is not allowed at org {self.org_id!r}")
        return CaseRefResponse(org=self.org_id, refs=tuple(self.log_data.case_refs())).to_dict()

    # -- stage 2: challenge and attestation --------------------------------

    def handle_case_request(self, body: dict) -> dict:
        """Validate a case request and answer with a fresh challenge."""
        req = CaseRequest.from_dict(body)
        if req.seg_size < 1:
            raise ValueError(f"seg_size must be >= 1, got {req.seg_size}")
        if not req.callback:
            raise ValueError("case request needs a callback URL")
        unknown = [r for r in req.refs if r not in self.log_data.cases]
        if unknown:
            raise UnknownCaseRefsError(unknown)
        nonce = new_nonce()
        with self._lock:
            self._pending[nonce] = req
        return AttestationChallenge(nonce=nonce).to_dict()

    def handle_attestation(self, body: dict) -> dict:
        """Appraise evidence; on trust, seal and push the requested cases.

        The nonce echoed inside the report selects the pending request. A
        report for an unknown or already consumed nonce is rejected as
        stale, so replays never release data twice. A trusted report is
        answered ``trusted`` only when every segment was acknowledged.
        """
        try:
            report = AttestationReport.from_dict(body)
        except ValueError:
            return Ack(status="rejected", reason="malformed_report").to_dict()

        with self._lock:
            # challenges are single-use: consumed on first answer, whatever
            # the verdict, so replays and retries always read stale_nonce
            request = self._pending.pop(report.nonce, None)
        if request is None:
            return Ack(status="rejected", reason="stale_nonce").to_dict()

        rejection = verify_report(report, expected_nonce=report.nonce, registry=self.registry)
        if rejection is not None:
            log.info("org %s rejected attestation: %s", self.org_id, rejection)
            return Ack(status="rejected", reason=rejection).to_dict()

        failure = self._deliver(request, report.enc_pub)
        if failure is not None:
            return Ack(status="error", reason=failure).to_dict()
        return Ack(status="trusted").to_dict()

    # -- stage 3: transmission ---------------------------------------------

    def _deliver(self, request: CaseRequest, enc_pub: bytes) -> str | None:
        """Push each batch once; the reason for the first failure, if any.

        A batch holds whole sealed segments in order, at most
        ``BATCH_PAYLOAD_BYTES`` of payload unless one segment alone is
        larger, and travels as one ``{"envelopes": [...]}`` body. There is
        no retry: a push whose ack was lost may already have been opened,
        and pushing it again would read as duplicate segments. The whole
        delivery is sealed under one key, wrapped once for the enclave and
        dropped when the loop ends.
        """
        segments = segment_log(self.log_data, list(request.refs), request.seg_size, self.org_id)
        log.info(
            "org %s delivering %d case(s) in %d segment(s)",
            self.org_id, len(request.refs), len(segments),
        )
        sealing = SealingKey.for_enclave(enc_pub)
        for batch in _batches(segments):
            body = {"envelopes": [encrypt_segment(segment, sealing).to_dict() for segment in batch]}
            try:
                ack = Ack.from_dict(self.push(request.callback, body))
                if ack.status == "ok":
                    continue
                failure = f"{_span(batch)} refused: {ack.reason}"
            except TransportError as exc:
                failure = f"{_span(batch)} undelivered: {exc.detail}"
            except ValueError as exc:  # an ack outside the protocol
                failure = f"{_span(batch)} refused: {exc}"
            log.error("org %s stopped delivery to %s: %s", self.org_id, request.callback, failure)
            return failure
        return None


class ProvisionerServer(JsonServer):
    """HTTP front end of one ProvisionerService."""

    def __init__(self, service: ProvisionerService, host: str = "127.0.0.1", port: int = 0):
        # a case request names a subset of these refs; a report is about 0.3 KB
        refs = json.dumps(service.log_data.case_refs()).encode("utf-8")
        super().__init__(provisioner_routes(service), len(refs) + BODY_ALLOWANCE, host, port)
