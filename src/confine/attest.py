"""Remote attestation: enclave identity, evidence reports, verification.

The enclave measurement is the SHA-256 digest of the package's own source:
every module of ``confine``, in name order, framed by its file name and
byte length. Any code change moves the measurement, so a registry must be
rebuilt after one. A report binds the measurement to a verifier-chosen
nonce and to the enclave's raw 32-byte X25519 encryption key, under an
Ed25519 signature. Verification is one-way: data holders appraise the
miner enclave, never the reverse.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import os
from dataclasses import dataclass
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from .wire import Message, parse_json_object

__all__ = [
    "NONCE_BYTES",
    "compute_measurement",
    "enclave_code",
    "default_measurement",
    "new_nonce",
    "EnclaveIdentity",
    "AttestationReport",
    "ReferenceRegistry",
    "make_report",
    "verify_report",
]

NONCE_BYTES = 16
_MEASUREMENT_BYTES = 32


def compute_measurement(code: bytes) -> bytes:
    """SHA-256 digest of the enclave's code, its identity value."""
    return hashlib.sha256(code).digest()


def enclave_code() -> bytes:
    """Each module's source in name order, after a ``name length`` line; no path or mtime."""
    package = importlib.resources.files(__package__)
    code = []
    for name in sorted(f.name for f in package.iterdir() if f.name.endswith(".py")):
        data = package.joinpath(name).read_bytes()
        code.append(b"%s %d\n%s" % (name.encode(), len(data), data))
    return b"".join(code)


def default_measurement() -> bytes:
    return compute_measurement(enclave_code())


def new_nonce() -> bytes:
    """Fresh 16-byte challenge; uniqueness defeats report replay."""
    return os.urandom(NONCE_BYTES)


@dataclass(frozen=True)
class EnclaveIdentity:
    """Key material and measurement of one (simulated) enclave instance."""

    att_priv: Ed25519PrivateKey
    enc_priv: X25519PrivateKey
    measurement: bytes

    @classmethod
    def generate(cls) -> "EnclaveIdentity":
        return cls(Ed25519PrivateKey.generate(), X25519PrivateKey.generate(), default_measurement())

    @property
    def att_pub(self) -> bytes:
        return self.att_priv.public_key().public_bytes_raw()

    @property
    def enc_pub(self) -> bytes:
        return self.enc_priv.public_key().public_bytes_raw()


@dataclass(frozen=True, slots=True)
class AttestationReport(Message):
    """Signed evidence: measurement, echoed nonce and both public keys."""

    measurement: bytes
    nonce: bytes
    enc_pub: bytes
    att_pub: bytes
    sig: bytes


def _signing_input(measurement: bytes, nonce: bytes, enc_pub: bytes) -> bytes:
    # measurement and nonce have fixed lengths, so plain concatenation is
    # unambiguous.
    return measurement + nonce + enc_pub


def make_report(identity: EnclaveIdentity, nonce: bytes) -> AttestationReport:
    """Produce signed evidence answering one challenge."""
    if len(nonce) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} bytes, got {len(nonce)}")
    enc_pub = identity.enc_pub
    return AttestationReport(
        measurement=identity.measurement,
        nonce=nonce,
        enc_pub=enc_pub,
        att_pub=identity.att_pub,
        sig=identity.att_priv.sign(_signing_input(identity.measurement, nonce, enc_pub)),
    )


@dataclass(frozen=True)
class ReferenceRegistry:
    """Measurements the verifier accepts as trustworthy builds."""

    measurements: frozenset[bytes]

    def __post_init__(self) -> None:
        bad = [m for m in self.measurements if len(m) != _MEASUREMENT_BYTES]
        if bad:
            raise ValueError(f"measurements must be {_MEASUREMENT_BYTES} bytes")

    @classmethod
    def of(cls, *measurements: bytes) -> "ReferenceRegistry":
        return cls(frozenset(measurements))

    def to_json(self) -> str:
        digests = sorted(m.hex() for m in self.measurements)
        return json.dumps({"accepted_measurements": digests}, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReferenceRegistry":
        try:
            digests = parse_json_object(text).get("accepted_measurements")
        except ValueError:
            digests = None  # no JSON object, so no registry
        if not isinstance(digests, list) or not all(isinstance(d, str) for d in digests):
            raise ValueError("registry needs an accepted_measurements list of hex digests")
        return cls(frozenset(bytes.fromhex(d) for d in digests))

    @classmethod
    def load(cls, path: str | Path) -> "ReferenceRegistry":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")


def verify_report(
    report: AttestationReport,
    expected_nonce: bytes,
    registry: ReferenceRegistry,
) -> str | None:
    """Appraise evidence: genuine signature, fresh nonce, known measurement.

    Returns None for a trusted report, else the rejection reason:
    bad_signature, stale_nonce or unknown_measurement. Rejection is a
    value, never an exception; malformed key or signature material counts
    as bad_signature.
    """
    try:
        Ed25519PublicKey.from_public_bytes(report.att_pub).verify(
            report.sig, _signing_input(report.measurement, report.nonce, report.enc_pub)
        )
    except Exception:
        return "bad_signature"
    if report.nonce != expected_nonce:
        return "stale_nonce"
    if report.measurement not in registry.measurements:
        return "unknown_measurement"
    return None
