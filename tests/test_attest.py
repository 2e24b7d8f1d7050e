"""Measurement, report generation and verification, including fuzzing."""

import hashlib
import json
import pkgutil
import random
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec

import confine
from confine.attest import (
    NONCE_BYTES,
    AttestationReport,
    ReferenceRegistry,
    compute_measurement,
    default_measurement,
    enclave_code,
    make_report,
    new_nonce,
    verify_report,
)

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_measurement_of_empty_manifest_is_known_digest():
    assert compute_measurement(b"").hex() == SHA256_EMPTY


def test_measurement_distinguishes_manifests():
    assert compute_measurement(b"v1") != compute_measurement(b"v2")


def test_measurement_is_sha256():
    data = b"some manifest content\n"
    assert compute_measurement(data) == hashlib.sha256(data).digest()


def test_measured_code_covers_every_module():
    # a source digest moves with every change, so the test checks what is
    # hashed rather than pinning the digest
    code = enclave_code()
    package = Path(confine.__file__).parent
    names = ["__init__"] + [m.name for m in pkgutil.iter_modules(confine.__path__)]
    for name in names:
        source = (package / f"{name}.py").read_bytes()
        assert b"%s.py %d\n%s" % (name.encode(), len(source), source) in code, name
    assert default_measurement() == compute_measurement(code)


def test_nonce_length_and_uniqueness():
    nonces = {new_nonce() for _ in range(64)}
    assert len(nonces) == 64
    assert all(len(n) == NONCE_BYTES == 16 for n in nonces)


def test_identity_measures_the_package_code(identity):
    assert identity.measurement == default_measurement() == compute_measurement(enclave_code())


def test_honest_report_is_trusted(identity):
    nonce = new_nonce()
    report = make_report(identity, nonce)
    registry = ReferenceRegistry.of(identity.measurement)
    assert verify_report(report, nonce, registry) is None


def test_two_nonces_two_signatures(identity):
    r1 = make_report(identity, new_nonce())
    r2 = make_report(identity, new_nonce())
    assert r1.sig != r2.sig


def test_make_report_rejects_bad_nonce_length(identity):
    with pytest.raises(ValueError):
        make_report(identity, b"short")


def test_unknown_measurement_rejected(identity):
    nonce = new_nonce()
    report = make_report(identity, nonce)
    registry = ReferenceRegistry.of(compute_measurement(b"someone else"))
    assert verify_report(report, nonce, registry) == "unknown_measurement"


def test_stale_nonce_rejected(identity):
    registry = ReferenceRegistry.of(identity.measurement)
    old = make_report(identity, new_nonce())
    fresh_challenge = new_nonce()
    assert verify_report(old, fresh_challenge, registry) == "stale_nonce"


def test_signature_checked_before_nonce(identity):
    # tampered report replayed against a different nonce must surface the
    # signature failure, not the nonce mismatch
    nonce = new_nonce()
    report = make_report(identity, nonce)
    forged = AttestationReport(
        measurement=report.measurement,
        nonce=new_nonce(),
        enc_pub=report.enc_pub,
        att_pub=report.att_pub,
        sig=report.sig,
    )
    assert verify_report(forged, forged.nonce, ReferenceRegistry.of(identity.measurement)) == "bad_signature"


def _flip_bit(data: bytes, bit_index: int) -> bytes:
    out = bytearray(data)
    out[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(out)


def test_bit_flip_fuzz_always_rejected(identity):
    rng = random.Random(1234)
    registry = ReferenceRegistry.of(identity.measurement)
    fields = ("measurement", "nonce", "enc_pub", "att_pub", "sig")
    trials = 0
    for _ in range(40):
        nonce = new_nonce()
        report = make_report(identity, nonce)
        for field in fields:
            for _ in range(6):
                original = getattr(report, field)
                mutated = _flip_bit(original, rng.randrange(len(original) * 8))
                tampered = AttestationReport(
                    **{
                        f: (mutated if f == field else getattr(report, f))
                        for f in fields
                    }
                )
                assert verify_report(tampered, nonce, registry) is not None, f"accepted tampered {field}"
                trials += 1
    assert trials >= 1000


def test_report_json_round_trip(identity):
    report = make_report(identity, new_nonce())
    raw = json.loads(json.dumps(report.to_dict()))
    again = AttestationReport.from_dict(raw)
    assert again == report
    # base64url, unpadded
    for value in report.to_dict().values():
        assert "=" not in value and "+" not in value and "/" not in value


def test_report_from_dict_rejects_missing_field(identity):
    raw = make_report(identity, new_nonce()).to_dict()
    del raw["sig"]
    with pytest.raises(ValueError):
        AttestationReport.from_dict(raw)


def test_registry_round_trip(tmp_path, identity):
    registry = ReferenceRegistry.of(identity.measurement, compute_measurement(b"x"))
    path = tmp_path / "reg.json"
    registry.write(path)
    again = ReferenceRegistry.load(path)
    assert again.measurements == registry.measurements


def test_registry_from_json_refuses_deep_nesting():
    with pytest.raises(ValueError, match="registry"):
        ReferenceRegistry.from_json("[" * 100_000)


def test_registry_rejects_non_measurement_sizes():
    with pytest.raises(ValueError):
        ReferenceRegistry.of(b"short")


def test_verdict_is_value_never_exception(identity):
    bogus = AttestationReport(
        measurement=b"\x00" * 32,
        nonce=b"\x00" * 16,
        enc_pub=b"not a key",
        att_pub=b"also not a key",
        sig=b"junk",
    )
    assert verify_report(bogus, b"\x00" * 16, ReferenceRegistry.of(identity.measurement)) == "bad_signature"


def test_non_ed25519_attestation_key_is_bad_signature(identity):
    nonce = new_nonce()
    report = make_report(identity, nonce)
    ec_pub = ec.generate_private_key(ec.SECP256R1()).public_key().public_bytes(
        serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
    )
    forged = AttestationReport(
        measurement=report.measurement,
        nonce=nonce,
        enc_pub=report.enc_pub,
        att_pub=ec_pub,
        sig=report.sig,
    )
    assert verify_report(forged, nonce, ReferenceRegistry.of(identity.measurement)) == "bad_signature"


def test_encryption_key_as_attestation_key_is_bad_signature(identity):
    # both public keys are raw 32 bytes, so the report's X25519 key parses as
    # an Ed25519 key too; the signature must still fail under it
    nonce = new_nonce()
    report = make_report(identity, nonce)
    assert len(report.att_pub) == len(report.enc_pub) == 32
    confused = AttestationReport(
        measurement=report.measurement,
        nonce=nonce,
        enc_pub=report.enc_pub,
        att_pub=report.enc_pub,
        sig=report.sig,
    )
    assert verify_report(confused, nonce, ReferenceRegistry.of(identity.measurement)) == "bad_signature"
