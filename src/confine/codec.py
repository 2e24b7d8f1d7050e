"""Base64url helpers for binary fields inside JSON message bodies."""

from __future__ import annotations

import base64
import re

__all__ = ["b64u_encode", "b64u_decode"]

_B64U_CHARS = re.compile(r"[A-Za-z0-9_-]*")


def b64u_encode(data: bytes) -> str:
    """Encode bytes as unpadded base64url text."""
    return base64.urlsafe_b64encode(data).decode("ascii").rstrip("=")


def b64u_decode(text: str) -> bytes:
    """Decode unpadded (or padded) base64url text; rejects foreign characters."""
    if not isinstance(text, str):
        raise ValueError("base64url field must be a string")
    stripped = text.rstrip("=")
    if not _B64U_CHARS.fullmatch(stripped):
        raise ValueError("bad base64url field: invalid characters")
    pad = -len(stripped) % 4
    try:
        return base64.urlsafe_b64decode(stripped + "=" * pad)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad base64url field: {exc}") from None
