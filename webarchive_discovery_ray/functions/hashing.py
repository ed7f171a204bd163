"""Hashing kernels: record IDs, payload digests, seeded deterministic gates.

References:
* record id = ``waybackDate + "/" + base64(md5(url))`` —
  ``WARCIndexer.java:519-546``;
* payload SHA-1 as ``sha1:<base32>`` — WARC de-facto standard digest form,
  ``Normalisation.java:309-331`` / ``InputStreamUtils.java:54-76``;
* seeded sampling gates replace the reference's ``Math.random()``
  (``ImageAnalyser.java:105-110``) for reproducibility (SURVEY.md §4.2).
"""

from __future__ import annotations

import base64
import hashlib

__all__ = [
    "md5_b64",
    "record_id",
    "sha1_b32",
    "stable_hash64",
    "seeded_gate",
]


def md5_b64(value: str) -> str:
    """Standard base64 (with padding) of the MD5 digest of the UTF-8 value."""
    return base64.b64encode(hashlib.md5(value.encode("utf-8")).digest()).decode("ascii")


def record_id(wayback_date: str, url: str) -> str:
    """``{waybackDate}/{base64(md5(url))}`` — WARCIndexer.java:543-546."""
    return f"{wayback_date}/{md5_b64(url)}"


def sha1_b32(payload: bytes) -> str:
    """``sha1:<base32>`` digest string (WARC-Payload-Digest convention)."""
    return "sha1:" + base64.b32encode(hashlib.sha1(payload).digest()).decode("ascii")


def stable_hash64(value: str, seed: int = 0) -> int:
    """Deterministic 64-bit hash (sha1-based; never Python ``hash()``, which
    is salted per process — unusable across Ray workers)."""
    h = hashlib.sha1(f"{seed}:{value}".encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big")


def seeded_gate(value: str, one_in_n: int, seed: int = 0) -> bool:
    """Deterministic 1-in-N gate keyed on the value; replaces Math.random()."""
    if one_in_n <= 1:
        return True
    return stable_hash64(value, seed) % one_in_n == 0
