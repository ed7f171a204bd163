"""Hashing kernels: record IDs, payload digests, seeded deterministic gates.

References:
* record id = ``waybackDate + "/" + base64(md5(url))`` —
  ``WARCIndexer.java:519-546``;
* payload SHA-1 as ``sha1:<base32>`` — WARC de-facto standard digest form,
  ``Normalisation.java:309-331`` / ``InputStreamUtils.java:54-76``;
* seeded sampling gates replace the reference's ``Math.random()``
  (``ImageAnalyser.java:105-110``) for reproducibility (SURVEY.md §4.2);
* ``splitmix64`` and the Bloom kernels over uint64 keys serve the MinHash
  signatures, the Bloom-pruned joins and the seen set's spill runs.
"""

from __future__ import annotations

import base64
import hashlib

import numpy as np

__all__ = [
    "bloom_add",
    "bloom_contains",
    "splitmix64",
    "md5_b64",
    "record_id",
    "sha1_b32",
    "stable_hash64",
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


def splitmix64(z: np.ndarray) -> np.ndarray:
    """Finalizer of the splitmix64 generator over a uint64 array."""
    # uint64 wraparound intended
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


# Bloom filter over uint64 keys: a plain numpy uint8 bit array (so
# per-batch partial filters OR together), k = 4 splitmix64-derived hashes
_BLOOM_K = 4
_BLOOM_SEEDS = np.array(
    [
        int.from_bytes(hashlib.sha1(f"bloom-{j}".encode()).digest()[:8], "big")
        for j in range(_BLOOM_K)
    ],
    dtype=np.uint64,
)


def _bloom_positions(keys: np.ndarray, nbits: int) -> np.ndarray:
    """(len(keys), k) bit positions via splitmix64(key ^ seed_j)."""
    h = splitmix64(keys.astype(np.uint64)[:, None] ^ _BLOOM_SEEDS[None, :])
    return (h % np.uint64(nbits)).astype(np.int64)


def bloom_add(bits: np.ndarray, keys: np.ndarray) -> None:
    """Set the k bits of every key in the filter ``bits``."""
    pos = _bloom_positions(keys, len(bits) << 3)
    byte, bit = pos >> 3, pos & 7
    np.bitwise_or.at(bits, byte.ravel(), (1 << bit.ravel()).astype(np.uint8))


def bloom_contains(bits: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Vectorized membership: True iff ALL k bits are set (may false-
    positive, never false-negative)."""
    pos = _bloom_positions(keys, len(bits) << 3)
    byte, bit = pos >> 3, pos & 7
    return ((bits[byte] >> bit) & 1).all(axis=1)
