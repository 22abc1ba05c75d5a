"""Counter-based random streams.

Every stream is Philox4x64-10 (Salmon et al. 2011, "Parallel random
numbers: as easy as 1, 2, 3") under a 128-bit key derived by hashing a
root seed together with a tuple of string labels.  Distinct labels give
statistically independent streams, and a stream's output depends only on
(seed, labels) -- never on chunk order or call history.

`uniforms` is the cipher in plain numpy.  It gives, double for double, the
draws of numpy's `Generator(Philox(key=philox_key(seed, *labels))).random`,
without loading numpy's random package (mtrand, four more bit generators,
`secrets` and `hmac`: 2.2 MB of a run's peak memory).
"""

from __future__ import annotations

import hashlib

import numpy as np

MASK64 = 2**64 - 1
MASK32, SHIFT32 = np.uint64(2**32 - 1), np.uint64(32)
# Philox4x64 round multipliers, each as its (low half, high half, whole)
# in uint64, and the Weyl key increments
M0, M1 = ((np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32), np.uint64(m))
          for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
W0, W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def philox_key(seed: int, *labels: str) -> int:
    material = str(int(seed)).encode() + b"\x1f" + b"\x1f".join(
        label.encode() for label in labels)
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:16], "little")


def _mulhilo(m, a: np.ndarray):
    """(high, low) 64-bit words of the 128-bit product m * a, the high word
    built from 32-bit halves: the middle sum `cross` is at most 2**64 - 1,
    so no uint64 sum or product overflows."""
    m_lo, m_hi, m_whole = m
    a_lo, a_hi = a & MASK32, a >> SHIFT32
    hl = a_hi * m_lo
    cross = ((a_lo * m_lo) >> SHIFT32) + (hl & MASK32) + a_lo * m_hi
    return (hl >> SHIFT32) + (cross >> SHIFT32) + a_hi * m_hi, a * m_whole


def uniforms(seed: int, labels: tuple[str, ...], start: int, count: int) -> np.ndarray:
    """Doubles start .. start + count - 1 of the (seed, labels) stream, each
    in [0, 1).

    Block j of the stream is the counter (j + 1, 0, 0, 0) encrypted under
    the key, as numpy's Philox steps its counter before each block, and its
    four words are emitted in order; a word w gives the double
    (w >> 11) * 2**-53.  Any cut of the stream into (start, count) pieces
    therefore draws the same doubles as one draw of the whole.
    """
    first, stop = start // 4, -(-(start + count) // 4)
    key = philox_key(seed, *labels)
    k0, k1 = key & MASK64, key >> 64
    c0 = np.arange(first + 1, stop + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0, k1 = (k0 + W0) & MASK64, (k1 + W1) & MASK64
        hi0, lo0 = _mulhilo(M0, c0)
        hi1, lo1 = _mulhilo(M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    words = np.stack((c0, c1, c2, c3), axis=1).ravel()
    offset = start - 4 * first
    return (words[offset:offset + count] >> np.uint64(11)) * 2.0**-53
