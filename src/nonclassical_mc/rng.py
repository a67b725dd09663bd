"""Counter-based random streams for reproducible parallel sampling.

Each history owns a stream identified by (seed, stream_id). Block j of a
stream is the Philox4x64-10 block keyed by (seed, stream_id) with counter
j; its four 64-bit lanes give four uniform variates, so each block is a
pure function of (seed, stream_id, j). Because blocks are random-access,
any subset of histories can be advanced in vectorized steps without
touching the others, and results are independent of how work is split
across workers. The transport engine spends block j on collision j of a
history (see ``engine``).

The block function is the same Philox4x64-10 used by ``numpy.random.Philox``
(verified bit-for-bit in the test suite). Read as a sequence, variate i of
a stream is lane i % 4 of block i // 4, which is numpy's lane order; only
the counter placement differs (numpy starts at counter 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RandomStream", "uniforms_at", "philox4x64_block"]

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def _mulhilo(a, m):
    """(high, low) 64-bit words of the 128-bit product a * m."""
    lo = a * m
    ah = a >> _SHIFT32
    al = a & _MASK32
    mh = m >> _SHIFT32
    ml = m & _MASK32
    ahml = ah * ml
    almh = al * mh
    carry = (((al * ml) >> _SHIFT32) + (ahml & _MASK32) + (almh & _MASK32)) >> _SHIFT32
    hi = ah * mh + (ahml >> _SHIFT32) + (almh >> _SHIFT32) + carry
    return hi, lo


def philox4x64_block(counter, key0, key1):
    """Run 10 Philox4x64 rounds on counter blocks (counter, 0, 0, 0).

    counter, key0, key1 broadcast together; returns the four output lanes
    as uint64 arrays. Matches numpy's Philox block function.
    """
    with np.errstate(over="ignore"):
        c0 = np.asarray(counter, dtype=np.uint64)
        shape = np.broadcast_shapes(c0.shape, np.shape(key0), np.shape(key1))
        c0 = np.broadcast_to(c0, shape).copy()
        c1 = np.zeros(shape, dtype=np.uint64)
        c2 = np.zeros(shape, dtype=np.uint64)
        c3 = np.zeros(shape, dtype=np.uint64)
        k0 = np.broadcast_to(np.asarray(key0, dtype=np.uint64), shape).copy()
        k1 = np.broadcast_to(np.asarray(key1, dtype=np.uint64), shape).copy()
        for _ in range(10):
            hi0, lo0 = _mulhilo(c0, _M0)
            hi1, lo1 = _mulhilo(c2, _M1)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + _W0
            k1 = k1 + _W1
        return c0, c1, c2, c3


def uniforms_at(seed: int, stream_ids, counters):
    """All four lanes of the Philox blocks at (stream, counter) positions.

    stream_ids and counters broadcast to a shape S; the output is float64
    of shape (4, *S), row k holding lane k. Each lane uses the same
    precision scheme numpy uses (top 53 bits of a 64-bit word).
    """
    key1 = np.asarray(stream_ids, dtype=np.uint64)
    ctr = np.asarray(counters, dtype=np.uint64)
    lanes = np.stack(philox4x64_block(ctr, np.uint64(seed & 0xFFFFFFFFFFFFFFFF), key1))
    return (lanes >> np.uint64(11)) * _INV53


@dataclass
class RandomStream:
    """Deterministic variate stream, read as a sequence.

    The same (seed, stream_id) always replays the identical sequence, on any
    machine and regardless of what other streams are doing. Distinct
    stream_ids give statistically independent Philox streams. Variate i is
    lane i % 4 of block i // 4.
    """

    seed: int
    stream_id: int
    _cursor: int = field(default=0, repr=False)

    def __post_init__(self):
        self.seed = int(self.seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = int(self.stream_id) & 0xFFFFFFFFFFFFFFFF

    def uniform(self, n: int) -> np.ndarray:
        """Draw the next n variates as an array (consumes n draws)."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        first, skip = divmod(self._cursor, 4)
        self._cursor += n
        blocks = np.arange(first, first - (-(skip + n) // 4), dtype=np.uint64)
        return uniforms_at(self.seed, self.stream_id, blocks).T.ravel()[skip:skip + n]
