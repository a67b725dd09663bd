"""Counter-based random numbers for reproducible parallel sampling.

A Philox4x64-10 block is a pure function of a two-word key and a counter;
its four 64-bit lanes give four uniform variates (the top 53 bits of each
word, numpy's double conversion). Blocks are random-access, so a result
never depends on how work is split across workers.

``uniforms_at`` reads runs of consecutive counters, each under its own key
(seed, step), through numpy's C Philox: one reader per process, built on
the first call, serves every run, its state written to each run's key and
first counter before the run is drawn, so no call leaves anything to the
next. The reader is shared, so concurrent threads must not call
``uniforms_at``; worker processes each build their own. The transport
engine gives each batch in a lockstep step one run of counters, keyed by
the batch's collision index (see ``engine``).

``philox4x64_block`` is a numpy emulation of the same block function, with
the counter (counter, 0, 0, 0); the test suite checks the C path against it
bit for bit. numpy increments its four-word counter before each block, so
a generator whose state holds counter k - 1 (all four words set for k = 0,
which wraps to 0) and an empty buffer yields block k next.
"""

from __future__ import annotations

import numpy as np

__all__ = ["uniforms_at", "philox4x64_block"]

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_COUNTER_WRAP = 1 << 256  # numpy's counter is four 64-bit words


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


_reader = None  # (Philox, its Generator's random, their state dict)


def uniforms_at(seed: int, step, firsts, counts) -> np.ndarray:
    """All four lanes of runs of consecutive Philox blocks.

    Run i covers the counters firsts[i] .. firsts[i] + counts[i] - 1 of the
    key (seed, step[i]); the runs are laid end to end. Key words wrap modulo
    2**64. The output is C-contiguous float64 of shape (4, sum(counts)),
    row k holding lane k, column n the n-th block read. A counter past
    2**64 - 1 carries into numpy's second counter word.
    """
    global _reader
    if _reader is None:
        bits = np.random.Philox(key=0)
        state = {"bit_generator": "Philox", "state": {"key": [0, 0], "counter": [0] * 4},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        _reader = bits, np.random.Generator(bits).random, state
    bits, draw, state = _reader
    key, counter = state["state"]["key"], state["state"]["counter"]
    key[0] = seed & _MASK64
    counts = [int(n) for n in counts]
    out = np.empty((sum(counts), 4))
    end = 0
    for first, run_step, n in zip(firsts, step, counts):
        if n:
            at = (int(first) - 1) % _COUNTER_WRAP  # an empty buffer reads at + 1 next
            key[1] = int(run_step) & _MASK64
            counter[:] = [(at >> shift) & _MASK64 for shift in (0, 64, 128, 192)]
            bits.state = state
            draw(out=out[end:end + n])
            end += n
    return out.T.copy()  # unit-stride lanes for the engine's elementwise work
