"""Random-access random numbers for reproducible parallel sampling.

Each key (seed, step) owns a PCG64DXSM stream: numpy's 128-bit LCG with
the cheap multiplier and its DXSM output function. The stream starts at
(state, inc) = (w0 + 2**64 w1, w2 + 2**64 w3) with inc forced odd, the
four 64-bit words of the Philox4x64-10 block (seed, step; counter 0).
These are the "random starting points" of L'Ecuyer et al., Math. Comput.
Simul. 135, 3 (2017): streams of a 2**128-period generator started at
hashed points overlap with negligible probability. Counter h of a key reads
the stream's doubles 3h, 3h + 1 and 3h + 2 (the top 53 bits of each output
word, numpy's double conversion), reached by the LCG's jump-ahead, so a
variate never depends on how work is split across workers.

``uniforms_at`` reads runs of consecutive counters, each under its own key,
through numpy's C PCG64DXSM: one reader per process, built by the first
call of ``reader``, serves every run. A run under the key of the run before
it that starts at or after that run's end only advances the reader over the
gap; any other run writes its key's start state (cached per key) and jumps
to its first counter, so no call leaves anything to the next. The reader is
shared, so concurrent threads must not call ``uniforms_at``; forked worker
processes each use their copy of the parent's. The transport engine gives
each batch in a lockstep step one run of counters, keyed by the batch's
collision index (see ``engine``).

The start words come from numpy's C Philox. ``philox4x64_block`` is a
numpy emulation of the same block function, with the counter
(counter, 0, 0, 0); the test suite checks the start derivation against it.
numpy increments its four-word counter before each block, so a Philox
whose counter words are all set (block -1, which wraps) and whose buffer is
empty yields block 0 next.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["uniforms_at", "reader", "philox4x64_block"]

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_PERIOD = 1 << 128  # PCG64DXSM's period; numpy's advance takes a jump below it
_STARTS = 4096  # start states cached per process; a key past them is derived again


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


_reader = None  # (PCG64DXSM, its Generator's random, its state dict, Philox, its state dict)


@functools.lru_cache(maxsize=_STARTS)
def _start(seed: int, step: int) -> tuple[int, int]:
    """(state, inc) of key (seed, step)'s stream, both key words below 2**64:
    Philox block (seed, step; 0) read through the reader's Philox."""
    philox, state = reader()[3:]
    state["state"]["key"][:] = seed, step
    philox.state = state
    w0, w1, w2, w3 = philox.random_raw(4).tolist()
    return w0 | w1 << 64, w2 | w3 << 64 | 1


def reader() -> tuple:
    """The process's reader, built on the first call: the only place that
    loads numpy.random. The engine calls it before forking its workers, so
    they inherit the reader instead of each building its own."""
    global _reader
    if _reader is None:
        philox = np.random.Philox(key=0)
        pcg = np.random.PCG64DXSM(0)
        _reader = (pcg, np.random.Generator(pcg).random, pcg.state, philox,
                   {"bit_generator": "Philox", "state": {"key": [0, 0], "counter": [_MASK64] * 4},
                    "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0})
    return _reader


def uniforms_at(seed: int, step, firsts, counts) -> np.ndarray:
    """Three doubles per counter of runs of consecutive counters.

    Run i covers the counters firsts[i] .. firsts[i] + counts[i] - 1 of the
    key (seed, step[i]); the runs are laid end to end. Key words wrap modulo
    2**64, and a jump modulo the period 2**128. The output is C-contiguous
    float64 of shape (3, sum(counts)): column n holds the doubles 3h,
    3h + 1 and 3h + 2 of the n-th counter h read, in rows 0, 1 and 2.
    Raises ValueError when step, firsts and counts differ in length or a
    count is negative.
    """
    counts = [int(n) for n in counts]
    if not len(step) == len(firsts) == len(counts):
        raise ValueError(f"step, firsts and counts differ in length: "
                         f"{len(step)}, {len(firsts)}, {len(counts)}")
    if min(counts, default=0) < 0:
        raise ValueError(f"counts must be non-negative, got {min(counts)}")
    pcg, draw, state = reader()[:3]
    seed = int(seed) & _MASK64
    out = np.empty((sum(counts), 3))
    end = 0
    key = at = None  # the reader's key, and the counter it stands at
    for first, run_step, n in zip(firsts, step, counts):
        if n:
            first, run_step = int(first), int(run_step) & _MASK64
            if run_step != key or first < at:
                state["state"]["state"], state["state"]["inc"] = _start(seed, run_step)
                pcg.state = state
                key, at = run_step, 0
            if first > at:
                pcg.advance(3 * (first - at) % _PERIOD)
            draw(out=out[end:end + n])
            end += n
            at = first + n
    return out.T.copy()  # unit-stride rows for the engine's elementwise work
