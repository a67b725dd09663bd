"""Python-integer emulation of rng's streams, the tests' oracle for the C path.

Key (seed, step) is a PCG64DXSM stream started from Philox block
(seed, step; 0), and counter h reads its doubles 3h, 3h + 1 and 3h + 2.
"""

import functools

from nonclassical_mc.rng import philox4x64_block

MASK64 = 2**64 - 1
MASK128 = 2**128 - 1
MULTIPLIER = 0xDA942042E4DD58B5  # numpy PCG64DXSM's LCG step and DXSM output


@functools.cache
def stream_start(seed, step):
    """(state, inc) of key (seed, step): the block's words as two 128-bit
    integers, low word first, inc forced odd."""
    w0, w1, w2, w3 = (int(word) for word in philox4x64_block(0, seed & MASK64, step & MASK64))
    return w0 | w1 << 64, w2 | w3 << 64 | 1


def jump(state, inc, n):
    """The LCG state n steps on, a^n state + inc (a^n - 1) / (a - 1), the
    division exact when a^n is taken modulo (a - 1) 2**128."""
    a = MULTIPLIER
    a_n = pow(a, n, (a - 1) << 128)
    return (a_n * state + (a_n - 1) // (a - 1) * inc) & MASK128


def doubles(state, inc, n):
    """The next n doubles of the generator at (state, inc)."""
    out = []
    for _ in range(n):
        hi, lo = state >> 64, state & MASK64 | 1
        hi ^= hi >> 32
        hi = hi * MULTIPLIER & MASK64
        hi ^= hi >> 48
        out.append(((hi * lo & MASK64) >> 11) * 2.0**-53)
        state = (state * MULTIPLIER + inc) & MASK128
    return out


def counter_uniforms(seed, step, counter, count=1):
    """The three doubles of each of the counters counter .. counter + count - 1
    of key (seed, step), as one flat list."""
    state, inc = stream_start(seed, step)
    return doubles(jump(state, inc, 3 * counter), inc, 3 * count)
