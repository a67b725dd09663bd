"""Python-integer emulation of rng's streams, the tests' oracle for the C path.

Key (seed, step) is a PCG64DXSM stream started from Philox block
(seed, step; 0), and counter h reads its doubles 3h, 3h + 1 and 3h + 2.
Nothing here reads the package.
"""

import functools

MASK64 = 2**64 - 1
MASK128 = 2**128 - 1
MULTIPLIER = 0xDA942042E4DD58B5  # numpy PCG64DXSM's LCG step and DXSM output


def philox_int(counter, key0, key1):
    """Philox4x64-10 on a full four-word counter, in Python integers: the
    block's four words."""
    c = [(counter >> shift) & MASK64 for shift in (0, 64, 128, 192)]
    k0, k1 = key0 & MASK64, key1 & MASK64
    for _ in range(10):
        p0, p1 = 0xD2E7470EE14C6C93 * c[0], 0xCA5A826395121157 * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k0, p1 & MASK64, (p0 >> 64) ^ c[3] ^ k1, p0 & MASK64]
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & MASK64, (k1 + 0xBB67AE8584CAA73B) & MASK64
    return c


@functools.cache
def stream_start(seed, step):
    """(state, inc) of key (seed, step): the block's words as two 128-bit
    integers, low word first, inc forced odd."""
    w0, w1, w2, w3 = philox_int(0, seed, step)
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
