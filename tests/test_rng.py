"""Random-access streams, checked against numpy and a Python-integer emulation."""

import subprocess
import sys

import numpy as np
import pytest

from emulation import MASK128, MULTIPLIER, counter_uniforms, doubles, jump, philox_int, stream_start
from nonclassical_mc import rng
from nonclassical_mc.rng import philox4x64_block, uniforms_at

MASK64 = 2**64 - 1


class TestPhiloxBlock:
    @pytest.mark.parametrize("key", [(0, 0), (1, 0), (12345, 678910),
                                     (2**64 - 1, 2**63), (0xDEADBEEF, 0xC0FFEE)])
    def test_matches_numpy_philox(self, key):
        # numpy advances the counter before filling its first buffer, so its
        # block k equals our block with counter k + 1
        raw = np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(12)
        for block in range(3):
            lanes = philox4x64_block(np.uint64(block + 1), key[0], key[1])
            assert [int(lane) for lane in lanes] == list(raw[4 * block:4 * block + 4])

    def test_counter_placement_matches_numpy(self):
        key = np.array([7, 9], dtype=np.uint64)
        bg = np.random.Philox(key=key, counter=np.array([41, 0, 0, 0], dtype=np.uint64))
        raw = bg.random_raw(4)
        lanes = philox4x64_block(np.uint64(42), 7, 9)
        assert [int(lane) for lane in lanes] == list(raw)

    @pytest.mark.parametrize("words", [(41, 0, 0, 0), (MASK64, 5, 0, 0), (MASK64,) * 4])
    def test_python_integers_match_numpy(self, words):
        # numpy carries its counter's increment through all four words, and
        # wraps the last block to block 0: so does the Python-integer Philox
        key = (12345, 678910)
        bg = np.random.Philox(key=np.array(key, dtype=np.uint64),
                              counter=np.array(words, dtype=np.uint64))
        counter = (sum(word << 64 * i for i, word in enumerate(words)) + 1) % 2**256
        assert philox_int(counter, *key) == bg.random_raw(4).tolist()

    def test_vectorized_counters(self):
        counters = np.arange(1, 9, dtype=np.uint64)
        lanes = philox4x64_block(counters, 3, 4)
        for i, ctr in enumerate(counters):
            single = philox4x64_block(ctr, 3, 4)
            assert all(int(lane[i]) == int(s) for lane, s in zip(lanes, single))


def expected_runs(seed, steps, firsts, counts):
    """uniforms_at's result, counter by counter from the emulation."""
    flat = [u for step, first, n in zip(steps, firsts, counts)
            for u in counter_uniforms(seed, step, first, n)]
    return np.array(flat).reshape(-1, 3).T


def numpy_stream(state, inc):
    """numpy's PCG64DXSM at (state, inc), and its Generator."""
    bits = np.random.PCG64DXSM()
    full = bits.state
    full["state"] = {"state": state, "inc": inc}
    bits.state = full
    return bits, np.random.Generator(bits)


class TestEmulation:
    @pytest.mark.parametrize("state, inc", [(0, 1), (MASK128, MASK128),
                                            (0x0123456789ABCDEF_FEDCBA9876543210, 0xDEADBEEF)])
    def test_generator_and_jump_match_numpy(self, state, inc):
        # the emulated output is numpy's PCG64DXSM, and its jump numpy's
        # advance, also for jumps past 2**64 and past half the period
        bits, gen = numpy_stream(state, inc)
        assert gen.random(7).tolist() == doubles(state, inc, 7)
        for n in (1, 5, 2**64 + 3, 2**127 + 11):
            bits, gen = numpy_stream(state, inc)
            bits.advance(n)
            assert gen.random(3).tolist() == doubles(jump(state, inc, n), inc, 3)

    def test_jump_is_repeated_steps(self):
        state, inc = 0xFEEDFACE_CAFEBEEF_0BADF00D_DEADC0DE, 0x9E3779B97F4A7C15
        stepped = state
        for n in range(40):
            assert jump(state, inc, n) == stepped
            stepped = (stepped * MULTIPLIER + inc) & MASK128
        assert jump(state, inc, 2**128) == state  # the full period

    @pytest.mark.parametrize("seed, step", [(0, 0), (1, 0), (0, 1), (12345, 678910),
                                            (MASK64, 2**63), (0xDEADBEEF, 0xC0FFEE)])
    def test_start_is_philox_block_zero(self, seed, step):
        # the start's words are Philox block (seed, step; 0), low word first,
        # inc forced odd: from philox4x64_block, from Python integers, and
        # from the C Philox the reader derives it with
        w = philox_int(0, seed, step)
        assert [int(word) for word in philox4x64_block(0, seed, step)] == w
        assert stream_start(seed, step) == (w[0] | w[1] << 64, w[2] | w[3] << 64 | 1)
        uniforms_at(seed, [step], [0], [1])  # builds the reader
        assert rng._start(seed, step) == stream_start(seed, step)


class TestUniformsAt:
    def test_range_and_dtype(self):
        u = uniforms_at(1, [0], [0], [1000])
        assert u.dtype == np.float64
        assert u.shape == (3, 1000)
        assert u.flags.c_contiguous  # each row unit-stride
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_pure_function_of_coordinates(self):
        a = uniforms_at(9, [3, 3], [3, 50], [2, 3])
        b = uniforms_at(9, [3, 3], [3, 50], [2, 3])
        np.testing.assert_array_equal(a, b)

    def test_runs_are_laid_end_to_end(self):
        # splitting a run, or adding empty runs, changes no double
        whole = uniforms_at(9, [3], [10], [7])
        split = uniforms_at(9, [3, 3, 3], [10, 5, 12], [2, 0, 5])
        np.testing.assert_array_equal(whole, split)
        assert uniforms_at(9, [3, 3], [10, 20], [0, 0]).shape == (3, 0)

    @pytest.mark.parametrize("step, firsts, counts", [([0], [0, 5], [2, 3]),
                                                      ([0, 1], [0], [2, 3]),
                                                      ([0, 1], [0, 5], [2])])
    def test_runs_of_unequal_length_raise(self, step, firsts, counts):
        # zip would stop at the shortest, leaving columns of the output unwritten
        with pytest.raises(ValueError, match="differ in length"):
            uniforms_at(1, step, firsts, counts)

    def test_negative_count_raises(self):
        # it would silently shorten the output instead
        with pytest.raises(ValueError, match="non-negative"):
            uniforms_at(1, [0, 1], [0, 5], [3, -1])

    def test_streams_differ(self):
        # another step key or another seed gives other doubles at the same counters
        one = uniforms_at(1, [0], [0], [512])
        two = uniforms_at(1, [1], [0], [512])
        other_seed = uniforms_at(2, [0], [0], [512])
        assert not np.array_equal(one, two)
        assert not np.array_equal(one, other_seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("step", [0, 1, 2**40])
    @pytest.mark.parametrize("first, count", [
        (0, 9),                   # from the start state
        (2**64 - 9, 9),           # a jump past 2**64
        (123_456_789, 17),        # mid-range
        ((2**128 - 1) // 3 - 4, 9),  # the last doubles wrap the period
    ])
    def test_c_path_matches_emulation(self, seed, step, first, count):
        np.testing.assert_array_equal(uniforms_at(seed, [step], [first], [count]),
                                      expected_runs(seed, [step], [first], [count]))

    def test_counters_are_the_stream_doubles(self):
        # runs laid end to end, each read from its own counters, in any order:
        # row k of counter h is double 3h + k of numpy's generator at the start
        firsts, counts = [41, 0, 2**40, 40, 3], [5, 3, 4, 1, 2]
        got = uniforms_at(77, [5] * len(firsts), firsts, counts)
        np.testing.assert_array_equal(got, expected_runs(77, [5] * len(firsts), firsts, counts))
        columns = []
        for first, n in zip(firsts, counts):
            bits, gen = numpy_stream(*stream_start(77, 5))
            bits.advance(3 * first)
            columns.append(gen.random((n, 3)).T)
        np.testing.assert_array_equal(got, np.concatenate(columns, axis=1))

    @pytest.mark.parametrize("steps", [
        [3, 3, 5, 3],                     # a key recurs after another one
        [-1, 2**63, 2**64 - 1, 2**63],    # keys wrap modulo 2**64
    ])
    def test_per_run_keys(self, steps):
        # run i reads key (seed, steps[i]); an empty run reads nothing, and
        # leaves the key of its neighbours alone
        firsts, counts = [10, 40, 0, 17], [3, 2, 4, 5]
        expected = expected_runs(2**64 - 3, [s % 2**64 for s in steps], firsts, counts)
        np.testing.assert_array_equal(uniforms_at(-3, steps, firsts, counts), expected)
        padded = uniforms_at(-3, [7] + steps[:2] + [8] + steps[2:] + [9],
                             [5] + firsts[:2] + [99] + firsts[2:] + [0],
                             [0] + counts[:2] + [0] + counts[2:] + [0])
        np.testing.assert_array_equal(padded, expected)

    def test_shared_key_advance_matches_fresh_write(self, monkeypatch):
        # a run under the key of the last run read, at or after its end, only
        # advances the reader over the gap; any other run writes its key's
        # start. Either way each run reads what a call of its own reads
        runs = [(5, 0, 3), (5, 3, 2),   # continues the run before: nothing
                (5, 10, 4),             # a gap: advance by 3 x 5
                (5, 12, 1),             # back inside the last run: write, advance 3 x 12
                (5, 30, 0),             # empty: nothing
                (6, 0, 2),              # another key: write
                (5, 20, 2),             # the key returns: write, advance 3 x 20
                (6, 9, 0), (5, 22, 3),  # continues across an empty run: nothing
                (2**64 + 5, 30, 1)]     # the same key modulo 2**64: advance 3 x 5
        steps, firsts, counts = zip(*runs)

        class Spy:
            def __init__(self, bits):
                self.bits, self.writes, self.advances = bits, 0, []

            @property
            def state(self):
                return self.bits.state

            @state.setter
            def state(self, value):
                self.writes += 1
                self.bits.state = value

            def advance(self, delta):
                self.advances.append(delta)
                self.bits.advance(delta)

        uniforms_at(0, [0], [0], [1])  # builds the reader
        spy = Spy(rng._reader[0])
        monkeypatch.setattr(rng, "_reader", (spy, *rng._reader[1:]))
        got = uniforms_at(11, steps, firsts, counts)
        assert (spy.writes, spy.advances) == (4, [15, 36, 60, 15])
        alone = [uniforms_at(11, [step], [first], [n]) for step, first, n in runs]
        np.testing.assert_array_equal(got, np.concatenate(alone, axis=1))
        np.testing.assert_array_equal(got, expected_runs(11, [s % 2**64 for s in steps],
                                                         firsts, counts))

    def test_starts_are_cached_per_key(self):
        # one start per key, whatever the runs and calls that read it
        rng._start.cache_clear()
        for _ in range(2):
            uniforms_at(3, [5, 6, 5, 5], [0, 0, 0, 10], [2, 2, 2, 2])
        assert rng._start.cache_info().misses == 2

    def test_reader_carries_no_state_between_calls(self):
        # the one reader per process is rewritten by every call: calls with
        # other seeds, keys and counters in between change no double, in
        # either order
        calls = [(5, [3], [0], [7]),
                 (2**64 - 1, [2**40, 1], [2**64 - 2, 9], [5, 3]),  # jumps past 2**64
                 (-3, [0, 7], [123_456_789, 0], [4, 2]),
                 (77, [2**63], [3 * 2**64 + 5], [3])]
        expected = [expected_runs(*call) for call in calls]
        for order in (calls, calls[::-1], calls + calls):
            for call in order:
                np.testing.assert_array_equal(uniforms_at(*call), expected[calls.index(call)])

    def test_reader_is_built_on_first_call(self, subprocess_env):
        # importing the package builds no reader and loads no numpy.random;
        # the first call builds it, and later calls reuse it
        script = ("import sys, nonclassical_mc\n"
                  "from nonclassical_mc import rng\n"
                  "assert rng._reader is None and 'numpy.random' not in sys.modules\n"
                  "rng.uniforms_at(1, [0], [0], [3])\n"
                  "reader = rng._reader\n"
                  "rng.uniforms_at(2, [5], [9], [4])\n"
                  "assert reader is not None and rng._reader is reader\n")
        subprocess.run([sys.executable, "-c", script], env=subprocess_env(), timeout=120,
                       check=True)

    def test_statistical_sanity(self):
        # row 0 of 64 keys x 4096 counters: mean 1/2, var 1/12, lag-1
        # correlation ~ 0
        u = np.stack([uniforms_at(123, [step], [0], [4096])[0] for step in range(64)])
        n = u.size
        assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12.0 * n)
        assert abs(u.var() - 1.0 / 12.0) < 5e-4
        flat = u.ravel()
        corr = np.corrcoef(flat[:-1], flat[1:])[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(n)
        # the same counters under neighbouring keys (two lockstep steps)
        cross = np.corrcoef(u[0], u[1])[0, 1]
        assert abs(cross) < 4.0 / np.sqrt(4096)

    def test_lanes_uncorrelated(self):
        # the three doubles of a counter feed one collision, so each pair of
        # rows must be uncorrelated over many (key, counter) pairs; each row
        # is uniform on its own
        lanes = np.concatenate([uniforms_at(321, [step], [0], [1024]) for step in range(256)],
                               axis=1)
        n = lanes.shape[1]
        for lane in lanes:
            assert abs(lane.mean() - 0.5) < 5.0 / np.sqrt(12.0 * n)
        corr = np.corrcoef(lanes)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(corr[i, j]) < 5.0 / np.sqrt(n), (i, j, corr[i, j])

    @pytest.mark.parametrize("seed", [0, 77, 2**63])
    def test_adjacent_keys_and_seeds_uncorrelated(self, seed):
        # keys j and j + 1 of a seed, and key j of seeds s and s + 1, give
        # uncorrelated doubles at the same counters (64 keys x 1024 counters
        # x 3 doubles a side), and so do their top and bottom bits
        keys = range(64)
        base = np.stack([uniforms_at(seed, [j], [0], [1024]) for j in keys])
        next_key = np.stack([uniforms_at(seed, [j + 1], [0], [1024]) for j in keys])
        next_seed = np.stack([uniforms_at(seed + 1, [j], [0], [1024]) for j in keys])
        n = base.size
        for other in (next_key, next_seed):
            for a, b in ((base, other), ((base * 2.0**20) % 1.0, (other * 2.0**20) % 1.0)):
                corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
                assert abs(corr) < 5.0 / np.sqrt(n), corr


class TestRandomStream:
    """Key (seed, stream_id) read as a sequence through uniforms_at, as the
    empirical checks read their variates."""

    def test_replay_is_identical(self, stream_uniforms):
        # one variate at a time or all at once: the same sequence
        drawn = np.concatenate([stream_uniforms(2024, 17, i, 1) for i in range(300)])
        np.testing.assert_array_equal(drawn, stream_uniforms(2024, 17, 0, 300))

    def test_sequence_equals_random_access(self, stream_uniforms):
        # variate i is double i % 3 of counter i // 3 of key (seed, stream_id)
        drawn = np.concatenate([stream_uniforms(5, 11, skip, n)
                                for skip, n in ((0, 1), (1, 2), (3, 597))])
        direct = expected_runs(5, [11], [0], [200]).T.ravel()
        np.testing.assert_array_equal(drawn, direct)

    def test_uniform_block_continues_sequence(self, stream_uniforms):
        head = stream_uniforms(5, 11, 0, 4)
        block = stream_uniforms(5, 11, 4, 10)
        assert stream_uniforms(5, 11, 14, 0).size == 0
        direct = expected_runs(5, [11], [0], [5]).T.ravel()[:14]
        np.testing.assert_array_equal(np.concatenate([head, block]), direct)

    def test_sequence_is_numpys_stream(self, stream_uniforms):
        # the sequence is numpy's PCG64DXSM from the key's start, in order
        bits, gen = numpy_stream(*stream_start(5, 11))
        np.testing.assert_array_equal(stream_uniforms(5, 11, 0, 8), gen.random(8))
        bits.advance(4)
        np.testing.assert_array_equal(stream_uniforms(5, 11, 12, 8), gen.random(8))

    def test_distinct_streams_are_uncorrelated(self, stream_uniforms):
        a = stream_uniforms(77, 0, 0, 8192)
        b = stream_uniforms(77, 1, 0, 8192)
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / np.sqrt(8192)

    def test_negative_ids_wrap_to_uint64(self, stream_uniforms):
        # numpy refuses a negative uint64, so uniforms_at masks the key words first
        direct = doubles(*stream_start(2**64 - 1, 2**64 - 2), 4)
        np.testing.assert_array_equal(stream_uniforms(-1, -2, 0, 4), direct)
