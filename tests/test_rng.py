"""Counter-based stream construction, checked against numpy's Philox."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    def test_vectorized_counters(self):
        counters = np.arange(1, 9, dtype=np.uint64)
        lanes = philox4x64_block(counters, 3, 4)
        for i, ctr in enumerate(counters):
            single = philox4x64_block(ctr, 3, 4)
            assert all(int(lane[i]) == int(s) for lane, s in zip(lanes, single))


def emulated(counters, key0, key1):
    """Lanes of the emulated Philox blocks as uniforms, shape (4, *counters.shape)."""
    return (np.stack(philox4x64_block(counters, key0, key1)) >> np.uint64(11)) * 2.0**-53


def philox_int(counter, key0, key1):
    """Philox4x64-10 on a full four-word counter, in Python integers: the
    block's four words, for counters that carry past 2**64."""
    c = [(counter >> shift) & MASK64 for shift in (0, 64, 128, 192)]
    k0, k1 = key0 & MASK64, key1 & MASK64
    for _ in range(10):
        p0, p1 = 0xD2E7470EE14C6C93 * c[0], 0xCA5A826395121157 * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k0, p1 & MASK64, (p0 >> 64) ^ c[3] ^ k1, p0 & MASK64]
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & MASK64, (k1 + 0xBB67AE8584CAA73B) & MASK64
    return c


def expected_runs(seed, steps, firsts, counts):
    """uniforms_at's result, block by block from philox_int."""
    words = [philox_int(first + i, seed, step)
             for step, first, n in zip(steps, firsts, counts) for i in range(n)]
    return (np.array(words, dtype=np.uint64).reshape(-1, 4).T >> np.uint64(11)) * 2.0**-53


class TestUniformsAt:
    def test_range_and_dtype(self):
        u = uniforms_at(1, [0], [0], [1000])
        assert u.dtype == np.float64
        assert u.shape == (4, 1000)
        assert u.flags.c_contiguous  # each lane a unit-stride row
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_pure_function_of_coordinates(self):
        a = uniforms_at(9, [3, 3], [3, 50], [2, 3])
        b = uniforms_at(9, [3, 3], [3, 50], [2, 3])
        np.testing.assert_array_equal(a, b)

    def test_runs_are_laid_end_to_end(self):
        # splitting a run, or adding empty runs, changes no block
        whole = uniforms_at(9, [3], [10], [7])
        split = uniforms_at(9, [3, 3, 3], [10, 5, 12], [2, 0, 5])
        np.testing.assert_array_equal(whole, split)
        assert uniforms_at(9, [3, 3], [10, 20], [0, 0]).shape == (4, 0)

    def test_streams_differ(self):
        # another step key or another seed gives other blocks at the same counters
        one = uniforms_at(1, [0], [0], [512])
        two = uniforms_at(1, [1], [0], [512])
        other_seed = uniforms_at(2, [0], [0], [512])
        assert not np.array_equal(one, two)
        assert not np.array_equal(one, other_seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("step", [0, 1, 2**40])
    @pytest.mark.parametrize("first, count", [
        (0, 9),              # numpy's counter starts all-ones and wraps to 0
        (2**64 - 9, 9),      # the last counters before the first word wraps
        (123_456_789, 17),   # mid-range
    ])
    def test_c_path_matches_emulation(self, seed, step, first, count):
        counters = np.arange(count, dtype=np.uint64) + np.uint64(first)
        np.testing.assert_array_equal(uniforms_at(seed, [step], [first], [count]),
                                      emulated(counters, seed, step))

    def test_lanes_are_the_block_words(self):
        # runs laid end to end, each read from its own counters, in any order
        firsts, counts = [41, 0, 2**40, 40, 3], [5, 3, 4, 1, 2]
        counters = np.concatenate([np.arange(f, f + n, dtype=np.uint64)
                                   for f, n in zip(firsts, counts)])
        np.testing.assert_array_equal(uniforms_at(77, [5] * len(firsts), firsts, counts),
                                      emulated(counters, 77, 5))

    @pytest.mark.parametrize("steps", [
        [3, 3, 5, 3],                     # a key recurs after another one
        [-1, 2**63, 2**64 - 1, 2**63],    # keys wrap modulo 2**64
    ])
    def test_per_run_keys(self, steps):
        # run i reads key (seed, steps[i]); an empty run reads nothing, and
        # leaves the key of its neighbours alone
        firsts, counts = [10, 40, 0, 17], [3, 2, 4, 5]
        expected = np.concatenate(
            [emulated(np.arange(f, f + n, dtype=np.uint64), 2**64 - 3, s % 2**64)
             for s, f, n in zip(steps, firsts, counts)], axis=1)
        np.testing.assert_array_equal(uniforms_at(-3, steps, firsts, counts), expected)
        padded = uniforms_at(-3, [7] + steps[:2] + [8] + steps[2:] + [9],
                             [5] + firsts[:2] + [99] + firsts[2:] + [0],
                             [0] + counts[:2] + [0] + counts[2:] + [0])
        np.testing.assert_array_equal(padded, expected)

    def test_reader_carries_no_state_between_calls(self):
        # the one reader per process is rewritten by every run: calls with
        # other seeds, keys and counters in between change no block, in
        # either order
        calls = [(5, [3], [0], [7]),                                # counter wraps to 0
                 (2**64 - 1, [2**40, 1], [2**64 - 2, 9], [5, 3]),  # carries past 2**64
                 (-3, [0, 7], [123_456_789, 0], [4, 2]),
                 (77, [2**63], [3 * 2**64 + 5], [3])]              # second word set
        expected = [expected_runs(*call) for call in calls]
        for order in (calls, calls[::-1], calls + calls):
            for call in order:
                np.testing.assert_array_equal(uniforms_at(*call), expected[calls.index(call)])
        # the Python-integer reference is numpy's emulation below 2**64
        counters = np.array([0, 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(expected_runs(2**64 - 1, [9] * 4, counters.tolist(),
                                                    [1] * 4),
                                      emulated(counters, 2**64 - 1, 9))

    def test_reader_is_built_on_first_call(self):
        # importing the package builds no reader and loads no numpy.random;
        # the first call builds it, and later calls reuse it
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                      if env.get("PYTHONPATH") else []))
        script = ("import sys, nonclassical_mc\n"
                  "from nonclassical_mc import rng\n"
                  "assert rng._reader is None and 'numpy.random' not in sys.modules\n"
                  "rng.uniforms_at(1, [0], [0], [3])\n"
                  "reader = rng._reader\n"
                  "rng.uniforms_at(2, [5], [9], [4])\n"
                  "assert reader is not None and rng._reader is reader\n")
        subprocess.run([sys.executable, "-c", script], env=env, timeout=120, check=True)

    def test_statistical_sanity(self):
        # lane 0 of 64 keys x 4096 counters: mean 1/2, var 1/12, lag-1
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
        # the four lanes of a block feed one collision, so each pair must be
        # uncorrelated over many (key, counter) blocks; each lane is
        # uniform on its own
        lanes = np.concatenate([uniforms_at(321, [step], [0], [1024]) for step in range(256)],
                               axis=1)
        n = lanes.shape[1]
        for lane in lanes:
            assert abs(lane.mean() - 0.5) < 5.0 / np.sqrt(12.0 * n)
        corr = np.corrcoef(lanes)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(corr[i, j]) < 5.0 / np.sqrt(n), (i, j, corr[i, j])


class TestRandomStream:
    """Key (seed, stream_id) read as a sequence through uniforms_at, as the
    empirical checks read their variates."""

    def test_replay_is_identical(self, stream_uniforms):
        # one variate at a time or all at once: the same sequence
        drawn = np.concatenate([stream_uniforms(2024, 17, i, 1) for i in range(300)])
        np.testing.assert_array_equal(drawn, stream_uniforms(2024, 17, 0, 300))

    def test_sequence_equals_random_access(self, stream_uniforms):
        # variate i is lane i % 4 of block (seed, stream_id; i // 4), numpy's
        # lane order
        drawn = np.concatenate([stream_uniforms(5, 11, skip, n)
                                for skip, n in ((0, 1), (1, 2), (3, 597))])
        direct = emulated(np.arange(150, dtype=np.uint64), 5, 11).T.ravel()
        np.testing.assert_array_equal(drawn, direct)

    def test_uniform_block_continues_sequence(self, stream_uniforms):
        head = stream_uniforms(5, 11, 0, 3)
        block = stream_uniforms(5, 11, 3, 10)
        assert stream_uniforms(5, 11, 13, 0).size == 0
        direct = emulated(np.arange(4, dtype=np.uint64), 5, 11).T.ravel()[:13]
        np.testing.assert_array_equal(np.concatenate([head, block]), direct)

    def test_sequence_matches_numpy_lane_order(self, stream_uniforms):
        # numpy's Philox serves the lanes of counter k + 1 as raw words
        # 4k .. 4k + 3, so its raw stream is our stream from block 1 on
        raw = np.random.Philox(key=np.array([5, 11], dtype=np.uint64)).random_raw(8)
        np.testing.assert_array_equal(stream_uniforms(5, 11, 4, 8),
                                      (raw >> np.uint64(11)) * 2.0**-53)

    def test_distinct_streams_are_uncorrelated(self, stream_uniforms):
        a = stream_uniforms(77, 0, 0, 8192)
        b = stream_uniforms(77, 1, 0, 8192)
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / np.sqrt(8192)

    def test_negative_ids_wrap_to_uint64(self, stream_uniforms):
        # numpy refuses a negative uint64, so uniforms_at masks the key words first
        direct = emulated(np.uint64(0), 2**64 - 1, 2**64 - 2)
        np.testing.assert_array_equal(stream_uniforms(-1, -2, 0, 4), direct)
