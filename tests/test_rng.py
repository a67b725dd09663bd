"""Counter-based stream construction, checked against numpy's Philox."""

import numpy as np
import pytest

from nonclassical_mc.rng import RandomStream, philox4x64_block, uniforms_at


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


class TestUniformsAt:
    def test_range_and_dtype(self):
        u = uniforms_at(1, np.arange(1000, dtype=np.uint64), np.uint64(0))
        assert u.dtype == np.float64
        assert u.shape == (4, 1000)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_pure_function_of_coordinates(self):
        a = uniforms_at(9, np.array([3, 5, 7], dtype=np.uint64), np.array([0, 1, 2], dtype=np.uint64))
        b = uniforms_at(9, np.array([3, 5, 7], dtype=np.uint64), np.array([0, 1, 2], dtype=np.uint64))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        idx = np.arange(512, dtype=np.uint64)
        one = uniforms_at(1, np.uint64(0), idx)
        two = uniforms_at(1, np.uint64(1), idx)
        other_seed = uniforms_at(2, np.uint64(0), idx)
        assert not np.array_equal(one, two)
        assert not np.array_equal(one, other_seed)

    def test_lanes_are_the_block_words(self):
        counters = np.array([0, 5, 9], dtype=np.uint64)
        u = uniforms_at(4, np.uint64(6), counters)
        for lane, words in zip(u, philox4x64_block(counters, 4, 6)):
            np.testing.assert_array_equal(lane, (words >> np.uint64(11)) * 2.0**-53)

    def test_statistical_sanity(self):
        # lane 0 of 64 streams x 4096 blocks: mean 1/2, var 1/12, lag-1
        # correlation ~ 0
        ids = np.arange(64, dtype=np.uint64)[:, None]
        idx = np.arange(4096, dtype=np.uint64)[None, :]
        u = uniforms_at(123, ids, idx)[0]
        n = u.size
        assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12.0 * n)
        assert abs(u.var() - 1.0 / 12.0) < 5e-4
        flat = u.ravel()
        corr = np.corrcoef(flat[:-1], flat[1:])[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(n)
        # cross-stream correlation
        cross = np.corrcoef(u[0], u[1])[0, 1]
        assert abs(cross) < 4.0 / np.sqrt(4096)


    def test_lanes_uncorrelated(self):
        # the four lanes of a block feed one collision, so each pair must be
        # uncorrelated over many (stream, counter) blocks; each lane is
        # uniform on its own
        ids = np.arange(256, dtype=np.uint64)[:, None]
        idx = np.arange(1024, dtype=np.uint64)[None, :]
        lanes = uniforms_at(321, ids, idx).reshape(4, -1)
        n = lanes.shape[1]
        for lane in lanes:
            assert abs(lane.mean() - 0.5) < 5.0 / np.sqrt(12.0 * n)
        corr = np.corrcoef(lanes)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(corr[i, j]) < 5.0 / np.sqrt(n), (i, j, corr[i, j])


class TestRandomStream:
    def test_replay_is_identical(self):
        first = RandomStream(seed=2024, stream_id=17)
        second = RandomStream(seed=2024, stream_id=17)
        assert [first.next() for _ in range(300)] == [second.next() for _ in range(300)]

    def test_buffered_next_equals_random_access(self):
        # variate i is lane i % 4 of block i // 4 (numpy's lane order)
        stream = RandomStream(seed=5, stream_id=11)
        drawn = np.array([stream.next() for _ in range(600)])
        direct = uniforms_at(5, 11, np.arange(150, dtype=np.uint64)).T.ravel()
        np.testing.assert_array_equal(drawn, direct)

    def test_uniform_block_continues_sequence(self):
        stream = RandomStream(seed=5, stream_id=11)
        head = [stream.next() for _ in range(3)]
        block = stream.uniform(10)
        direct = uniforms_at(5, 11, np.arange(4, dtype=np.uint64)).T.ravel()[:13]
        np.testing.assert_array_equal(np.concatenate([head, block]), direct)

    def test_block_is_random_access(self):
        stream = RandomStream(seed=5, stream_id=11)
        for j in (3, 0, 200, 63, 64):
            np.testing.assert_array_equal(stream.block(j), uniforms_at(5, 11, np.uint64(j)))
        assert stream.next() == uniforms_at(5, 11, np.uint64(0))[0]

    def test_sequence_matches_numpy_lane_order(self):
        # numpy's Philox serves the lanes of counter k + 1 as raw words
        # 4k .. 4k + 3, so its raw stream is our stream from block 1 on
        raw = np.random.Philox(key=np.array([5, 11], dtype=np.uint64)).random_raw(8)
        stream = RandomStream(seed=5, stream_id=11)
        stream.uniform(4)
        np.testing.assert_array_equal(stream.uniform(8), (raw >> np.uint64(11)) * 2.0**-53)

    def test_distinct_streams_are_uncorrelated(self):
        a = RandomStream(seed=77, stream_id=0).uniform(8192)
        b = RandomStream(seed=77, stream_id=1).uniform(8192)
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / np.sqrt(8192)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            RandomStream(seed=1, stream_id=1).uniform(-1)
