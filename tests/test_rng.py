import numpy as np
import pytest

import softaug as sa
from softaug.rng import SplitMix64, derive, derive_block, random_block, stream_block

GOLDEN = 0x9E3779B97F4A7C15


class TestRandomBlock:
    # Seeds near 2**64 wrap the state within the first draws; the sixth
    # seed's third state is exactly 0.
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63, 2**64 - 1, (-3 * GOLDEN) % 2**64, -1])
    def test_equals_scalar_draws_bitwise(self, seed):
        rng = SplitMix64(seed)
        scalar = np.array([rng.random() for _ in range(2000)])
        assert random_block(seed, 2000).tobytes() == scalar.tobytes()

    def test_empty_block(self):
        assert random_block(7, 0).shape == (0,)


class TestDeriveBlock:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("start", [0, 7])
    def test_equals_scalar_derive(self, seed, start):
        block = derive_block(seed, start, 300)
        assert block.dtype == np.uint64
        assert block.tolist() == [derive(seed, i) for i in range(start, start + 300)]

    def test_stream_block_concatenates_each_streams_first_draws(self):
        seeds = derive_block(2**64 - 1, 0, 40)
        lengths = [i % 5 for i in range(40)]
        scalar = []
        for seed, n in zip(seeds.tolist(), lengths):
            rng = SplitMix64(seed)
            scalar += [rng.random() for _ in range(n)]
        block = stream_block(seeds, np.array(lengths))
        assert block.tobytes() == np.array(scalar).tobytes()


class TestStreamPosition:
    def test_peek_skip_and_random_array_follow_the_scalar_stream(self):
        rng, scalar = SplitMix64(2**64 - 3), SplitMix64(2**64 - 3)
        ahead = rng.peek(9)
        assert rng.peek(9).tobytes() == ahead.tobytes()
        assert ahead.tolist() == [scalar.random() for _ in range(9)]
        rng.skip(9)
        assert rng.random_array(4).tolist() == [scalar.random() for _ in range(4)]
        assert rng.next_u64() == scalar.next_u64()

    def test_advanced_stream_is_a_stream_of_the_advanced_seed(self):
        rng = SplitMix64(5)
        rng.skip(11)
        assert rng.random_array(3).tolist() == SplitMix64(5 + 11 * GOLDEN).random_array(3).tolist()


class TestRandintBlock:
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 2**40])
    @pytest.mark.parametrize("count", [0, 1, 500])
    def test_equals_sequential_randint_calls(self, n, count):
        block_rng, rng = SplitMix64(2**64 - 5), SplitMix64(2**64 - 5)
        block = block_rng.randint_block(n, count)
        assert block.dtype == np.int64
        assert block.tolist() == [rng.randint(n) for _ in range(count)]
        # The stream goes on where the sequential calls leave it.
        assert block_rng.next_u64() == rng.next_u64()

    def test_no_draw_leaves_the_stream_alone(self):
        rng = SplitMix64(3)
        assert rng.randint_block(0, 0).shape == (0,)
        assert rng.randint_block(5, -2).shape == (0,)
        assert rng.next_u64() == SplitMix64(3).next_u64()

    def test_empty_range_refused(self):
        with pytest.raises(ValueError, match="n >= 1"):
            SplitMix64(3).randint_block(0, 1)


class TestInitModel:
    def test_embedding_equals_row_major_scalar_draws(self):
        rng = SplitMix64(9)
        expected = np.array([[rng.random() * 0.2 - 0.1 for _ in range(8)] for _ in range(30)])
        model = sa.init_model(30, 8, 3, seed=9)
        assert model.emb.tobytes() == expected.tobytes()
        assert not model.w.any() and not model.b.any()
