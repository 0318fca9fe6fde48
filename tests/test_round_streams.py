"""`RoundStreams` against its reference `round_rng`, and seed validation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxplay import BanditConfig, ConfigError, RoundStreams, RunConfig, round_rng
from relaxplay.epochs import SEED_WINDOW, _SeedWords

SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 + 3]
STREAMS = (1, 2, 3, 4, 5)
T = 2 * SEED_WINDOW + 5
# the first and last round, and both sides of each window edge, visited out of order
ROUNDS = [T, 1, SEED_WINDOW + 1, SEED_WINDOW, SEED_WINDOW - 1, 2 * SEED_WINDOW, 2 * SEED_WINDOW + 1, 2]


def assert_same_generator(got: np.random.Generator, want: np.random.Generator):
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(3).tolist() == want.random(3).tolist()
    assert got.integers(0, 2**62, size=2).tolist() == want.integers(0, 2**62, size=2).tolist()


class TestMatchesRoundRng:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_stream_at_window_edges(self, seed):
        streams = RoundStreams(seed, T, STREAMS)
        for stream in STREAMS:
            for t in ROUNDS:
                assert_same_generator(streams.rngs(stream, t), round_rng(seed, stream, t))

    def test_every_round_of_a_short_game(self):
        streams = RoundStreams(7, 40, (1, 2, 4))
        for t in range(1, 41):
            for stream in (1, 2, 4):
                assert_same_generator(streams.rngs(stream, t), round_rng(7, stream, t))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**33), st.integers(0, 2**80)),
        stream=st.sampled_from(STREAMS),
        t=st.integers(1, 3 * SEED_WINDOW),
        extra=st.integers(0, 50),
    )
    def test_property(self, seed, stream, t, extra):
        streams = RoundStreams(seed, t + extra, (stream,))
        assert_same_generator(streams.rngs(stream, t), round_rng(seed, stream, t))

    def test_numpy_integer_seed(self):
        streams = RoundStreams(np.uint64(2**63 + 5), 10, (2,))
        assert_same_generator(streams.rngs(2, 10), round_rng(2**63 + 5, 2, 10))

    def test_seeding_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in SEEDS:
                streams = RoundStreams(seed, T, STREAMS)
                for stream in STREAMS:
                    for t in ROUNDS:
                        streams.rngs(stream, t).random()


class TestValidation:
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigError):
            RoundStreams(seed, 10, (1,))

    @pytest.mark.parametrize("T", [0, -3, 2**32])
    def test_bad_horizon(self, T):
        with pytest.raises(ConfigError):
            RoundStreams(0, T, (1,))

    def test_bad_stream(self):
        with pytest.raises(ConfigError):
            RoundStreams(0, 10, (-1,))
        with pytest.raises(ConfigError):
            RoundStreams(0, 10, (1,)).rngs(2, 1)

    @pytest.mark.parametrize("t", [0, 11])
    def test_round_outside_game(self, t):
        with pytest.raises(ConfigError):
            RoundStreams(0, 10, (1,)).rngs(1, t)

    def test_seed_words_only_seed_pcg64(self):
        words = np.zeros(4, dtype=np.uint64)
        with pytest.raises(ValueError):
            np.random.MT19937(_SeedWords(words))


class TestConfigSeeds:
    @pytest.mark.parametrize("make", [RunConfig, BanditConfig])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(2.0)])
    def test_rejected_at_construction(self, make, seed):
        with pytest.raises(ConfigError):
            make(seed=seed)

    @pytest.mark.parametrize("make", [RunConfig, BanditConfig])
    @pytest.mark.parametrize("seed", [0, 2**70 + 3, np.int64(4)])
    def test_accepted(self, make, seed):
        assert make(seed=seed).seed == seed
