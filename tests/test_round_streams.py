"""The game's per-stream generators (`game_streams`) and seed validation."""

import warnings

import numpy as np
import pytest

from relaxplay import BanditConfig, ConfigError, RunConfig
from relaxplay.epochs import game_streams

SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 + 3]
STREAMS = (1, 2, 3, 4, 5)


class TestGameStreams:
    @pytest.mark.parametrize("seed", [*SEEDS, np.uint64(2**63 + 5), np.int64(4)])
    def test_one_generator_per_stream(self, seed):
        for stream, rng in zip(STREAMS, game_streams(seed, *STREAMS)):
            want = np.random.default_rng([int(seed), stream])
            assert rng.bit_generator.state == want.bit_generator.state

    def test_huge_seeds_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in SEEDS:
                for rng in game_streams(seed, *STREAMS):
                    rng.random(3)


    def test_games_with_a_huge_seed_raise_no_warning(self):
        from relaxplay import (
            ABSOLUTE_LOSS, EpochSchedule, FeatureDistribution, ObliviousAdversary, PolicyClass, ThresholdClass,
            run_bandit, run_epoch_predictor,
        )

        env = FeatureDistribution.uniform()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_epoch_predictor(
                EpochSchedule("polynomial"), ThresholdClass(), ABSOLUTE_LOSS, env,
                ObliviousAdversary(lambda t, x, rng: float(rng.random() < 0.5)), 30, RunConfig(seed=2**70 + 3),
            )
            policies = PolicyClass([lambda x: 0, lambda x: 1], num_arms=2)
            run_bandit(policies, env, lambda t, x, history: np.array([0.0, 1.0]), 30, BanditConfig(seed=2**70 + 3))


class TestValidation:
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigError):
            game_streams(seed, 1)

    def test_bad_stream(self):
        for stream in (-1, 1.5, True):
            with pytest.raises(ConfigError):
                game_streams(0, 1, stream)


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
