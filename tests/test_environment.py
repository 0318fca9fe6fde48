import math

import numpy as np
import pytest

from relaxplay import (
    ABSOLUTE_LOSS,
    AdaptiveAdversary,
    AdversaryFault,
    ConfigError,
    EpochSchedule,
    FeatureDistribution,
    ObliviousAdversary,
    RunConfig,
    SemiAdaptiveAdversary,
    ShiftingProcess,
    ThresholdClass,
    run_epoch_predictor,
    sample_feature,
)
from relaxplay.environment import (
    builtin_adversaries,
    constant,
    flip_to_far,
    noisy_target,
    periodic,
)


class TestDistributions:
    def test_point_mass(self):
        env = FeatureDistribution.point_mass(0.3)
        rng = np.random.default_rng(0)
        assert all(sample_feature(env, t, rng) == 0.3 for t in range(1, 50))

    def test_discrete_frequencies(self):
        env = FeatureDistribution.discrete([0.1, 0.9], [0.25, 0.75])
        rng = np.random.default_rng(1)
        n = 20_000
        hits = sum(sample_feature(env, 1, rng) == 0.9 for _ in range(n))
        assert abs(hits - 0.75 * n) <= 3 * math.sqrt(n * 0.75 * 0.25)

    def test_uniform_ks(self):
        env = FeatureDistribution.uniform()
        rng = np.random.default_rng(2)
        n = 5000
        xs = np.sort([env.sample(rng) for _ in range(n)])
        ks = np.max(np.abs(xs - (np.arange(1, n + 1) / n)))
        assert ks < 1.36 / math.sqrt(n)

    def test_product_shape(self):
        env = FeatureDistribution.product(
            [FeatureDistribution.uniform(), FeatureDistribution.point_mass(0.5)]
        )
        x = env.sample(np.random.default_rng(0))
        assert x.shape == (2,) and x[1] == 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            FeatureDistribution.discrete([0.1, 0.9], [0.3, 0.3])
        with pytest.raises(ConfigError):
            FeatureDistribution.uniform(0.5, 0.2)
        with pytest.raises(ConfigError):
            FeatureDistribution("cauchy")
        with pytest.raises(ConfigError):
            FeatureDistribution.uniform().points

    @pytest.mark.parametrize(
        "probs",
        [[np.nan, np.nan], [0.5, np.nan], [np.inf, -np.inf], [np.inf, 0.0], [1.5, -0.5]],
    )
    def test_non_finite_or_negative_probs_rejected(self, probs):
        # rejected when built, not at the first sample
        with pytest.raises(ConfigError):
            FeatureDistribution.discrete([0.1, 0.9], probs)


    @pytest.mark.parametrize(
        "points",
        [
            [-3.0, 0.5], [0.5, 1.5], [float("nan"), 0.5], [0.2, float("inf")],
            [np.array([0.2, 1.2]), np.array([0.1, 0.1])], [np.array([0.2, float("nan")]), np.array([0.1, 0.1])],
        ],
    )
    def test_points_outside_unit_cube_rejected(self, points):
        # rejected when built: a point off [0,1] would play, and score negative regret
        with pytest.raises(ConfigError, match="discrete points must have entries in"):
            FeatureDistribution.discrete(points, [0.5, 0.5])

    @pytest.mark.parametrize("x", [1.5, -0.1, float("nan"), np.array([0.5, 2.0])])
    def test_point_mass_outside_unit_cube_rejected(self, x):
        with pytest.raises(ConfigError):
            FeatureDistribution.point_mass(x)

    def test_vector_and_edge_points_accepted(self):
        assert FeatureDistribution.discrete([0.0, 1.0], [0.5, 0.5]).points == [0.0, 1.0]
        env = FeatureDistribution.point_mass(np.array([0.0, 1.0]))
        assert list(env.sample(np.random.default_rng(0))) == [0.0, 1.0]

    @pytest.mark.parametrize("point", [1, np.float32(0.5), np.int64(0), [0.5, 1], (0, 0.25), np.array([1, 0])])
    def test_points_stored_as_features(self, point):
        # a float for a scalar, a read-only float64 vector for a vector, whatever was passed
        x = FeatureDistribution.point_mass(point).sample(np.random.default_rng(0))
        if np.ndim(point) == 0:
            assert type(x) is float and x == float(point)
        else:
            assert x.dtype == np.float64 and x.tolist() == [float(v) for v in point] and not x.flags.writeable

    @pytest.mark.parametrize("points", [[0.5, [0.5, 0.5]], [[0.5], [0.5, 0.5]], [[[0.5]], [[0.5]]]])
    def test_points_of_mixed_shape_rejected(self, points):
        with pytest.raises(ConfigError, match="discrete points must"):
            FeatureDistribution.discrete(points, [0.5, 0.5])

    @pytest.mark.parametrize("points, probs", [([0.1, 0.9], [1.0]), ([0.5], [0.5, 0.5]), ([], []), ([], [1.0])])
    def test_points_and_probs_must_match(self, points, probs):
        # rejected when built, not by numpy at the first sample
        with pytest.raises(ConfigError):
            FeatureDistribution.discrete(points, probs)


class TestShiftingProcess:
    def test_boundaries(self):
        proc = ShiftingProcess(
            [
                (FeatureDistribution.point_mass(0.1), 1),
                (FeatureDistribution.point_mass(0.9), 51),
            ]
        )
        rng = np.random.default_rng(0)
        assert sample_feature(proc, 50, rng) == 0.1
        assert sample_feature(proc, 51, rng) == 0.9
        assert proc.change_points == [51]
        assert proc.change_count == 1

    def test_validation(self):
        d = FeatureDistribution.uniform()
        with pytest.raises(ConfigError):
            ShiftingProcess([(d, 2)])
        with pytest.raises(ConfigError):
            ShiftingProcess([(d, 1), (d, 1)])
        with pytest.raises(ConfigError):
            sample_feature(d, 0, np.random.default_rng(0))


NO_HISTORY = np.empty(0), np.empty(0)  # the game before its first round


class TestAdversaries:
    def test_label_range_enforced(self):
        bad = ObliviousAdversary(lambda t, x, rng: 1.5)
        with pytest.raises(AdversaryFault):
            bad.emit(1, NO_HISTORY, 0.5, None, np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ["oblivious", "adaptive"])
    def test_non_binary_adversary_still_plays_fractional_labels(self, kind):
        if kind == "oblivious":
            adv = ObliviousAdversary(lambda t, x, rng: 0.3)
        else:
            adv = AdaptiveAdversary(lambda t, h, x, p, r: 0.3)
        assert adv.emit(1, NO_HISTORY, 0.5, lambda: 0.5, None) == 0.3
        trace = run_epoch_predictor(
            EpochSchedule("polynomial", alpha=1.0), ThresholdClass(), ABSOLUTE_LOSS,
            FeatureDistribution.uniform(), adv, 20, RunConfig(seed=0, probe_mc=2),
        )
        assert set(trace.column("y")) == {0.3}
        assert set(trace.column("erm_calls")) == {2}

    def test_noisy_target_flip_rate(self):
        adv = noisy_target(lambda x: float(x >= 0.5), p=0.1)
        rng = np.random.default_rng(3)
        n = 20_000
        flips = sum(adv.emit(1, NO_HISTORY, 0.8, None, rng) == 0.0 for _ in range(n))
        assert abs(flips - 0.1 * n) <= 3 * math.sqrt(n * 0.1 * 0.9)
        with pytest.raises(ConfigError):
            noisy_target(lambda x: x, p=1.5)

    def test_constant_and_periodic(self):
        assert constant(0.5).emit(1, NO_HISTORY, 0.2, None, None) == 0.5
        adv = periodic([0.0, 1.0, 0.5])
        assert [adv.emit(t, NO_HISTORY, 0.2, None, None) for t in (1, 2, 3, 4)] == [
            0.0,
            1.0,
            0.5,
            0.0,
        ]
        with pytest.raises(ConfigError, match="at least one"):
            periodic([])

    def test_flip_to_far_uses_probe(self):
        adv = flip_to_far()
        assert adv.emit(1, NO_HISTORY, 0.5, lambda: 0.7, None) == 0.0
        assert adv.emit(1, NO_HISTORY, 0.5, lambda: 0.2, None) == 1.0

    def test_semi_adaptive_window(self):
        seen = {}

        def fn(t, feats, rng):
            seen[t] = list(feats)
            return 0.0

        adv = SemiAdaptiveAdversary(2, fn)
        history = np.array([0.1, 0.2, 0.3]), np.array([0.0, 1.0, 0.0])
        adv.emit(4, history, 0.4, None, None)
        assert seen[4] == [0.2, 0.3, 0.4]
        with pytest.raises(ConfigError):
            SemiAdaptiveAdversary(-1, fn)

    @pytest.mark.parametrize("window", [0, 1, 2])
    @pytest.mark.parametrize(
        "played, d", [(0, None), (1, None), (2, None), (5, None), (0, 2), (5, 2)],
        ids=["0", "1", "2", "5", "0-vector", "5-vector"],
    )
    def test_semi_adaptive_window_equals_full_list(self, window, played, d):
        # the last window + 1 features of the whole game, as the full list gave them
        # (window 0: the current feature only), also for a history shorter than the window
        seen = []
        adv = SemiAdaptiveAdversary(window, lambda t, feats, rng: seen.append(feats) or 0.0)
        shape = () if d is None else (d,)
        xs = np.array([np.full(shape, 0.1 * (i + 1)) for i in range(played)]).reshape(played, *shape)
        x_t = 0.9 if d is None else np.full(d, 0.9)
        adv.emit(played + 1, (xs, np.arange(played) % 2.0), x_t, None, None)
        full = [*xs.tolist(), np.asarray(x_t).tolist()]
        assert len(seen) == 1 and seen[0].dtype == np.float64
        assert seen[0].tolist() == full[-(window + 1):]

    @pytest.mark.parametrize("window", [2.7, math.nan, True, "2", None])
    def test_semi_adaptive_window_must_be_an_integer(self, window):
        with pytest.raises(ConfigError, match="window"):
            SemiAdaptiveAdversary(window, lambda t, feats, rng: 0.0)

    def test_semi_adaptive_window_accepts_numpy_integers(self):
        adv = SemiAdaptiveAdversary(np.int64(3), lambda t, feats, rng: 0.0)
        assert adv.window == 3 and type(adv.window) is int

    def test_catalog(self):
        cat = builtin_adversaries()
        assert set(cat) == {
            "noisy_target",
            "flip_to_far",
            "comparator_squeeze",
            "constant",
            "periodic",
        }


class TestProbeIsolation:
    def test_adaptive_probe_does_not_disturb_feature_stream(self):
        # an adversary that probes must see the same features as one that doesn't
        env = FeatureDistribution.uniform()
        sched = EpochSchedule("polynomial", alpha=1.0)
        T = 12

        oblivious = ObliviousAdversary(lambda t, x, rng: 1.0)
        probing = AdaptiveAdversary(lambda t, history, x_t, probe, rng: 1.0 if probe() < 2.0 else 0.0)
        cfg = RunConfig(seed=11, probe_mc=8)
        a = run_epoch_predictor(sched, ThresholdClass(), ABSOLUTE_LOSS, env, oblivious, T, cfg)
        b = run_epoch_predictor(sched, ThresholdClass(), ABSOLUTE_LOSS, env, probing, T, cfg)
        assert a.column("x") == b.column("x")
        assert a.column("y") == b.column("y")

    def test_semi_adaptive_window_zero_sees_current_feature_only(self):
        env = FeatureDistribution.uniform()
        sched = EpochSchedule("polynomial", alpha=1.0)
        rule = lambda feats: float(feats[-1] >= 0.5)
        semi = SemiAdaptiveAdversary(0, lambda t, feats, rng: rule(feats))
        obli = ObliviousAdversary(lambda t, x, rng: rule([x]))
        cfg = RunConfig(seed=5)
        a = run_epoch_predictor(sched, ThresholdClass(), ABSOLUTE_LOSS, env, semi, 15, cfg)
        b = run_epoch_predictor(sched, ThresholdClass(), ABSOLUTE_LOSS, env, obli, 15, cfg)
        assert a.column("y") == b.column("y")
        assert a.column("yhat") == b.column("yhat")
