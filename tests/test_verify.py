import math

import numpy as np
import pytest

from relaxplay import (
    CheckReport,
    ConfigError,
    FeatureDistribution,
    FiniteClass,
    PredictorConfig,
    ThresholdClass,
    TinyGame,
    check_admissibility,
    check_decomposition,
    check_fact2,
    check_sensitivity,
    default_binary_generator,
    default_sensitivity_generator,
    discrepancy_probe,
    estimate_rademacher,
    relaxation_R,
    standard_checks,
)
from relaxplay.verify import Y_STEP


class TestCheckReport:
    def test_line_rendering(self):
        assert "PASS" in CheckReport("x", 3, True, -0.1).line()
        assert "FAIL" in CheckReport("x", 3, False, 0.1).line()
        assert "REPORT" in CheckReport("x", 3, None, 0.0).line()


class TestRademacher:
    def test_two_round_binary_exact(self):
        # constants {0,1}: sup_h (eps1 + eps2) h = max(0, eps1 + eps2);
        # exhaustive mean over the 4 sign patterns = (2 + 0 + 0 + 0)/4 = 0.5
        cls = FiniteClass.from_constants([0.0, 1.0])
        mean, se = estimate_rademacher(
            cls, [0.3, 0.7], 0, np.random.default_rng(0), exhaustive=True
        )
        assert mean == pytest.approx(0.5)
        assert se == 0.0

    def test_singleton_is_zero(self):
        cls = FiniteClass.from_constants([0.5])
        mean, se = estimate_rademacher(
            cls, [0.1, 0.9], 0, np.random.default_rng(0), exhaustive=True
        )
        # sup over a single h: E[ (eps1 + eps2) * 0.5 ] = 0
        assert mean == pytest.approx(0.0)

    def test_mc_consistent_with_exhaustive(self):
        cls = ThresholdClass()
        feats = [0.2, 0.4, 0.6, 0.8]
        exact, _ = estimate_rademacher(cls, feats, 0, np.random.default_rng(1), exhaustive=True)
        mc, se = estimate_rademacher(cls, feats, 800, np.random.default_rng(2))
        assert abs(mc - exact) <= 3 * se + 1e-9


class TestMonteCarloCounts:
    """Every Monte Carlo estimate takes a positive integer sample count: a
    config error, not a NaN mean of no draws or a bare numpy error."""

    game = TinyGame(ThresholdClass(), FeatureDistribution.discrete([0.2, 0.8], [0.5, 0.5]), 2, [0.2, 0.8])

    @pytest.mark.parametrize("mc", [0, -1, 2.5, True])
    @pytest.mark.parametrize(
        "estimate",
        [
            lambda mc, rng: relaxation_R(
                1, (np.array([0.4]), np.array([1.0])), [0.4], ThresholdClass(), PredictorConfig(horizon=2), mc, rng
            ),
            lambda mc, rng: estimate_rademacher(ThresholdClass(), [0.2, 0.8], mc, rng),
            lambda mc, rng: check_admissibility(TestMonteCarloCounts.game, mc, rng),
            lambda mc, rng: check_decomposition(TestMonteCarloCounts.game, mc, rng),
            lambda mc, rng: discrepancy_probe(TestMonteCarloCounts.game, mc, rng),
        ],
        ids=["relaxation_R", "rademacher", "admissibility", "decomposition", "discrepancy"],
    )
    def test_bad_count_rejected(self, estimate, mc):
        with pytest.raises(ConfigError, match="mc_samples must be a positive integer"):
            estimate(mc, np.random.default_rng(0))


class TestAdmissibility:
    histories = (([], []), ([0.2], [1.0]))

    def _game(self, cls=None, env=None):
        return TinyGame(
            cls=FiniteClass.from_constants([0.0, 1.0]) if cls is None else cls,
            env=FeatureDistribution.discrete([0.2, 0.8], [0.5, 0.5]) if env is None else env,
            horizon=2,
            pool_features=[0.2, 0.8],
        )

    def test_passes_on_clean_fixture(self):
        rep = check_admissibility(self._game(), 300, np.random.default_rng(0), histories=self.histories)
        assert rep.passed is True
        assert rep.instances == 2

    def test_history_needs_one_label_per_feature(self):
        with pytest.raises(ConfigError, match="one label per feature"):
            check_admissibility(self._game(), 10, np.random.default_rng(0), histories=(([0.2, 0.8], [1.0]),))

    def test_law_must_be_discrete(self):
        game = self._game(env=FeatureDistribution.uniform())
        with pytest.raises(ConfigError, match="finite feature support"):
            check_admissibility(game, 10, np.random.default_rng(0))

    def test_history_must_fit_the_horizon(self):
        with pytest.raises(ConfigError, match="longer than the horizon"):
            check_admissibility(self._game(), 10, np.random.default_rng(0), histories=(([0.2, 0.8], [1.0, 0.0]),))

    def test_corrupted_prediction_fails(self):
        rep = check_admissibility(
            self._game(), 1200, np.random.default_rng(0), histories=self.histories, predict_offset=0.45
        )
        assert rep.passed is False
        assert rep.worst_margin > 0

    @pytest.mark.parametrize("make", [lambda: FiniteClass.from_constants([0.0, 1.0]), ThresholdClass])
    def test_one_grid_solve_per_draw(self, make):
        # each (support point, draw) solves the label grid once and takes its
        # prediction from those sups; relaxation_R adds one solve per draw
        game = self._game(cls=make())
        mc = 5
        check_admissibility(game, mc, np.random.default_rng(3), histories=self.histories)
        grid_size = len(np.append(np.arange(0.0, 1.0, Y_STEP), 1.0))
        support = sum(p > 0 for p in game.env.probs)
        assert game.cls.solve_calls == len(self.histories) * (support * mc * grid_size + mc)


class TestSensitivity:
    def test_default_generator_passes(self):
        rep = check_sensitivity(
            default_sensitivity_generator, 40, np.random.default_rng(3)
        )
        assert rep.passed is True
        assert rep.instances == 40


class TestFact2:
    def test_default_generator_passes(self):
        rep = check_fact2(default_binary_generator, 100, np.random.default_rng(4))
        assert rep.passed is True
        assert rep.worst_margin <= 1e-9


class TestDecomposition:
    game = TinyGame(
        cls=FiniteClass.from_constants([0.0, 1.0]),
        env=FeatureDistribution.discrete([0.3, 0.7], [0.5, 0.5]),
        horizon=3,
        pool_features=[0.3, 0.7, 0.5],
    )

    def test_passes_on_clean_fixture(self):
        rep = check_decomposition(self.game, 60, np.random.default_rng(5), inner_mc=16)
        assert rep.passed is True

    def test_negated_initial_term_fails(self):
        rep = check_decomposition(
            self.game, 60, np.random.default_rng(5), inner_mc=16, rtilde_scale=-1.0
        )
        assert rep.passed is False


class TestDiscrepancy:
    def test_report_only(self):
        rep = discrepancy_probe(
            TinyGame(
                cls=ThresholdClass(),
                env=FeatureDistribution.uniform(),
                horizon=3,
                pool_features=[0.2, 0.4, 0.6, 0.8],
            ),
            40,
            np.random.default_rng(6),
        )
        assert rep.passed is None
        assert "rows" in rep.details


class TestOneGame:
    def test_three_checks_share_one_game_and_leave_it_unchanged(self):
        pool = [0.2, 0.4, 0.8]
        game = TinyGame(
            FiniteClass.from_constants([0.0, 1.0]), FeatureDistribution.discrete([0.2, 0.8], [0.5, 0.5]), 3, pool
        )
        before = dict(vars(game))
        rng = np.random.default_rng(8)
        reports = [
            check_admissibility(game, 20, rng, histories=(([], []), ([0.8], [0.0]))),
            check_decomposition(game, 8, rng, inner_mc=8),
            discrepancy_probe(game, 8, rng),
        ]
        assert [r.passed for r in reports] == [True, True, None]
        assert vars(game) == before and all(a is b for a, b in zip(vars(game).values(), before.values()))
        assert pool == [0.2, 0.4, 0.8]
        with pytest.raises(AttributeError):
            game.horizon = 4


class TestStandardChecks:
    def test_battery_runs_and_passes(self):
        reports = standard_checks(seed=0, mc_samples=48)
        assert len(reports) >= 4
        for rep in reports:
            assert rep.passed in (True, None)
