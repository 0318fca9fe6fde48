import math

import numpy as np
import pytest

from relaxplay import (
    ABSOLUTE_LOSS,
    ConfigError,
    FiniteClass,
    GameHistory,
    InputDomainError,
    IntervalClass,
    LabeledPair,
    PoolExhaustedError,
    PredictorConfig,
    SidePool,
    ThresholdClass,
    UnsupportedClassError,
    draw_halluc,
    f_eval,
    inner_sup,
    inner_sups,
    loss_eval,
    predict_binary_fast,
    predict_binary_fast_batch,
    predict_general,
    relaxation_R,
)


class TestDrawHalluc:
    def test_full_draw_is_permutation(self):
        pool = SidePool([0.1, 0.2, 0.3, 0.4, 0.5])
        d = draw_halluc(pool, 5, np.random.default_rng(0))
        assert sorted(d.halluc) == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert all(s in (-1, 1) for s in d.signs)

    def test_empty_draw(self):
        d = draw_halluc(SidePool([0.1]), 0, np.random.default_rng(0))
        assert len(d.halluc) == 0 and len(d.signs) == 0

    def test_pool_exhaustion(self):
        with pytest.raises(PoolExhaustedError):
            draw_halluc(SidePool([0.1]), 2, np.random.default_rng(0))

    def test_ordered_pair_uniformity(self):
        # 3 elements, count 2: each of the 6 ordered pairs has probability 1/6
        pool = SidePool([0.0, 0.5, 1.0])
        rng = np.random.default_rng(42)
        n = 100_000
        counts = {}
        for _ in range(n):
            d = draw_halluc(pool, 2, rng)
            key = tuple(d.indices.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        p = 1.0 / 6.0
        sigma = math.sqrt(n * p * (1 - p))
        for c in counts.values():
            assert abs(c - n * p) <= 3 * sigma

    def test_sign_uniformity(self):
        pool = SidePool([0.0, 0.5, 1.0])
        rng = np.random.default_rng(7)
        total = sum(sum(draw_halluc(pool, 3, rng).signs) for _ in range(20_000))
        assert abs(total) <= 3 * math.sqrt(3 * 20_000)


class TestInnerSup:
    def test_singleton_no_sup_needed(self):
        cls = FiniteClass.from_constants([0.5])
        hist = GameHistory.from_rounds([(0.3, 1.0)], 0.6)
        config = PredictorConfig(horizon=2)
        d = draw_halluc(SidePool(), 0, np.random.default_rng(0))
        assert inner_sup(hist, d, 0.0, cls, config) == pytest.approx(-1.0)

    def test_two_constants(self):
        cls = FiniteClass.from_constants([0.0, 1.0])
        hist = GameHistory.from_rounds([], 0.5)
        config = PredictorConfig(horizon=1)
        d = draw_halluc(SidePool(), 0, np.random.default_rng(0))
        assert inner_sup(hist, d, 1.0, cls, config) == pytest.approx(0.0)

    def test_threshold_matches_negated_oracle_example(self):
        # sup_a [2*(+1)*1{0.7>=a} - |1{0.5>=a} - 1|] = +2 at a <= 0.5
        from relaxplay import RelaxationDraw

        cls = ThresholdClass()
        hist = GameHistory.from_rounds([], 0.5)
        config = PredictorConfig(horizon=4)
        d = RelaxationDraw(halluc=(0.7,), signs=(1,), indices=(0,))
        assert inner_sup(hist, d, 1.0, cls, config) == pytest.approx(2.0)
        d_neg = RelaxationDraw(halluc=(0.7,), signs=(-1,), indices=(0,))
        assert inner_sup(hist, d_neg, 1.0, cls, config) == pytest.approx(-1.0)

    def test_inner_sups_match_inner_sup(self):
        rng = np.random.default_rng(4)
        cls = ThresholdClass()
        hist = GameHistory.from_rounds([(0.2, 1.0), (0.6, 0.0), (0.9, 1.0)], 0.4)
        config = PredictorConfig(horizon=8)
        d = draw_halluc(SidePool(rng.random(6)), 4, rng)
        ys = [0.0, 0.3, 1.0]
        sups = inner_sups(hist, d, ys, cls, config)
        assert sups.tolist() == [inner_sup(hist, d, y, cls, config) for y in ys]


class TestPredictGeneral:
    def test_symmetric_two_constants(self):
        cls = FiniteClass.from_constants([0.0, 1.0])
        hist = GameHistory.from_rounds([], 0.5)
        config = PredictorConfig(horizon=4, yhat_tolerance=1e-4)
        d = draw_halluc(SidePool(), 0, np.random.default_rng(0))
        assert predict_general(hist, d, cls, config) == pytest.approx(0.5, abs=1e-3)

    def test_singleton_tracks_expert(self):
        cls = FiniteClass.from_constants([0.5])
        hist = GameHistory.from_rounds([], 0.2)
        config = PredictorConfig(horizon=4, yhat_tolerance=1e-4)
        d = draw_halluc(SidePool(), 0, np.random.default_rng(0))
        assert predict_general(hist, d, cls, config) == pytest.approx(0.5, abs=1e-3)

    def test_against_2d_grid_minimax(self):
        # phi value at the returned prediction vs the full grid minimax value
        rng = np.random.default_rng(5)
        for _ in range(100):
            M = int(rng.integers(1, 5))
            cls = FiniteClass.from_constants([float(c) for c in rng.random(3)])
            rounds = [
                (float(x), float(y))
                for x, y in zip(rng.random(M - 1), rng.random(M - 1))
            ][: int(rng.integers(0, M))]
            hist = GameHistory.from_rounds(rounds, float(rng.random()))
            pool = SidePool([float(v) for v in rng.random(M)])
            d = draw_halluc(pool, int(rng.integers(0, M)), rng)
            config = PredictorConfig(horizon=M)

            yhat = predict_general(hist, d, cls, config)

            fine = np.arange(0.0, 1.0001, 0.01)
            sups = np.array([inner_sup(hist, d, float(y), cls, config) for y in fine])

            def phi(v):
                return float(np.max(np.abs(v - fine) + sups))

            grid_min = min(phi(v) for v in fine)
            assert phi(yhat) <= grid_min + 2.0 / math.sqrt(M) + 1e-9

    def test_call_budget(self):
        rng = np.random.default_rng(9)
        for M in (1, 4, 9, 25):
            cls = ThresholdClass()
            pool = SidePool([float(v) for v in rng.random(M)])
            hist = GameHistory.from_rounds([(0.5, 1.0)], float(rng.random()))
            d = draw_halluc(pool, M - 1, rng)
            before = cls.solve_calls
            predict_general(hist, d, cls, PredictorConfig(horizon=M))
            assert cls.solve_calls - before <= math.ceil(math.sqrt(M)) + 2


class TestPredictBinaryFast:
    def test_symmetry(self):
        cls = FiniteClass.from_constants([0.0, 1.0])
        hist = GameHistory.from_rounds([], 0.5)
        d = draw_halluc(SidePool(), 0, np.random.default_rng(0))
        yhat = predict_binary_fast(hist, d, cls, PredictorConfig(horizon=2))
        assert yhat == pytest.approx(0.5)  # G(0) = G(1) = 0 here

    def test_exactly_two_calls(self):
        cls = ThresholdClass()
        hist = GameHistory.from_rounds([(0.3, 0.0)], 0.7)
        pool = SidePool([0.2, 0.8])
        d = draw_halluc(pool, 2, np.random.default_rng(1))
        before = cls.solve_calls
        predict_binary_fast(hist, d, cls, PredictorConfig(horizon=4))
        assert cls.solve_calls - before == 2

    def test_rejects_non_binary(self):
        cls = FiniteClass.from_constants([0.3, 0.7])
        hist = GameHistory.from_rounds([], 0.5)
        d = draw_halluc(SidePool(), 0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            predict_binary_fast(hist, d, cls, PredictorConfig(horizon=2))

    def test_matches_general_in_phi_value(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            M = int(rng.integers(1, 6))
            cls = ThresholdClass()
            j = int(rng.integers(0, M))
            rounds = [
                (float(x), float(y))
                for x, y in zip(rng.random(j), rng.integers(0, 2, j))
            ]
            hist = GameHistory.from_rounds(rounds, float(rng.random()))
            pool = SidePool([float(v) for v in rng.random(M)])
            d = draw_halluc(pool, M - 1 - j if M - 1 - j > 0 else 0, rng)
            config = PredictorConfig(horizon=M, yhat_tolerance=1e-3)

            fast = predict_binary_fast(hist, d, cls, config)
            slow = predict_general(hist, d, cls, config)
            g0 = inner_sup(hist, d, 0.0, cls, config)
            g1 = inner_sup(hist, d, 1.0, cls, config)

            def phi(v):
                return max(v + g0, 1.0 - v + g1)

            assert phi(fast) <= phi(slow) + config.yhat_tolerance + 1e-9


def epoch_rounds(rng, M, pool_size, binary=True):
    """An epoch's feature and label arrays, a pool, and each round's draw in order."""
    xs = rng.random(M)
    ys = rng.integers(0, 2, M).astype(float) if binary else rng.random(M)
    pool = SidePool(rng.random(pool_size))
    js = list(range(1, M + 1))
    draws = [draw_halluc(pool, min(M - j, pool.size), rng) for j in js]
    return xs, ys, js, draws


class TestPredictBinaryFastBatch:
    """The batched fast path equals predict_binary_fast round by round, bit for bit."""

    @pytest.mark.parametrize("make", [ThresholdClass, lambda: IntervalClass(0.25)], ids=["threshold", "interval"])
    def test_equals_per_round_fast_path(self, make):
        rng = np.random.default_rng(21)
        for trial in range(40):
            M = int(rng.integers(1, 14))
            # pools shorter than the epoch give rows of mixed length
            xs, ys, js, draws = epoch_rounds(rng, M, int(rng.integers(0, M + 2)), binary=trial % 4 != 3)
            if trial % 5 == 0:
                xs[rng.integers(0, M)] = 1.0  # positions at exactly 1 and duplicates
                xs[rng.integers(0, M)] = xs[0]
            order = rng.permutation(M)  # rounds in any order
            js, draws = [js[i] for i in order], [draws[i] for i in order]
            cls = make()
            batched = predict_binary_fast_batch(xs, ys, js, draws, cls)
            assert cls.solve_calls == 2 * M
            config = PredictorConfig(horizon=M)
            for j, d, yhat in zip(js, draws, batched.tolist()):
                assert yhat == predict_binary_fast(GameHistory(xs[:j], ys[: j - 1]), d, make(), config)

    def test_split_batches_agree(self, monkeypatch):
        import relaxplay.predictor as predictor

        rng = np.random.default_rng(5)
        xs, ys, js, draws = epoch_rounds(rng, 30, 40)
        whole = predict_binary_fast_batch(xs, ys, js, draws, ThresholdClass())
        monkeypatch.setattr(predictor, "MAX_BATCH_ELEMENTS", 100)
        cls, sizes = ThresholdClass(), []
        solve_rows = cls.solve_rows

        def recorded(base, pos, dlt):
            sizes.append(pos.shape)
            return solve_rows(base, pos, dlt)

        cls.solve_rows = recorded
        assert predict_binary_fast_batch(xs, ys, js, draws, cls).tolist() == whole.tolist()
        assert cls.solve_calls == 60 == sum(rows for rows, _ in sizes)
        assert max(rows * n for rows, n in sizes) <= 100

    def test_boundary_errors(self):
        rng = np.random.default_rng(2)
        xs, ys, js, draws = epoch_rounds(rng, 6, 6)
        with pytest.raises(ConfigError):
            predict_binary_fast_batch(xs, ys, js, draws, FiniteClass.from_constants([0.3]))
        bad = xs.copy()
        bad[2] = np.nan
        with pytest.raises(InputDomainError):
            predict_binary_fast_batch(bad, ys, js, draws, ThresholdClass())
        with pytest.raises(UnsupportedClassError):
            predict_binary_fast_batch(np.stack([xs, xs], axis=1), ys, [1], draws[:1], ThresholdClass())


class TestRelaxations:
    def test_terminal_slot_deterministic(self):
        cls = FiniteClass.from_constants([0.5])
        pairs = (LabeledPair(0.3, 1.0),)
        config = PredictorConfig(horizon=1)
        mean, se = relaxation_R(1, pairs, SidePool(), cls, config, 1, np.random.default_rng(0))
        assert mean == pytest.approx(-0.5) and se == 0.0

    def test_singleton_signs_mean_out(self):
        cls = FiniteClass.from_constants([0.5])
        pairs = (LabeledPair(0.3, 1.0), LabeledPair(0.9, 0.0))
        pool = SidePool([0.1, 0.2, 0.6, 0.7])
        config = PredictorConfig(horizon=4)
        mean, se = relaxation_R(2, pairs, pool, cls, config, 4000, np.random.default_rng(1))
        # sup_h = 2*sum(eps)*0.5 - L_2 with L_2 = 0.5 + 0.5
        assert mean == pytest.approx(-1.0, abs=4 * se + 1e-3)

    def test_two_constants_last_slot(self):
        # j = M-1, empty history: E max(0, 2*eps) = 1
        cls = FiniteClass.from_constants([0.0, 1.0])
        pool = SidePool([0.5])
        config = PredictorConfig(horizon=2)
        mean, se = relaxation_R(1, (), pool, cls, config, 4000, np.random.default_rng(2))
        assert mean == pytest.approx(1.0, abs=4 * se + 1e-9)

    def test_rtilde_matches_r_on_singleton_pool(self):
        from relaxplay import FeatureDistribution

        cls = ThresholdClass()
        pool = SidePool([0.4])
        env = FeatureDistribution.point_mass(0.4)
        config = PredictorConfig(horizon=2)
        rng = np.random.default_rng(3)
        r, se_r = relaxation_R(1, (LabeledPair(0.4, 1.0),), pool, cls, config, 2000, rng)
        rt, se_t = relaxation_R(
            1, (LabeledPair(0.4, 1.0),), pool, cls, config, 2000, rng, true_env=env
        )
        assert rt == pytest.approx(r, abs=3 * math.sqrt(se_r**2 + se_t**2) + 1e-9)


class TestFEval:
    def test_singleton_constant_in_x(self):
        cls = FiniteClass.from_constants([0.7])
        vals = [
            f_eval((LabeledPair(0.5, 1.0),), (), (-1,), x, cls) for x in (0.1, 0.5, 0.9)
        ]
        assert max(vals) - min(vals) == pytest.approx(0.0)

    def test_threshold_hand_enumeration(self):
        cls = ThresholdClass()
        pairs = (LabeledPair(0.5, 1.0),)
        assert f_eval(pairs, (), (-1,), 0.3, cls) == pytest.approx(0.0)
        assert f_eval(pairs, (), (-1,), 0.7, cls) == pytest.approx(-1.0)
        assert f_eval(pairs, (), (-1,), 1.0, cls) == pytest.approx(-2.0)

    def test_spread_bounded_by_4L(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            cls = ThresholdClass()
            j = int(rng.integers(0, 4))
            pairs = tuple(
                LabeledPair(float(x), float(y))
                for x, y in zip(rng.random(j), rng.random(j))
            )
            tail = tuple(float(v) for v in rng.random(int(rng.integers(0, 3))))
            signs = tuple(int(s) for s in rng.integers(0, 2, len(tail) + 1) * 2 - 1)
            vals = [
                f_eval(pairs, tail, signs, float(x), cls)
                for x in np.arange(0.0, 1.0001, 0.05)
            ]
            assert max(vals) - min(vals) <= 4.0 + 1e-9

    def test_length_validation(self):
        cls = ThresholdClass()
        with pytest.raises(ConfigError):
            f_eval((), (0.5,), (-1,), 0.3, cls)
