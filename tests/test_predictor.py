import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxplay import (
    ABSOLUTE_LOSS,
    LossFn,
    ConfigError,
    FiniteClass,
    GameHistory,
    InputDomainError,
    IntervalClass,
    LipschitzClass,
    PoolExhaustedError,
    PredictorConfig,
    RelaxationDraw,
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
from relaxplay.predictor import PERMUTE_MAX_SLOTS, draw_slots, predict_binary_fast_block, row_route
from references import label_sums

SQUARED_LOSS = LossFn("custom", lipschitz=2.0, evaluator=lambda p, y: (p - y) ** 2)


class TestDrawHalluc:
    def test_full_draw_is_permutation(self):
        pool = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        d = draw_halluc(pool, 5, np.random.default_rng(0))
        assert sorted(d.halluc) == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert all(s in (-1, 1) for s in d.signs)

    def test_empty_draw(self):
        d = draw_halluc(np.array([0.1]), 0, np.random.default_rng(0))
        assert len(d.halluc) == 0 and len(d.signs) == 0

    def test_pool_exhaustion(self):
        with pytest.raises(PoolExhaustedError):
            draw_halluc(np.array([0.1]), 2, np.random.default_rng(0))

    def test_ordered_pair_uniformity(self):
        # 3 elements, count 2: each of the 6 ordered pairs has probability 1/6
        pool = np.array([0.0, 0.5, 1.0])
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

    @pytest.mark.parametrize("size", [3 * (PERMUTE_MAX_SLOTS // 3), 3 * (PERMUTE_MAX_SLOTS // 3 + 1)])
    def test_ordered_pair_uniformity_on_each_side_of_the_cutoff(self, size):
        # count 3 of a permuted pool (up to the cutoff) or a `choice` one (above it): slots fall
        # into thirds by slot mod 3, and the thirds of positions (0, 1) and (1, 2) form each
        # ordered pair with probability m (m - [same third]) / (size (size - 1)), m = size / 3
        rng = np.random.default_rng(size)
        n, m = 60_000, size // 3
        for first, second in ((0, 1), (1, 2)):
            counts = np.zeros((3, 3))
            for _ in range(n):
                slots, _ = draw_slots(size, 3, rng)
                counts[slots[first] % 3, slots[second] % 3] += 1
            for a in range(3):
                for b in range(3):
                    p = m * (m - (a == b)) / (size * (size - 1))
                    assert abs(counts[a, b] - n * p) <= 3 * math.sqrt(n * p * (1 - p))

    def test_sign_uniformity(self):
        pool = np.array([0.0, 0.5, 1.0])
        rng = np.random.default_rng(7)
        total = sum(sum(draw_halluc(pool, 3, rng).signs) for _ in range(20_000))
        assert abs(total) <= 3 * math.sqrt(3 * 20_000)

    @staticmethod
    def reference_draw(pool, count, rng):
        """The draw written out: the slots (a whole permutation's first
        `count` up to PERMUTE_MAX_SLOTS, else `choice` without replacement),
        then one uniform per sign, -1 below 1/2."""
        if count == 0:
            return pool[:0], np.empty(0), np.empty(0, dtype=np.intp)
        if len(pool) > PERMUTE_MAX_SLOTS:
            idx = rng.choice(len(pool), count, replace=False)
        else:
            idx = rng.permutation(len(pool))[:count]
        signs = np.array([-1.0 if rng.random() < 0.5 else 1.0 for _ in range(count)])
        return pool[idx], signs, idx

    def test_internal_draw_equals_reference(self):
        for size in (0, 1, 2, 5, 39, 40, 41, PERMUTE_MAX_SLOTS, PERMUTE_MAX_SLOTS + 1, 599, 600):
            pool = np.random.default_rng(size).random(size)
            for count in range(min(40, size) + 1):
                ref_rng, slot_rng, draw_rng = (np.random.default_rng([size, count]) for _ in range(3))
                halluc, signs, idx = self.reference_draw(pool, count, ref_rng)
                slot_idx, slot_signs = draw_slots(len(pool), count, slot_rng)
                d = draw_halluc(pool, count, draw_rng)
                for got_halluc, got_signs, got_idx in (
                    (pool[slot_idx], slot_signs, slot_idx), (d.halluc, d.signs, d.indices)
                ):
                    assert got_halluc.tolist() == halluc.tolist()
                    assert got_signs.tolist() == signs.tolist()
                    assert got_idx.tolist() == idx.tolist()
                assert slot_rng.bit_generator.state == ref_rng.bit_generator.state == draw_rng.bit_generator.state

    @pytest.mark.parametrize(
        "pool,count,error",
        [
            (np.array([0.1, 0.2]), -1, ConfigError),
            (np.array([0.1, 0.2]), 1.0, ConfigError),
            (np.array([0.1, 0.2]), "1", ConfigError),
            (np.array([0.1, 0.2]), True, ConfigError),
            (np.array([0.1, 0.2]), None, ConfigError),
            (np.array([0.1, 0.2]), 3, PoolExhaustedError),
            (np.empty(0), 1, PoolExhaustedError),
            (np.empty(0), 4, PoolExhaustedError),
            (np.full((3, 2), 0.5), 4, PoolExhaustedError),  # 3 vector features, 6 entries
        ],
    )
    def test_bad_count_raises_before_rng_use(self, pool, count, error):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(error):
            draw_halluc(pool, count, rng)
        assert rng.bit_generator.state == state
        if error is PoolExhaustedError:  # the pool holds len(pool) features, and all of them can be drawn
            assert draw_halluc(pool, len(pool), rng).halluc.shape == pool.shape


class TestInnerSup:
    def test_singleton_no_sup_needed(self):
        cls = FiniteClass.from_constants([0.5])
        hist = GameHistory(np.array([0.3, 0.6]), np.array([1.0]))
        config = PredictorConfig(horizon=2)
        d = draw_halluc(np.empty(0), 0, np.random.default_rng(0))
        assert inner_sup(hist, d, 0.0, cls, config) == pytest.approx(-1.0)

    def test_two_constants(self):
        cls = FiniteClass.from_constants([0.0, 1.0])
        hist = GameHistory(np.array([0.5]), np.array([]))
        config = PredictorConfig(horizon=1)
        d = draw_halluc(np.empty(0), 0, np.random.default_rng(0))
        assert inner_sup(hist, d, 1.0, cls, config) == pytest.approx(0.0)

    def test_threshold_matches_negated_oracle_example(self):
        # sup_a [2*(+1)*1{0.7>=a} - |1{0.5>=a} - 1|] = +2 at a <= 0.5
        from relaxplay import RelaxationDraw

        cls = ThresholdClass()
        hist = GameHistory(np.array([0.5]), np.array([]))
        config = PredictorConfig(horizon=4)
        d = RelaxationDraw(halluc=(0.7,), signs=(1,), indices=(0,))
        assert inner_sup(hist, d, 1.0, cls, config) == pytest.approx(2.0)
        d_neg = RelaxationDraw(halluc=(0.7,), signs=(-1,), indices=(0,))
        assert inner_sup(hist, d_neg, 1.0, cls, config) == pytest.approx(-1.0)

    def test_inner_sups_match_inner_sup(self):
        rng = np.random.default_rng(4)
        cls = ThresholdClass()
        hist = GameHistory(np.array([0.2, 0.6, 0.9, 0.4]), np.array([1.0, 0.0, 1.0]))
        config = PredictorConfig(horizon=8)
        d = draw_halluc(rng.random(6), 4, rng)
        ys = [0.0, 0.3, 1.0]
        sups = inner_sups(hist, d, ys, cls, config)
        assert sups.tolist() == [inner_sup(hist, d, y, cls, config) for y in ys]


    @pytest.mark.parametrize(
        "make", [ThresholdClass, lambda: IntervalClass(0.25), lambda: FiniteClass.from_constants([0.0, 0.6, 1.0])],
        ids=["threshold", "interval", "finite"],
    )
    @pytest.mark.parametrize("loss", [ABSOLUTE_LOSS, SQUARED_LOSS], ids=["absolute", "squared"])
    def test_inner_sups_one_solve_call_per_label(self, make, loss):
        rng = np.random.default_rng(9)
        for trial in range(20):
            j = int(rng.integers(1, 6))
            hist = GameHistory(rng.random(j), rng.integers(0, 2, j - 1).astype(float))
            d = draw_halluc(rng.random(8), int(rng.integers(0, 8)), rng)
            config = PredictorConfig(horizon=12, loss=loss)
            grid = np.append(np.arange(0.0, 1.0, 1.0 / int(rng.integers(1, 25))), 1.0)
            cls = make()
            sups = inner_sups(hist, d, grid, cls, config)
            assert cls.solve_calls == len(grid)
            assert sups.tolist() == [inner_sup(hist, d, y, make(), config) for y in grid.tolist()]


class TestPredictorConfig:
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"horizon": math.nan}, "horizon"),
            ({"horizon": math.inf}, "horizon"),
            ({"horizon": 0}, "horizon"),
            ({"horizon": 4, "y_grid_step": math.nan}, "grid step"),
            ({"horizon": 4, "yhat_tolerance": math.nan}, "tolerance"),
            ({"horizon": 4, "y_grid_step": 0.0}, "grid step"),
        ],
    )
    def test_bad_values_raise_when_built(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            PredictorConfig(**kwargs)


class TestPredictGeneral:
    def test_symmetric_two_constants(self):
        cls = FiniteClass.from_constants([0.0, 1.0])
        hist = GameHistory(np.array([0.5]), np.array([]))
        config = PredictorConfig(horizon=4, yhat_tolerance=1e-4)
        d = draw_halluc(np.empty(0), 0, np.random.default_rng(0))
        assert predict_general(hist, d, cls, config) == pytest.approx(0.5, abs=1e-3)

    def test_singleton_tracks_expert(self):
        cls = FiniteClass.from_constants([0.5])
        hist = GameHistory(np.array([0.2]), np.array([]))
        config = PredictorConfig(horizon=4, yhat_tolerance=1e-4)
        d = draw_halluc(np.empty(0), 0, np.random.default_rng(0))
        assert predict_general(hist, d, cls, config) == pytest.approx(0.5, abs=1e-3)

    def test_against_2d_grid_minimax(self):
        # phi value at the returned prediction vs the full grid minimax value
        rng = np.random.default_rng(5)
        for _ in range(100):
            M = int(rng.integers(1, 5))
            cls = FiniteClass.from_constants([float(c) for c in rng.random(3)])
            xs, ys = rng.random(M - 1), rng.random(M - 1)
            j = int(rng.integers(0, M))
            hist = GameHistory(np.append(xs[:j], rng.random()), ys[:j])
            pool = rng.random(M)
            d = draw_halluc(pool, int(rng.integers(0, M)), rng)
            config = PredictorConfig(horizon=M)

            yhat = predict_general(hist, d, cls, config)

            fine = np.arange(0.0, 1.0001, 0.01)
            sups = np.array([inner_sup(hist, d, float(y), cls, config) for y in fine])

            def phi(v):
                return float(np.max(np.abs(v - fine) + sups))

            grid_min = min(phi(v) for v in fine)
            assert phi(yhat) <= grid_min + 2.0 / math.sqrt(M) + 1e-9

    def test_absolute_loss_step_is_exact(self):
        # phi is convex piecewise linear, so no yhat on a dense grid beats the
        # exact minimizer; the ternary search it replaced missed by up to 0.22
        rng = np.random.default_rng(17)
        dense = np.linspace(0.0, 1.0, 20001)
        for _ in range(150):
            M = int(rng.integers(1, 41))
            consts = [float(c) for c in rng.random(int(rng.integers(1, 6)))]
            cls = FiniteClass.from_constants(consts) if rng.random() < 0.5 else FiniteClass(
                [(lambda a: (lambda x: float(x >= a)))(a) for a in consts], binary=True
            )
            j = int(rng.integers(0, M))
            xs, ys = rng.random(j), rng.random(j)
            hist = GameHistory(np.append(xs, rng.random()), ys)
            d = draw_halluc(rng.random(M), M - 1 - j, rng)
            config = PredictorConfig(horizon=M)

            yhat = predict_general(hist, d, cls, config)

            grid = np.append(np.arange(0.0, 1.0, config.y_grid_step), 1.0)
            sups = inner_sups(hist, d, grid, cls, config)

            def phi(v):
                return np.max(np.abs(np.asarray(v)[..., None] - grid) + sups, axis=-1)

            assert 0.0 <= yhat <= 1.0
            assert phi(yhat) <= phi(dense).min() + 1e-12

    def test_call_budget(self):
        rng = np.random.default_rng(9)
        for M in (1, 4, 9, 25):
            cls = ThresholdClass()
            pool = rng.random(M)
            hist = GameHistory(np.array([0.5, rng.random()]), np.array([1.0]))
            d = draw_halluc(pool, M - 1, rng)
            before = cls.solve_calls
            predict_general(hist, d, cls, PredictorConfig(horizon=M))
            assert cls.solve_calls - before <= math.ceil(math.sqrt(M)) + 2


class TestPredictBinaryFast:
    def test_symmetry(self):
        cls = FiniteClass.from_constants([0.0, 1.0])
        hist = GameHistory(np.array([0.5]), np.array([]))
        d = draw_halluc(np.empty(0), 0, np.random.default_rng(0))
        yhat = predict_binary_fast(hist, d, cls, PredictorConfig(horizon=2))
        assert yhat == pytest.approx(0.5)  # G(0) = G(1) = 0 here

    def test_exactly_two_calls(self):
        cls = ThresholdClass()
        hist = GameHistory(np.array([0.3, 0.7]), np.array([0.0]))
        pool = np.array([0.2, 0.8])
        d = draw_halluc(pool, 2, np.random.default_rng(1))
        before = cls.solve_calls
        predict_binary_fast(hist, d, cls, PredictorConfig(horizon=4))
        assert cls.solve_calls - before == 2

    def test_rejects_custom_loss(self):
        hist = GameHistory(np.array([0.5]), np.array([]))
        d = draw_halluc(np.empty(0), 0, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="absolute loss"):
            predict_binary_fast(hist, d, ThresholdClass(), PredictorConfig(horizon=2, loss=SQUARED_LOSS))

    def test_matches_general_in_phi_value(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            M = int(rng.integers(1, 6))
            cls = ThresholdClass()
            j = int(rng.integers(0, M))
            xs, ys = rng.random(j), rng.integers(0, 2, j).astype(float)
            hist = GameHistory(np.append(xs, rng.random()), ys)
            pool = rng.random(M)
            d = draw_halluc(pool, M - 1 - j if M - 1 - j > 0 else 0, rng)
            config = PredictorConfig(horizon=M, yhat_tolerance=1e-3)

            fast = predict_binary_fast(hist, d, cls, config)
            slow = predict_general(hist, d, cls, config)
            g0 = inner_sup(hist, d, 0.0, cls, config)
            g1 = inner_sup(hist, d, 1.0, cls, config)

            def phi(v):
                return max(v + g0, 1.0 - v + g1)

            assert phi(fast) <= phi(slow) + config.yhat_tolerance + 1e-9


IDENTITY_CLASSES = {
    "threshold": ThresholdClass,
    "interval": lambda: IntervalClass(0.2),
    "constants": lambda: FiniteClass.from_constants([0.15, 0.5, 0.8]),
    # clipped ramps clip(s * (x - c)) of slopes of either sign
    "ramps": lambda: FiniteClass(
        [(lambda s, c: (lambda x: min(1.0, max(0.0, s * (x - c)))))(s, c) for s, c in ((2.0, 0.3), (-3.0, 0.7), (0.5, 0.0))]
    ),
    "lipschitz": LipschitzClass,
}


def absolute_loss_instance(rng, kind):
    """A random absolute-loss round: a class, a history with labels anywhere in
    [0,1] (some exactly 0 or 1), a draw and its config."""
    M = int(rng.integers(1, 9))
    j = int(rng.integers(1, M + 1))
    ys = rng.random(j - 1)
    ys[rng.random(j - 1) < 0.25] = rng.integers(0, 2)
    hist = GameHistory(rng.random(j), ys)
    d = draw_halluc(rng.random(M), M - j, rng)
    return IDENTITY_CLASSES[kind](), hist, d, PredictorConfig(horizon=M)


class TestAbsoluteLossIdentity:
    """Under the absolute loss the label sup of |yhat - y| + G(y) is reached at
    y = 0 or 1, for any [0,1]-valued class and any labels in [0,1], so the
    grid minimax equals the 2-call prediction."""

    @staticmethod
    def check(rng, kind):
        cls, hist, d, config = absolute_loss_instance(rng, kind)
        fast = predict_binary_fast(hist, d, cls, config)
        assert abs(predict_general(hist, d, cls, config) - fast) <= 1e-12
        labels = np.union1d(np.linspace(0.0, 1.0, 33), np.append(np.arange(0.0, 1.0, config.y_grid_step), 1.0))
        sups = inner_sups(hist, d, labels, cls, config)
        g0, g1 = sups[0], sups[-1]
        for yhat in (0.0, 0.1, 0.37, 0.5, 0.83, 1.0, fast):
            assert abs(np.max(np.abs(yhat - labels) + sups) - max(yhat + g0, 1.0 - yhat + g1)) <= 1e-12

    @pytest.mark.parametrize("kind", list(IDENTITY_CLASSES))
    def test_fixed_seed(self, kind):
        rng = np.random.default_rng(41)
        for _ in range(40):
            self.check(rng, kind)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(list(IDENTITY_CLASSES)))
    def test_random_instances(self, seed, kind):
        self.check(np.random.default_rng(seed), kind)


def epoch_rounds(rng, M, pool_size, binary=True):
    """An epoch's feature and label arrays, a pool, and each round's draw in
    order, as a (halluc, signs) pair."""
    xs = rng.random(M)
    ys = rng.integers(0, 2, M).astype(float) if binary else rng.random(M)
    pool = rng.random(pool_size)
    js = list(range(1, M + 1))
    draws = [draw_halluc(pool, min(M - j, len(pool)), rng) for j in js]
    return xs, ys, js, [(d.halluc, d.signs) for d in draws]


class TestPredictBinaryFastBatch:
    """The batched fast path equals predict_binary_fast round by round, bit for bit."""

    @pytest.mark.parametrize("make", [ThresholdClass, lambda: IntervalClass(0.25)], ids=["threshold", "interval"])
    def test_equals_per_round_fast_path(self, make):
        rng = np.random.default_rng(21)
        for trial in range(40):
            # two epochs of one game, after a NaN stretch that no round may read
            epochs = [epoch_rounds(rng, int(rng.integers(1, 14)), int(rng.integers(0, 16)), binary=trial % 4 != 3)
                      for _ in range(2)]
            gap = int(rng.integers(0, 3))
            xs = np.concatenate([np.full(gap, np.nan), epochs[0][0], epochs[1][0]])
            ys = np.concatenate([np.full(gap, np.nan), epochs[0][1], epochs[1][1]])
            starts = [gap, gap + len(epochs[0][0])]
            if trial % 5 == 0:
                xs[rng.integers(gap, len(xs))] = 1.0  # positions at exactly 1 and duplicates
                xs[rng.integers(gap, len(xs))] = xs[gap]
            rounds = [(lo, j, *d) for lo, (_, _, js, draws) in zip(starts, epochs) for j, d in zip(js, draws)]
            rounds = [rounds[i] for i in rng.permutation(len(rounds))]  # rounds in any order, epochs mixed
            cls = make()
            batched = predict_binary_fast_batch(xs, *label_sums(ys, starts), rounds, cls)
            assert cls.solve_calls == 2 * len(rounds)
            for (lo, j, *d), yhat in zip(rounds, batched.tolist()):
                history = GameHistory(xs[lo : lo + j], ys[lo : lo + j - 1])
                assert yhat == predict_binary_fast(history, RelaxationDraw(*d), make(), PredictorConfig(horizon=13))

    def test_split_batches_agree(self, monkeypatch):
        import relaxplay.predictor as predictor

        rng = np.random.default_rng(5)
        xs, ys, js, draws = epoch_rounds(rng, 30, 40)
        sums, flips = label_sums(ys, [0])
        rounds = [(0, j, *d) for j, d in zip(js, draws)]
        whole = predict_binary_fast_batch(xs, sums, flips, rounds, ThresholdClass())
        monkeypatch.setattr(predictor, "MAX_BATCH_ELEMENTS", 100)
        cls, sizes = ThresholdClass(), []
        solve_rows = cls.solve_rows

        def recorded(base, pos, dlt):
            sizes.append(pos.shape)
            return solve_rows(base, pos, dlt)

        cls.solve_rows = recorded
        assert predict_binary_fast_batch(xs, sums, flips, rounds, cls).tolist() == whole.tolist()
        assert cls.solve_calls == 60 == sum(rows for rows, _ in sizes)
        assert max(rows * n for rows, n in sizes) <= 100

    def test_boundary_errors(self):
        rng = np.random.default_rng(2)
        xs, ys, js, draws = epoch_rounds(rng, 6, 6)
        sums, flips = label_sums(ys, [0])
        rounds = [(0, j, *d) for j, d in zip(js, draws)]
        with pytest.raises(ConfigError):
            predict_binary_fast_batch(xs, sums, flips, rounds, FiniteClass.from_constants([0.3]))
        # a {0,1}-valued class has no solve_rows either: the guard reads solve_rows, not is_binary
        binary = FiniteClass.from_constants([0.0, 1.0])
        with pytest.raises(ConfigError, match="solve_rows"):
            predict_binary_fast_batch(xs, sums, flips, rounds, binary)
        slots, signs = np.zeros((1, 2), dtype=np.intp), np.ones((1, 2))
        with pytest.raises(ConfigError, match="solve_rows"):
            predict_binary_fast_block(xs, sums, flips, 0, 3, xs, slots, signs, binary)
        # the class is checked first: with no rounds, and before the feature shape
        with pytest.raises(ConfigError):
            predict_binary_fast_batch(xs, sums, flips, [], FiniteClass.from_constants([0.3]))
        with pytest.raises(ConfigError):
            predict_binary_fast_batch(
                np.stack([xs, xs], axis=1), sums, flips, rounds[:1], FiniteClass.from_constants([0.3])
            )
        # a custom loss, and a class without solve_rows, stay off the row route
        assert row_route(ThresholdClass(), ABSOLUTE_LOSS)
        assert not row_route(ThresholdClass(), SQUARED_LOSS) and not row_route(binary, ABSOLUTE_LOSS)
        assert predict_binary_fast_batch(xs, sums, flips, [], ThresholdClass()).shape == (0,)
        bad = xs.copy()
        bad[2] = np.nan
        with pytest.raises(InputDomainError):
            predict_binary_fast_batch(bad, sums, flips, rounds, ThresholdClass())
        with pytest.raises(UnsupportedClassError):
            predict_binary_fast_batch(np.stack([xs, xs], axis=1), sums, flips, rounds[:1], ThresholdClass())


class TestRelaxations:
    def test_terminal_slot_deterministic(self):
        cls = FiniteClass.from_constants([0.5])
        history = (np.array([0.3]), np.array([1.0]))
        config = PredictorConfig(horizon=1)
        mean, se = relaxation_R(1, history, np.empty(0), cls, config, 1, np.random.default_rng(0))
        assert mean == pytest.approx(-0.5) and se == 0.0

    def test_singleton_signs_mean_out(self):
        cls = FiniteClass.from_constants([0.5])
        history = (np.array([0.3, 0.9]), np.array([1.0, 0.0]))
        pool = np.array([0.1, 0.2, 0.6, 0.7])
        config = PredictorConfig(horizon=4)
        mean, se = relaxation_R(2, history, pool, cls, config, 4000, np.random.default_rng(1))
        # sup_h = 2*sum(eps)*0.5 - L_2 with L_2 = 0.5 + 0.5
        assert mean == pytest.approx(-1.0, abs=4 * se + 1e-3)

    def test_two_constants_last_slot(self):
        # j = M-1, empty history: E max(0, 2*eps) = 1
        cls = FiniteClass.from_constants([0.0, 1.0])
        pool = np.array([0.5])
        config = PredictorConfig(horizon=2)
        mean, se = relaxation_R(1, (np.empty(0), np.empty(0)), pool, cls, config, 4000, np.random.default_rng(2))
        assert mean == pytest.approx(1.0, abs=4 * se + 1e-9)

    def test_rtilde_matches_r_on_singleton_pool(self):
        from relaxplay import FeatureDistribution

        cls = ThresholdClass()
        pool = np.array([0.4])
        env = FeatureDistribution.point_mass(0.4)
        config = PredictorConfig(horizon=2)
        rng = np.random.default_rng(3)
        history = (np.array([0.4]), np.array([1.0]))
        r, se_r = relaxation_R(1, history, pool, cls, config, 2000, rng)
        rt, se_t = relaxation_R(1, history, pool, cls, config, 2000, rng, true_env=env)
        assert rt == pytest.approx(r, abs=3 * math.sqrt(se_r**2 + se_t**2) + 1e-9)


class TestFEval:
    def test_singleton_constant_in_x(self):
        cls = FiniteClass.from_constants([0.7])
        vals = [
            f_eval((np.array([0.5]), np.array([1.0])), (), (-1,), x, cls) for x in (0.1, 0.5, 0.9)
        ]
        assert max(vals) - min(vals) == pytest.approx(0.0)

    def test_threshold_hand_enumeration(self):
        cls = ThresholdClass()
        history = (np.array([0.5]), np.array([1.0]))
        assert f_eval(history, (), (-1,), 0.3, cls) == pytest.approx(0.0)
        assert f_eval(history, (), (-1,), 0.7, cls) == pytest.approx(-1.0)
        assert f_eval(history, (), (-1,), 1.0, cls) == pytest.approx(-2.0)

    def test_spread_bounded_by_4L(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            cls = ThresholdClass()
            j = int(rng.integers(0, 4))
            history = (rng.random(j), rng.random(j))
            tail = tuple(float(v) for v in rng.random(int(rng.integers(0, 3))))
            signs = tuple(int(s) for s in rng.integers(0, 2, len(tail) + 1) * 2 - 1)
            vals = [
                f_eval(history, tail, signs, float(x), cls)
                for x in np.arange(0.0, 1.0001, 0.05)
            ]
            assert max(vals) - min(vals) <= 4.0 + 1e-9

    def test_length_validation(self):
        cls = ThresholdClass()
        with pytest.raises(ConfigError):
            f_eval((np.empty(0), np.empty(0)), (0.5,), (-1,), 0.3, cls)
