import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaxplay import (
    ConfigError,
    EpochClock,
    EpochSchedule,
    FeatureDistribution,
    FiniteClass,
    ObliviousAdversary,
    RunConfig,
    ThresholdClass,
    alpha_from_q,
    epoch_length,
    run_epoch_predictor,
)
from relaxplay.environment import constant as constant_adversary
from relaxplay.epochs import play_rounds
from references import label_sums, locate


class TestAlphaFromQ:
    def test_examples(self):
        assert alpha_from_q(0.5) == pytest.approx(1.0)
        assert alpha_from_q(0.75) == pytest.approx(2.0)

    def test_domain(self):
        with pytest.raises(ConfigError):
            alpha_from_q(0.4)
        with pytest.raises(ConfigError):
            alpha_from_q(1.0)

    def test_cap(self):
        # 1/(2(1-q)) > 8 once q > 15/16
        with pytest.raises(ConfigError):
            alpha_from_q(0.95)


class TestScheduleArithmetic:
    def test_linear_examples(self):
        sched = EpochSchedule("polynomial", alpha=1.0)
        assert [epoch_length(sched, n) for n in (1, 2, 3, 4)] == [1, 2, 3, 4]
        idx = locate(sched, 7)
        assert (idx.n, idx.j, idx.start) == (4, 1, 6)
        idx = locate(sched, 1)
        assert (idx.n, idx.j, idx.start) == (1, 1, 0)

    def test_round_half_up(self):
        sched = EpochSchedule("polynomial", alpha=1.5)
        # 2^1.5 = 2.828 -> 3, 3^1.5 = 5.196 -> 5
        assert epoch_length(sched, 2) == 3
        assert epoch_length(sched, 3) == 5

    def test_locate_round_trip(self):
        rng = np.random.default_rng(0)
        for kind, kwargs in [
            ("polynomial", {"alpha": 2.0}),
            ("geometric", {"ratio": 1.5}),
            ("fixed", {"block": 7}),
        ]:
            sched = EpochSchedule(kind, **kwargs)
            for t in rng.integers(1, 2000, 25):
                idx = locate(sched, int(t))
                assert idx.start + idx.j == int(t)
                assert 1 <= idx.j <= epoch_length(sched, idx.n)
                assert idx.start == sum(
                    epoch_length(sched, k) for k in range(1, idx.n)
                )

    def test_geometric_prefix_identities(self):
        # pre-rounding: sum_{k<n} 1.5^k = 2*1.5^n - 3; for ratio 2, M(n) - 2
        for n in range(2, 12):
            assert sum(1.5**k for k in range(1, n)) == pytest.approx(2 * 1.5**n - 3)
            assert sum(2.0**k for k in range(1, n)) == pytest.approx(2.0**n - 2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            EpochSchedule("geometric", ratio=1.0)
        with pytest.raises(ConfigError):
            EpochSchedule("fixed", block=0)
        with pytest.raises(ConfigError):
            EpochSchedule("nope")
        with pytest.raises(ConfigError):
            locate(EpochSchedule("fixed", block=2), 0)

    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("geometric", {"ratio": math.nan}),
            ("geometric", {"ratio": math.inf}),
            ("fixed", {"block": math.nan}),
            ("fixed", {"block": math.inf}),
            ("polynomial", {"alpha": math.nan}),
        ],
    )
    def test_non_finite_parameters_rejected(self, kind, kwargs):
        with pytest.raises(ConfigError):
            EpochSchedule(kind, **kwargs)


class TestEpochClock:
    """The clock walks the epochs exactly as `locate` places each round."""

    SCHEDULES = {
        "poly1": EpochSchedule("polynomial", alpha=1.0),
        "poly1.5": EpochSchedule("polynomial", alpha=1.5),
        "poly2": EpochSchedule("polynomial", alpha=2.0),
        "geometric": EpochSchedule("geometric", ratio=1.5),
        "fixed": EpochSchedule("fixed", block=7),
    }

    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    @pytest.mark.parametrize("block", [2000, 97], ids=["one_segment", "restart_every_97"])
    def test_walk_equals_locate(self, schedule, block):
        # a restart every `block` rounds, as run_shifting restarts per block
        sched, T = self.SCHEDULES[schedule], 2000
        drift = ref_drift = 0.0
        shortfall = ref_shortfall = 0
        for first in range(0, T, block):
            clock = EpochClock(sched)
            for t in range(1, min(block, T - first) + 1):
                idx = locate(sched, t)
                m = epoch_length(sched, idx.n)
                assert clock.tick() == (idx.j == 1)
                assert (clock.n, clock.j, clock.start) == (idx.n, idx.j, idx.start)
                assert clock.length == m
                assert clock.count == min(m - idx.j, idx.start)
                ref_shortfall += idx.start < m - idx.j
            drift += clock.drift
            shortfall += clock.shortfall
            ref_drift += sum(abs(epoch_length(sched, k) - sched.exact_length(k)) for k in range(1, idx.n + 1))
        assert shortfall == ref_shortfall
        assert drift == ref_drift
        assert (shortfall == 0) == (schedule == "poly1")  # only the linear schedule's pool keeps up

    def test_drift_before_the_first_round(self):
        clock = EpochClock(EpochSchedule("geometric", ratio=1.5))
        assert (clock.n, clock.j, clock.start, clock.length) == (1, 0, 0, 2)
        assert clock.drift == 0.5 and clock.shortfall == 0


class TestRunConfig:
    @pytest.mark.parametrize("probe_mc", [0, -1, 1.5, 2.0, True, "3", None])
    def test_probe_mc_must_be_a_positive_integer(self, probe_mc):
        with pytest.raises(ConfigError, match="probe_mc"):
            RunConfig(probe_mc=probe_mc)

    def test_probe_mc_accepts_integers(self):
        assert RunConfig(probe_mc=1).probe_mc == 1
        assert RunConfig(probe_mc=np.int64(3)).probe_mc == 3


class TestRunEpochPredictor:
    def _run(self, cls, adversary, T, seed=0, **kwargs):
        from relaxplay import ABSOLUTE_LOSS

        env = FeatureDistribution.uniform()
        sched = EpochSchedule("polynomial", alpha=1.0)
        config = RunConfig(seed=seed, **kwargs)
        return run_epoch_predictor(sched, cls, ABSOLUTE_LOSS, env, adversary, T, config)

    def test_single_round_symmetric_prediction(self):
        cls = FiniteClass.from_constants([0.0, 1.0])
        trace = self._run(cls, constant_adversary(1.0), 1)
        assert trace.column("yhat")[0] == pytest.approx(0.5, abs=1e-3)

    def test_singleton_class_low_regret(self):
        # one expert: prediction tracks it, regret stays near zero
        cls = FiniteClass.from_constants([1.0])
        trace = self._run(cls, constant_adversary(1.0), 40)
        assert trace.final_regret == pytest.approx(0.0, abs=0.05)

    def test_trace_shape_and_prefix_sums(self):
        cls = ThresholdClass()
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5))
        trace = self._run(cls, adversary, 30)
        assert len(trace.rows) == 30
        trace.check_prefix_sums()
        assert trace.metadata["T"] == 30
        assert trace.metadata["adversary"] == "oblivious"

    def test_determinism(self):
        cls = ThresholdClass()
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5))
        a = self._run(cls, adversary, 25, seed=3)
        b = self._run(cls, adversary, 25, seed=3)
        assert a.rows == b.rows
        c = self._run(cls, adversary, 25, seed=4)
        assert a.rows != c.rows

    def test_epoch_columns(self):
        cls = ThresholdClass()
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5))
        trace = self._run(cls, adversary, 7)
        assert list(trace.column("epoch")) == [1, 2, 2, 3, 3, 3, 4]
        assert list(trace.column("j")) == [1, 1, 2, 1, 2, 3, 1]

    def test_erm_calls_fast_path(self):
        cls = ThresholdClass()
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5))
        trace = self._run(cls, adversary, 12)
        assert all(c == 2 for c in trace.column("erm_calls"))

    @pytest.mark.parametrize("T", [2.5, True, 0, -3, "8", None])
    def test_T_must_be_a_positive_integer(self, T):
        # checked at the entry of the game loop, before any feature is drawn
        from relaxplay import ABSOLUTE_LOSS

        env = FeatureDistribution.uniform()
        sched = EpochSchedule("polynomial", alpha=1.0)
        adversary = constant_adversary(1.0)
        with pytest.raises(ConfigError, match="T must be a positive integer"):
            play_rounds(sched, ThresholdClass(), ABSOLUTE_LOSS, env, adversary, T, 4, RunConfig())
        with pytest.raises(ConfigError, match="T must be a positive integer"):
            self._run(ThresholdClass(), adversary, T)

    def test_drift_metadata(self):
        cls = FiniteClass.from_constants([0.5])
        env = FeatureDistribution.uniform()
        from relaxplay import ABSOLUTE_LOSS

        sched = EpochSchedule("geometric", ratio=1.5)
        trace = run_epoch_predictor(
            sched, cls, ABSOLUTE_LOSS, env, constant_adversary(0.5), 20, RunConfig(seed=0)
        )
        assert "rounding_drift" in trace.metadata


def expected_shortfall(schedule, T):
    """Rounds t <= T whose draw wants more hallucinations than the pool holds."""
    count = 0
    for t in range(1, T + 1):
        idx = locate(schedule, t)
        count += idx.start < epoch_length(schedule, idx.n) - idx.j
    return count


class TestHallucinationShortfall:
    def _run(self, sched, adversary, T, **kwargs):
        from relaxplay import ABSOLUTE_LOSS

        return run_epoch_predictor(
            sched, ThresholdClass(), ABSOLUTE_LOSS, FeatureDistribution.uniform(),
            adversary, T, RunConfig(seed=0, **kwargs),
        )

    def test_counted_in_metadata(self):
        sched = EpochSchedule("geometric", ratio=1.5)
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5))
        trace = self._run(sched, adversary, 40)
        # epoch 1 (length 2) starts with an empty pool, so its first round falls short
        assert trace.metadata["halluc_shortfall"] == expected_shortfall(sched, 40) > 0

    def test_probe_draws_not_counted(self):
        from relaxplay.environment import flip_to_far

        sched = EpochSchedule("geometric", ratio=1.5)
        trace = self._run(sched, flip_to_far(), 30, probe_mc=3)
        assert trace.metadata["halluc_shortfall"] == expected_shortfall(sched, 30)

    def test_blocked_game_sums_its_blocks(self):
        # each block restarts the schedule; the metadata adds the blocks' shortfalls and drifts in block order
        from relaxplay import ABSOLUTE_LOSS, block_length, run_shifting

        sched, T, K = EpochSchedule("geometric", ratio=1.5), 50, 3
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5))
        trace = run_shifting(
            ThresholdClass(), ABSOLUTE_LOSS, FeatureDistribution.uniform(), adversary, T, K, sched, RunConfig(seed=0)
        )
        lengths = [min(block_length(T, K), T - first) for first in range(0, T, block_length(T, K))]
        clocks = [EpochClock(sched) for _ in lengths]
        for clock, length in zip(clocks, lengths):
            for _ in range(length):
                clock.tick()
        assert len(lengths) > 2 and len(set(lengths)) == 2  # a shorter last block
        assert trace.metadata["halluc_shortfall"] == sum(expected_shortfall(sched, n) for n in lengths)
        assert trace.metadata["rounding_drift"] == sum(clock.drift for clock in clocks) > 0.0

    def test_linear_schedule_never_falls_short(self):
        sched = EpochSchedule("polynomial", alpha=1.0)
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5))
        assert self._run(sched, adversary, 30).metadata["halluc_shortfall"] == 0

    def test_kept_out_of_the_csv(self, tmp_path):
        sched = EpochSchedule("geometric", ratio=1.5)
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5))
        trace = self._run(sched, adversary, 10)
        trace.to_csv(tmp_path / "t.csv")
        text = (tmp_path / "t.csv").read_text()
        assert "shortfall" not in text and "drift" not in text


def per_round_reference(schedule, cls, loss, env, adversary, T, config, block=None):
    """Trace rows of the game played one round at a time: sample, predict, emit.

    The predictor restarts every `block` rounds (never, by default). Each
    round rebuilds its pool and history from the features and labels played,
    and draws from the game's per-stream generators in round order; a probe
    draws on its round's first call and returns that value on every call.
    """
    from relaxplay import (
        GameHistory, PredictorConfig, best_in_hindsight, draw_halluc, loss_eval,
        predict_binary_fast, predict_general, sample_feature,
    )

    block = block or T
    predict = predict_binary_fast if loss.kind == "absolute" else predict_general
    xs, ys, yhats, losses, meta = [], [], [], [], []
    features, draws, probes, noise = (np.random.default_rng([config.seed, stream]) for stream in (1, 2, 3, 4))
    for t in range(1, T + 1):
        first = (t - 1) // block * block  # index of the block's first round
        idx = locate(schedule, t - first)
        M = epoch_length(schedule, idx.n)
        pool = np.array(xs[first : first + idx.start])
        x_t = sample_feature(env, t, features)
        hist = GameHistory(np.array(xs[first + idx.start :] + [x_t]), np.array(ys[first + idx.start :]))
        pconf = PredictorConfig(horizon=M, loss=loss)

        def predict_on(rng, c):
            return predict(hist, draw_halluc(pool, min(M - idx.j, len(pool)), rng), c, pconf)

        probed = []  # the round's probe value, once drawn

        def probe():
            if not probed:
                c = cls.clone()
                probed.append(float(np.mean([predict_on(probes, c) for _ in range(config.probe_mc)])))
            return probed[0]

        before = cls.solve_calls
        yhat = predict_on(draws, cls)
        meta.append((first // block + 1, idx.n, idx.j, cls.solve_calls - before))
        oblivious = adversary.kind == "oblivious"
        history = np.array(xs, dtype=float).reshape(len(xs), *np.shape(x_t)), np.array(ys, dtype=float)
        y_t = adversary.emit(t, history, x_t, None if oblivious else probe, noise)
        xs.append(x_t)
        ys.append(y_t)
        yhats.append(yhat)
        losses.append(loss_eval(loss, yhat, y_t))

    comparator = cls.clone()
    h_star, _ = best_in_hindsight(comparator, loss=loss, xs=np.array(xs), ys=np.array(ys))
    rows, cum_loss, cum_comp = [], 0.0, 0.0
    for t in range(1, T + 1):
        block_no, n, j, erm_calls = meta[t - 1]
        x, y = xs[t - 1], ys[t - 1]
        cum_loss += losses[t - 1]
        cum_comp += loss_eval(loss, comparator.evaluate(h_star, x), y)
        rows.append(
            (t, block_no, n, j, float(x), y, yhats[t - 1], losses[t - 1], cum_loss, cum_loss - cum_comp, erm_calls)
        )
    return rows


def reference_online_rows(cls, loss, played):
    """`online_trace`'s rows as its per-round loop built them: running sums
    of Python floats, and each feature formatted on its own."""
    from relaxplay import best_in_hindsight, loss_eval

    comparator = cls.clone()
    h_star, _ = best_in_hindsight(comparator, loss=loss, xs=played.xs, ys=played.ys)
    rows, cum_loss, cum_comp = [], 0.0, 0.0
    for t in range(1, len(played.ys) + 1):
        x = played.xs[t - 1] if played.xs.ndim == 2 else float(played.xs[t - 1])
        y, yhat, loss_t = (float(column[t - 1]) for column in (played.ys, played.yhats, played.losses))
        block, n, j, _, _, erm_calls = (int(v) for v in played.meta[t - 1])
        cum_loss += loss_t
        cum_comp += loss_eval(loss, comparator.evaluate(h_star, x), y)
        x_repr = ";".join(repr(float(v)) for v in x) if isinstance(x, np.ndarray) else x
        rows.append((t, block, n, j, x_repr, y, yhat, loss_t, cum_loss, cum_loss - cum_comp, erm_calls))
    return rows


class TestOnlineTrace:
    """The trace's columns, built from one running total each, equal the
    per-round loop's rows in value and type; the epoch pools are views of
    the game's one feature array."""

    @staticmethod
    def game(name):
        from relaxplay import ABSOLUTE_LOSS, LossFn, noisy_target

        if name == "scalar":  # in blocks of 7 rounds, as the shifting runner plays
            adversary = noisy_target(lambda x: float(x >= 0.4), 0.2)
            return ThresholdClass(), ABSOLUTE_LOSS, FeatureDistribution.uniform(), adversary, 7
        if name == "vector":
            cls = FiniteClass([lambda x: float(x[0] >= 0.5), lambda x: float(x[1] >= 0.5)], binary=True)
            env = FeatureDistribution.product([FeatureDistribution.uniform(), FeatureDistribution.uniform()])
            return cls, ABSOLUTE_LOSS, env, noisy_target(lambda x: float(x[0] >= 0.5), 0.1), None
        squared = LossFn("custom", lipschitz=2.0, evaluator=lambda p, y: (p - y) ** 2)
        labels = ObliviousAdversary(lambda t, x, rng: float(rng.random()))
        return FiniteClass.from_constants([0.0, 0.4, 1.0]), squared, FeatureDistribution.uniform(), labels, None

    @pytest.mark.parametrize("name", ["scalar", "vector", "custom_loss"])
    def test_rows_equal_per_round_loop(self, name):
        from relaxplay.epochs import online_trace

        cls, loss, env, adversary, block = self.game(name)
        schedule, T = EpochSchedule("geometric", ratio=1.5), 20
        played = play_rounds(schedule, cls, loss, env, adversary, T, block or T, RunConfig(seed=7))
        trace, comparator = online_trace(cls, loss, played)
        reference = reference_online_rows(cls, loss, played)
        assert trace.rows == reference
        assert [tuple(map(type, r)) for r in trace.rows] == [tuple(map(type, r)) for r in reference]
        assert comparator.solve_calls == 1 and played.meta[-1, 0] == (3 if block else 1)


class TestAdversaryHistory:
    @pytest.mark.parametrize("features", ["scalar", "vector"])
    def test_adaptive_adversary_reads_read_only_views_of_the_game(self, features):
        # round t's history holds exactly the t-1 rounds the game has written, and no write goes through
        from relaxplay import ABSOLUTE_LOSS, AdaptiveAdversary

        uniform = FeatureDistribution.uniform()
        if features == "scalar":
            cls, env = ThresholdClass(), uniform
        else:
            cls = FiniteClass([lambda x: float(x[0] >= 0.5), lambda x: float(x[1] >= 0.5)], binary=True)
            env = FeatureDistribution.product([uniform, uniform])
        seen = []

        def fn(t, history, x_t, probe, rng):
            seen.append(tuple(view.copy() for view in history))
            for view in history:
                with pytest.raises(ValueError, match="read-only"):
                    view[...] = 0.5
            contexts.append(x_t)
            return 1.0 if probe() < 0.5 else 0.0

        T, contexts = 12, []
        played = play_rounds(
            EpochSchedule("geometric", ratio=1.5), cls, ABSOLUTE_LOSS, env, AdaptiveAdversary(fn), T, T,
            RunConfig(seed=3, probe_mc=2),
        )
        assert len(seen) == T and played.xs.ndim == (1 if features == "scalar" else 2)
        for t, (xs, ys) in enumerate(seen, 1):
            assert xs.dtype == ys.dtype == np.float64
            assert xs.shape == played.xs[: t - 1].shape and ys.shape == (t - 1,)
            assert np.array_equal(xs, played.xs[: t - 1]) and np.array_equal(ys, played.ys[: t - 1])
        # x_t is xs[t-1] of the one read-only feature array: an np.float64, or a read-only row of it
        assert not played.xs.flags.writeable
        for t, x_t in enumerate(contexts, 1):
            if features == "scalar":
                assert type(x_t) is np.float64 and x_t == played.xs[t - 1]
            else:
                assert x_t.base is played.xs and not x_t.flags.writeable
                assert np.array_equal(x_t, played.xs[t - 1])


def _threshold_labels(t, x, rng):
    return 1.0 if x >= 0.5 else 0.0


def _chunk_configs():
    from relaxplay import AdaptiveAdversary, IntervalClass, SemiAdaptiveAdversary, noisy_target
    from relaxplay.environment import comparator_squeeze, flip_to_far

    poly = EpochSchedule("polynomial", alpha=1.0)
    geo = EpochSchedule("geometric", ratio=1.5)  # short pools: rows of mixed length
    noisy = lambda: noisy_target(lambda x: float(x >= 0.4), 0.2)  # noqa: E731
    return {
        "oblivious": (poly, ThresholdClass, noisy, 60, {}),
        "oblivious_interval_geometric": (geo, lambda: IntervalClass(0.25), noisy, 45, {}),
        "semi_adaptive": (
            geo, ThresholdClass,
            lambda: SemiAdaptiveAdversary(2, lambda t, feats, rng: float(feats[0] >= 0.5)),
            30, {},
        ),
        "flip_to_far": (geo, ThresholdClass, flip_to_far, 30, {"probe_mc": 3}),
        "comparator_squeeze": (poly, ThresholdClass, lambda: comparator_squeeze(ThresholdClass()), 30, {"probe_mc": 2}),
        # fractional labels on the batched route and the probe block: the label is the probed mean prediction
        "fractional_interval": (
            geo, lambda: IntervalClass(0.25),
            lambda: AdaptiveAdversary(lambda t, history, x_t, probe, rng: probe()), 30, {"probe_mc": 3},
        ),
        "general_finite": (
            poly, lambda: FiniteClass.from_constants([0.0, 0.4, 1.0]),
            lambda: ObliviousAdversary(lambda t, x, rng: float(rng.random())), 12, {},
        ),
        "fast_finite_no_batch": (
            geo, lambda: FiniteClass([lambda x: float(x >= 0.3), lambda x: float(x >= 0.7)], binary=True),
            noisy, 25, {},
        ),
    }


def expected_batches(schedule, T, block, max_elements):
    """The rounds in each batch of a game whose predictor restarts every
    `block` rounds: a batch closes when the next round's 2 rows of j +
    count elements would take it past `max_elements`, and at the end."""
    batches, rounds, elements = [], 0, 0
    for first in range(0, T, block):
        clock = EpochClock(schedule)
        for _ in range(min(block, T - first)):
            clock.tick()
            size = 2 * (clock.j + clock.count)
            if rounds and elements + size > max_elements:
                batches.append(rounds)
                rounds = elements = 0
            rounds, elements = rounds + 1, elements + size
    return batches + [rounds]


PLAY_SCHEDULES = {
    "linear": EpochSchedule("polynomial", alpha=1.0),
    "poly1.5": EpochSchedule("polynomial", alpha=1.5),
    "geometric": EpochSchedule("geometric", ratio=1.5),  # short pools: rows of mixed length
    "fixed": EpochSchedule("fixed", block=4),
}


def _play_class(kind):
    from relaxplay import IntervalClass

    return {
        "threshold": ThresholdClass,
        "interval": lambda: IntervalClass(0.25),
        "finite_fast": lambda: FiniteClass([lambda x: float(x >= 0.3), lambda x: float(x >= 0.7)], binary=True),
        "general": lambda: FiniteClass.from_constants([0.0, 0.4, 1.0]),
    }[kind]()


class TestChunkedPlay:
    """Queued play (rounds predicted in batches that cross epoch and block
    ends) gives exactly the rows of round-by-round play."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        schedule=st.sampled_from(list(PLAY_SCHEDULES)),
        T=st.integers(1, 40),
        K=st.integers(1, 6),
        max_elements=st.integers(1, 120),
        adversary=st.sampled_from(["oblivious", "flip_to_far"]),
        kind=st.sampled_from(["threshold", "interval", "finite_fast", "general"]),
    )
    def test_batches_equal_per_round_reference(self, seed, schedule, T, K, max_elements, adversary, kind):
        import relaxplay.epochs as epochs
        import relaxplay.predictor as predictor
        from relaxplay import ABSOLUTE_LOSS, ShiftingProcess, block_length, noisy_target, run_shifting
        from relaxplay.environment import flip_to_far

        sched = PLAY_SCHEDULES[schedule]
        env = ShiftingProcess([(FeatureDistribution.uniform(0.0, 0.6), 1), (FeatureDistribution.uniform(0.3, 1.0), 15)])
        make_adv = flip_to_far if adversary == "flip_to_far" else lambda: noisy_target(lambda x: float(x >= 0.4), 0.2)
        config = RunConfig(seed=seed, probe_mc=2)
        with pytest.MonkeyPatch.context() as mp:  # small batches, split across rounds and within them
            mp.setattr(epochs, "MAX_BATCH_ELEMENTS", max_elements)
            mp.setattr(predictor, "MAX_BATCH_ELEMENTS", max_elements)
            trace = run_shifting(_play_class(kind), ABSOLUTE_LOSS, env, make_adv(), T, K, sched, config)
        B = block_length(T, K)
        assert trace.rows == per_round_reference(sched, _play_class(kind), ABSOLUTE_LOSS, env, make_adv(), T, config, B)

    def test_shifting_game_solves_each_row_length_once_per_batch(self, monkeypatch):
        # the benchmark's shifting game: per batch, one solve_rows call per
        # distinct row length, whatever epoch or block its rows come from
        import relaxplay.epochs as epochs
        from relaxplay import ABSOLUTE_LOSS, IntervalClass, ShiftingProcess, block_length, noisy_target, run_shifting

        T, K, sched = 256, 2, EpochSchedule("polynomial", alpha=1.0)
        uniform = FeatureDistribution.uniform
        env = ShiftingProcess(
            [(uniform(0.0, 0.6), 1), (uniform(0.4, 1.0), int(0.4 * T)), (uniform(0.2, 0.8), int(0.7 * T))]
        )
        cls = IntervalClass(gamma_len=0.25)
        solve_rows, batches = cls.solve_rows, []  # per batch: (its row lengths, the lengths solved)
        batch = epochs.predict_binary_fast_batch

        def counted(xs, sums, flips, rounds, *args):
            solved = []
            batches.append(({j + len(h) for _, j, h, _ in rounds}, solved))
            # only the batch's own solves: the comparators solve on clones, which would copy a wrapper
            cls.solve_rows = lambda base, pos, dlt: solved.append(pos.shape[1]) or solve_rows(base, pos, dlt)
            try:
                return batch(xs, sums, flips, rounds, *args)
            finally:
                del cls.solve_rows

        monkeypatch.setattr(epochs, "predict_binary_fast_batch", counted)
        adversary = noisy_target(lambda x: float(x >= 0.5), 0.1)
        trace = run_shifting(cls, ABSOLUTE_LOSS, env, adversary, T, K, sched, RunConfig(seed=3))
        assert len(trace.metadata["block_starts"]) == 6
        assert len(batches) == len(expected_batches(sched, T, block_length(T, K), epochs.MAX_BATCH_ELEMENTS)) == 1
        for lengths, solved in batches:
            assert solved == sorted(lengths)
        assert cls.solve_calls == 2 * T and set(trace.column("erm_calls")) == {2}

    @pytest.mark.parametrize("name", list(_chunk_configs()))
    def test_rows_equal_per_round_reference(self, name):
        from relaxplay import ABSOLUTE_LOSS

        sched, make_cls, make_adv, T, kwargs = _chunk_configs()[name]
        env = FeatureDistribution.uniform()
        config = RunConfig(seed=11, **kwargs)
        trace = run_epoch_predictor(sched, make_cls(), ABSOLUTE_LOSS, env, make_adv(), T, config)
        assert trace.rows == per_round_reference(sched, make_cls(), ABSOLUTE_LOSS, env, make_adv(), T, config)

    @pytest.mark.parametrize("adversary", ["oblivious", "flip_to_far", "comparator_squeeze"])
    def test_shifting_rows_equal_per_round_reference(self, adversary, monkeypatch):
        # blocks and epochs end inside the game, so each probe's label-loss
        # prefix restarts at both; every probe is one row block on the game's one clone
        import relaxplay.epochs as epochs
        from relaxplay import ABSOLUTE_LOSS, IntervalClass, ShiftingProcess, block_length, run_shifting
        from relaxplay.environment import comparator_squeeze, flip_to_far

        T, K = 60, 3
        env = ShiftingProcess([(FeatureDistribution.uniform(0.0, 0.6), 1), (FeatureDistribution.uniform(0.4, 1.0), 25)])
        sched = EpochSchedule("geometric", ratio=1.5)
        make_adv = {
            "oblivious": lambda: ObliviousAdversary(_threshold_labels),
            "flip_to_far": flip_to_far,
            "comparator_squeeze": lambda: comparator_squeeze(IntervalClass(0.25)),
        }[adversary]
        config = RunConfig(seed=4, probe_mc=2)
        block, blocks = epochs.predict_binary_fast_block, []  # per probe: its oracle and its solve_rows calls' rows

        def counted(*args):
            probe_cls, solved = args[-1], []
            solve_rows = probe_cls.solve_rows
            probe_cls.solve_rows = lambda base, pos, dlt: solved.append(len(pos)) or solve_rows(base, pos, dlt)
            try:
                return block(*args)
            finally:
                del probe_cls.solve_rows
                blocks.append((probe_cls, solved))

        monkeypatch.setattr(epochs, "predict_binary_fast_block", counted)
        cls = IntervalClass(0.25)
        trace = run_shifting(cls, ABSOLUTE_LOSS, env, make_adv(), T, K, sched, config)
        B = block_length(T, K)
        assert trace.rows == per_round_reference(
            sched, IntervalClass(0.25), ABSOLUTE_LOSS, env, make_adv(), T, config, block=B
        )
        assert trace.metadata["block_starts"] == list(range(1, T + 1, B))
        if adversary == "oblivious":
            assert blocks == []
        else:
            assert [solved for _, solved in blocks] == [[2 * config.probe_mc]] * T
            # one clone for the whole game, never the game's own class, whose calls are its rounds' 2 each
            clones = list(dict.fromkeys(probe_cls for probe_cls, _ in blocks))
            assert len(clones) == 1 and B < T
            assert cls not in clones and cls.solve_calls == 2 * T

    @pytest.mark.parametrize("adversary", ["oblivious", "flip_to_far"])
    def test_nan_feature_raises(self, adversary):
        # a NaN or infinite feature on any round raises when the features are sampled, before round 1
        from relaxplay import ABSOLUTE_LOSS, InputDomainError
        from relaxplay.environment import flip_to_far

        class HalfBad:
            # draws as FeatureDistribution.discrete([0.2, bad], [0.5, 0.5]) would; that
            # distribution is rejected when built, so the bad entry comes from a bare process
            def __init__(self, bad):
                self.bad = bad

            def sample(self, rng):
                return [0.2, self.bad][rng.choice(2, p=[0.5, 0.5])]

        labelled = []
        adv = flip_to_far() if adversary == "flip_to_far" else ObliviousAdversary(_threshold_labels)
        emit = adv.emit
        adv.emit = lambda t, *args: labelled.append(t) or emit(t, *args)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InputDomainError, match="finite"):
                run_epoch_predictor(
                    EpochSchedule("polynomial", alpha=1.0), ThresholdClass(), ABSOLUTE_LOSS, HalfBad(bad), adv, 20,
                    RunConfig(seed=0, probe_mc=2),
                )
        assert labelled == []

    def test_scalar_after_vector_features_raises(self):
        # each distribution is valid on its own; the game's one feature array holds one shape
        from relaxplay import ABSOLUTE_LOSS, InputDomainError, ShiftingProcess

        env = ShiftingProcess([(FeatureDistribution.point_mass([0.2, 0.8]), 1), (FeatureDistribution.point_mass(0.5), 4)])
        cls = FiniteClass([lambda x: float(np.atleast_1d(x)[0] >= 0.5)], binary=True)
        adv = ObliviousAdversary(lambda t, x, rng: 1.0)
        with pytest.raises(InputDomainError, match="all scalars or all vectors"):
            run_epoch_predictor(EpochSchedule("polynomial", alpha=1.0), cls, ABSOLUTE_LOSS, env, adv, 8, RunConfig())

    def test_long_epochs_are_split(self, monkeypatch):
        # a game longer than one batch allows is predicted in several batches,
        # which cross epoch ends: each holds the rounds that fit its bound
        import relaxplay.epochs as epochs
        from relaxplay import ABSOLUTE_LOSS

        sched = EpochSchedule("fixed", block=40)
        adv = ObliviousAdversary(_threshold_labels)
        config = RunConfig(seed=2)
        batches = []
        batch = epochs.predict_binary_fast_batch

        def counted(xs, sums, flips, rounds, *args):
            batches.append(len(rounds))
            return batch(xs, sums, flips, rounds, *args)

        monkeypatch.setattr(epochs, "predict_binary_fast_batch", counted)

        def play():
            env = FeatureDistribution.uniform()
            return run_epoch_predictor(sched, ThresholdClass(), ABSOLUTE_LOSS, env, adv, 90, config)

        whole = play()
        assert batches == [90]  # 5640 elements: epoch 1's rows have 2j, later rows 80
        batches.clear()
        monkeypatch.setattr(epochs, "MAX_BATCH_ELEMENTS", 400)
        split = play()
        # epoch 1's rounds 1-19, 20-27, 28-33, 34-38; then rounds 39 and 40 with
        # epoch 2's first 3; then 5 rounds of 80 a batch (one across epochs 2 and 3)
        assert batches == [19, 8, 6, 5] + [5] * 10 + [2] == expected_batches(sched, 90, 90, 400)
        assert split.rows == whole.rows


def _state_and_streams(schedule, cls, seed, T, first=0):
    """A segment's state over game arrays whose `first` entries, before the
    segment, are NaN (a state that read them would raise), and the game's
    stream-3 generator, which its probes draw from in round order."""
    from relaxplay import ABSOLUTE_LOSS
    from relaxplay.epochs import PlayedRounds, _EpochPredictorState

    xs, ys, sums, flips = (np.full(first + T, np.nan) for _ in range(4))
    played = PlayedRounds(xs, ys, None, None, sums, flips, None, None, True)
    state = _EpochPredictorState(schedule, cls.clone(), ABSOLUTE_LOSS, played, first)
    return state, np.random.default_rng([seed, 3])


def _label(state, i, y):
    """Write game round i's label y and its flip delta, as the game does when `emit` returns."""
    state.played.ys[i] = y
    state.played.flips[i] = abs(1.0 - y) - abs(0.0 - y)


def _feature(rng):
    # positions on a coarse lattice repeat, and 0 and 1 are the range ends
    return float(rng.choice([0.0, 0.5, 1.0])) if rng.random() < 0.25 else float(rng.random())


def reference_probe(state, rng, probe_mc):
    """The probe as it was before the row block: each draw through
    `draw_halluc` on the game's stream-3 generator `rng`, each prediction
    through `predict_binary_fast` on a fresh clone, and np.mean over the
    predictions."""
    from relaxplay import GameHistory, draw_halluc, predict_binary_fast

    cls, j, lo = state.probe_cls.clone(), state.clock.j, state.lo
    history = GameHistory(state.played.xs[lo : lo + j], state.played.ys[lo : lo + j - 1])
    count = min(state.clock.length - j, len(state.pool))
    return float(np.mean([
        predict_binary_fast(history, draw_halluc(state.pool, count, rng), cls, state.pconf) for _ in range(probe_mc)
    ]))


class TestEpochPredictorState:
    SCHEDULES = {
        "linear": EpochSchedule("polynomial", alpha=1.0),
        "doubling": EpochSchedule("geometric", ratio=2.0),  # epoch 2 wants 3 of a pool of 2
        "fixed": EpochSchedule("fixed", block=6),
    }

    @pytest.mark.parametrize("kind", ["threshold", "interval"])
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        probe_mc=st.integers(1, 12),  # from 8 draws on, np.mean sums pairwise
        schedule=st.sampled_from(list(SCHEDULES)),
        rounds=st.integers(1, 40),
        binary=st.booleans(),
        first=st.integers(0, 5),
    )
    @example(seed=0, probe_mc=1, schedule="linear", rounds=1, binary=True, first=0)  # j = 1 on an empty pool only
    @example(seed=3, probe_mc=1, schedule="doubling", rounds=12, binary=False, first=2)
    def test_block_probe_equals_per_draw_mean(self, kind, seed, probe_mc, schedule, rounds, binary, first):
        from relaxplay import IntervalClass

        cls = ThresholdClass() if kind == "threshold" else IntervalClass(0.25)
        state, probes = _state_and_streams(self.SCHEDULES[schedule], cls, seed, rounds, first)
        _, ref_rng = _state_and_streams(self.SCHEDULES[schedule], cls, seed, rounds)
        solve_rows, solved = state.probe_cls.solve_rows, []  # the rows of each solve_rows call
        state.probe_cls.solve_rows = lambda base, pos, dlt: solved.append(len(pos)) or solve_rows(base, pos, dlt)
        rng = np.random.default_rng(seed)
        for t in range(1, rounds + 1):
            state.played.xs[first + t - 1] = _feature(rng)
            state.advance()
            assert state.pool.base is state.played.xs  # the side pool is a view of the game's features
            solved.clear()  # the reference's clone below copies the recording solve_rows
            probe = state.probe(probes, probe_mc)
            got = probe()
            assert solved == [2 * probe_mc]  # one solve_rows call a probe, one row per probe label a draw
            drawn = probes.bit_generator.state
            assert probe() == got and probes.bit_generator.state == drawn  # a second call draws nothing more
            assert solved == [2 * probe_mc]  # and solves nothing more
            assert got == reference_probe(state, ref_rng, probe_mc)
            assert probes.bit_generator.state == ref_rng.bit_generator.state  # the same draws, no more
            _label(state, first + t - 1, float(rng.integers(0, 2)) if binary else float(rng.random()))
        assert cls.solve_calls == 0  # the game's own oracle is never asked

    def test_probe_falls_back_without_solve_rows(self):
        # a binary class without solve_rows keeps the per-draw route, on the one probe clone
        cls = FiniteClass([lambda x: float(x >= 0.3), lambda x: float(x >= 0.7)], binary=True)
        state, probes = _state_and_streams(self.SCHEDULES["linear"], cls, 1, 20, first=4)
        _, ref_rng = _state_and_streams(self.SCHEDULES["linear"], cls, 1, 20)
        rng = np.random.default_rng(1)
        for t in range(1, 21):
            state.played.xs[3 + t] = _feature(rng)
            state.advance()
            assert state.probe(probes, 3)() == reference_probe(state, ref_rng, 3)
            _label(state, 3 + t, float(rng.integers(0, 2)))
        assert state.probe_cls.solve_calls == 2 * 3 * 20 and cls.solve_calls == 0

    def test_nan_feature_of_a_custom_process_raises_before_any_probe(self):
        # round 3's NaN is sampled with every other feature, before round 1 emits or probes
        from relaxplay import ABSOLUTE_LOSS, AdaptiveAdversary, InputDomainError

        class NanAtThree:
            # a bare process: FeatureDistribution rejects NaN points when built
            def __init__(self):
                self.drawn = 0

            def sample(self, rng):
                self.drawn += 1
                return float("nan") if self.drawn == 3 else float(rng.random())

        env, labelled = NanAtThree(), []

        def fn(t, history, x_t, probe, rng):
            labelled.append(t)
            return 1.0 if probe() < 0.5 else 0.0

        with pytest.raises(InputDomainError, match="finite"):
            run_epoch_predictor(
                EpochSchedule("polynomial", alpha=1.0), ThresholdClass(), ABSOLUTE_LOSS, env,
                AdaptiveAdversary(fn), 10, RunConfig(seed=0, probe_mc=2),
            )
        assert env.drawn == 10 and labelled == []


class TestLabelSums:
    """The game writes each round's label-loss prefix and flip delta once;
    both equal the per-epoch left-to-right `cumsum` reference bit for bit."""

    @pytest.mark.parametrize("game", ["oblivious", "probing", "shifting"])
    def test_game_arrays_equal_per_epoch_cumsum(self, game, monkeypatch):
        import relaxplay.shifting as shifting
        from relaxplay import ABSOLUTE_LOSS, AdaptiveAdversary, IntervalClass, ShiftingProcess, run_shifting

        def fn(t, history, x_t, probe, rng):  # labels off {0, 1}, so the sums' order shows in their bits
            return float(np.clip(probe() + rng.uniform(-0.4, 0.4), 0.0, 1.0))

        if game == "oblivious":
            adversary = ObliviousAdversary(lambda t, x, rng: float(rng.random()))
        else:
            adversary = AdaptiveAdversary(fn)
        sched, T, config = EpochSchedule("geometric", ratio=1.5), 90, RunConfig(seed=9, probe_mc=2)
        if game == "shifting":
            games, play = [], shifting.play_rounds
            monkeypatch.setattr(shifting, "play_rounds", lambda *args: games.append(play(*args)) or games[-1])
            uniform = FeatureDistribution.uniform
            env = ShiftingProcess([(uniform(0.0, 0.6), 1), (uniform(0.4, 1.0), 40)])
            run_shifting(IntervalClass(0.25), ABSOLUTE_LOSS, env, adversary, T, 3, sched, config)
            (played,) = games
            assert played.meta[-1, 0] > 1  # the blocks restart the sums
        else:
            env = FeatureDistribution.uniform()
            played = play_rounds(sched, ThresholdClass(), ABSOLUTE_LOSS, env, adversary, T, T, config)
        starts = np.flatnonzero(played.meta[:, 2] == 1)  # every epoch of every block opens at j = 1
        assert len(starts) > 4 and len(set(played.ys.tolist()) - {0.0, 1.0}) > T // 2
        sums, flips = label_sums(played.ys, starts.tolist())
        assert played.sums.tobytes() == sums.tobytes() and played.flips.tobytes() == flips.tobytes()


class TestProbeErmCalls:
    def _run(self, adversary, T, probe_mc, cls=None):
        from relaxplay import ABSOLUTE_LOSS

        return run_epoch_predictor(
            EpochSchedule("geometric", ratio=1.5), cls or ThresholdClass(), ABSOLUTE_LOSS,
            FeatureDistribution.uniform(), adversary, T, RunConfig(seed=5, probe_mc=probe_mc),
        )

    @pytest.mark.parametrize("probe_mc", [1, 2, 5])
    def test_fast_path_counts_two_rows_per_draw(self, probe_mc):
        from relaxplay.environment import flip_to_far

        trace = self._run(flip_to_far(), 40, probe_mc)
        assert trace.metadata["probe_erm_calls"] == 2 * probe_mc * 40
        assert all(c == 2 for c in trace.column("erm_calls"))

    def test_shifting_sums_its_segments(self):
        from relaxplay import ABSOLUTE_LOSS, IntervalClass, run_shifting
        from relaxplay.environment import flip_to_far

        trace = run_shifting(
            IntervalClass(0.25), ABSOLUTE_LOSS, FeatureDistribution.uniform(), flip_to_far(), 50, 3,
            EpochSchedule("polynomial", alpha=1.0), RunConfig(seed=2, probe_mc=3),
        )
        assert len(trace.metadata["block_starts"]) > 1
        assert trace.metadata["probe_erm_calls"] == 2 * 3 * 50

    def test_oblivious_run_does_not_record_it(self, tmp_path):
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5))
        trace = self._run(adversary, 20, 3)
        assert "probe_erm_calls" not in trace.metadata


class TestProbeStream:
    """Stream 3 is one generator per game: each round that probes draws from
    it once, on the probe's first call, whatever the horizon."""

    SCHEDULE = EpochSchedule("polynomial", alpha=1.0)

    @staticmethod
    def _play(adversary, T, block):
        from relaxplay import ABSOLUTE_LOSS

        env = FeatureDistribution.uniform()
        return play_rounds(
            TestProbeStream.SCHEDULE, ThresholdClass(), ABSOLUTE_LOSS, env, adversary, T, block,
            RunConfig(seed=11, probe_mc=3),
        )

    @pytest.mark.parametrize("kind", ["threshold", "interval"])
    def test_probing_twice_a_round_writes_the_same_trace(self, tmp_path, kind):
        from relaxplay import ABSOLUTE_LOSS, AdaptiveAdversary

        def adversary(calls):
            # labels with the last of `calls` probes of the round, and noise from stream 4
            def fn(t, history, x_t, probe, rng):
                values = [probe() for _ in range(calls)]
                return float(values[-1] < 0.5) if rng.random() < 0.9 else float(rng.random() < 0.5)

            return AdaptiveAdversary(fn)

        written = []
        for calls in (1, 2):
            trace = run_epoch_predictor(
                self.SCHEDULE, _play_class(kind), ABSOLUTE_LOSS, FeatureDistribution.uniform(), adversary(calls),
                60, RunConfig(seed=11, probe_mc=3),
            )
            trace.to_csv(tmp_path / f"{calls}.csv")
            written.append(((tmp_path / f"{calls}.csv").read_bytes(), trace.metadata))
        assert written[0] == written[1]

    @pytest.mark.parametrize("block", [None, 16])
    def test_probing_on_even_rounds_keeps_every_prefix(self, block):
        from relaxplay import ABSOLUTE_LOSS, AdaptiveAdversary
        from relaxplay.epochs import online_trace

        def fn(t, history, x_t, probe, rng):
            if t % 2:
                return float(rng.random() < 0.5)
            return float(probe() < 0.5)

        longest = 70
        played = self._play(AdaptiveAdversary(fn), longest, block or longest)
        for T in (1, 2, 9, 10, 33, 50, 69):  # cuts inside epochs, on probed and unprobed rounds
            alone, prefix = self._play(AdaptiveAdversary(fn), T, block or T), played.prefix(T)
            for name in ("xs", "ys", "yhats", "losses", "meta", "drift"):
                assert np.array_equal(getattr(prefix, name), getattr(alone, name)), (T, name)
            (want, _), (got, _) = (online_trace(ThresholdClass(), ABSOLUTE_LOSS, p) for p in (alone, prefix))
            assert got.rows == want.rows and got.metadata == want.metadata
