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
    locate,
    run_epoch_predictor,
)
from relaxplay.environment import constant as constant_adversary


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
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5), binary_labels=True)
        trace = self._run(cls, adversary, 12)
        assert all(c == 2 for c in trace.column("erm_calls"))

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
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5), binary_labels=True)
        trace = self._run(sched, adversary, 40)
        # epoch 1 (length 2) starts with an empty pool, so its first round falls short
        assert trace.metadata["halluc_shortfall"] == expected_shortfall(sched, 40) > 0

    def test_probe_draws_not_counted(self):
        from relaxplay.environment import flip_to_far

        sched = EpochSchedule("geometric", ratio=1.5)
        trace = self._run(sched, flip_to_far(), 30, probe_mc=3)
        assert trace.metadata["halluc_shortfall"] == expected_shortfall(sched, 30)

    def test_linear_schedule_never_falls_short(self):
        sched = EpochSchedule("polynomial", alpha=1.0)
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5), binary_labels=True)
        assert self._run(sched, adversary, 30).metadata["halluc_shortfall"] == 0

    def test_kept_out_of_the_csv(self, tmp_path):
        sched = EpochSchedule("geometric", ratio=1.5)
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5), binary_labels=True)
        trace = self._run(sched, adversary, 10)
        trace.to_csv(tmp_path / "t.csv")
        text = (tmp_path / "t.csv").read_text()
        assert "shortfall" not in text and "drift" not in text


def per_round_reference(schedule, cls, loss, env, adversary, T, config, block=None):
    """Trace rows of the game played one round at a time: sample, predict, emit.

    The predictor restarts every `block` rounds (never, by default). Each
    round rebuilds its pool and history from the features and labels played.
    """
    from relaxplay import (
        GameHistory, PredictorConfig, SidePool, best_in_hindsight, draw_halluc, loss_eval,
        predict_binary_fast, predict_general, round_rng, sample_feature,
    )

    block = block or T
    use_fast = cls.is_binary and loss.kind == "absolute" and adversary.binary_labels
    predict = predict_binary_fast if use_fast else predict_general
    history, xs, ys, yhats, losses, meta = [], [], [], [], [], []
    for t in range(1, T + 1):
        first = (t - 1) // block * block  # index of the block's first round
        idx = locate(schedule, t - first)
        M = epoch_length(schedule, idx.n)
        pool = SidePool(np.array(xs[first : first + idx.start]))
        x_t = sample_feature(env, t, round_rng(config.seed, 1, t))
        hist = GameHistory(np.array(xs[first + idx.start :] + [x_t]), np.array(ys[first + idx.start :]))
        pconf = PredictorConfig(horizon=M, loss=loss)

        def predict_on(rng, c):
            return predict(hist, draw_halluc(pool, min(M - idx.j, pool.size), rng), c, pconf)

        def probe():
            rng, c = round_rng(config.seed, 3, t), cls.clone()
            return float(np.mean([predict_on(rng, c) for _ in range(config.probe_mc)]))

        before = cls.solve_calls
        yhat = predict_on(round_rng(config.seed, 2, t), cls)
        meta.append((first // block + 1, idx.n, idx.j, cls.solve_calls - before))
        oblivious = adversary.kind == "oblivious"
        y_t = adversary.emit(t, history, x_t, None if oblivious else probe, round_rng(config.seed, 4, t))
        history.append((x_t, y_t))
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
        block, n, j, erm_calls = (int(v) for v in played.meta[t - 1])
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
        from relaxplay.epochs import online_trace, play_rounds

        cls, loss, env, adversary, block = self.game(name)
        schedule, T = EpochSchedule("geometric", ratio=1.5), 20
        played = play_rounds(schedule, cls, loss, env, adversary, T, block or T, RunConfig(seed=7))
        trace, comparator = online_trace(cls, loss, played)
        reference = reference_online_rows(cls, loss, played)
        assert trace.rows == reference
        assert [tuple(map(type, r)) for r in trace.rows] == [tuple(map(type, r)) for r in reference]
        assert comparator.solve_calls == 1 and len(played.states) == (3 if block else 1)
        assert all(np.shares_memory(s.pool.features, played.xs) for s in played.states)


def _threshold_labels(t, x, rng):
    return 1.0 if x >= 0.5 else 0.0


def _chunk_configs():
    from relaxplay import IntervalClass, SemiAdaptiveAdversary, noisy_target
    from relaxplay.environment import comparator_squeeze, flip_to_far

    poly = EpochSchedule("polynomial", alpha=1.0)
    geo = EpochSchedule("geometric", ratio=1.5)  # short pools: rows of mixed length
    noisy = lambda: noisy_target(lambda x: float(x >= 0.4), 0.2)  # noqa: E731
    return {
        "oblivious": (poly, ThresholdClass, noisy, 60, {}),
        "oblivious_interval_geometric": (geo, lambda: IntervalClass(0.25), noisy, 45, {}),
        "semi_adaptive": (
            geo, ThresholdClass,
            lambda: SemiAdaptiveAdversary(2, lambda t, feats, rng: float(feats[0] >= 0.5), binary_labels=True),
            30, {},
        ),
        "flip_to_far": (geo, ThresholdClass, flip_to_far, 30, {"probe_mc": 3}),
        "comparator_squeeze": (poly, ThresholdClass, lambda: comparator_squeeze(ThresholdClass), 30, {"probe_mc": 2}),
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

        def counted(xs, ys, los, js, draws, *args):
            solved = []
            batches.append(({j + len(h) for j, (h, _) in zip(js, draws)}, solved))
            # only the batch's own solves: the comparators solve on clones, which would copy a wrapper
            cls.solve_rows = lambda base, pos, dlt: solved.append(pos.shape[1]) or solve_rows(base, pos, dlt)
            try:
                return batch(xs, ys, los, js, draws, *args)
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
        # prefix restarts at both; every probe is one row block on its segment's clone
        import relaxplay.epochs as epochs
        from relaxplay import ABSOLUTE_LOSS, IntervalClass, ShiftingProcess, block_length, run_shifting
        from relaxplay.environment import comparator_squeeze, flip_to_far

        T, K = 60, 3
        env = ShiftingProcess([(FeatureDistribution.uniform(0.0, 0.6), 1), (FeatureDistribution.uniform(0.4, 1.0), 25)])
        sched = EpochSchedule("geometric", ratio=1.5)
        make_adv = {
            "oblivious": lambda: ObliviousAdversary(_threshold_labels, binary_labels=True),
            "flip_to_far": flip_to_far,
            "comparator_squeeze": lambda: comparator_squeeze(lambda: IntervalClass(0.25)),
        }[adversary]
        config = RunConfig(seed=4, probe_mc=2)
        block, blocks = epochs.predict_binary_fast_block, []  # per probe: its oracle and its solve_rows calls' rows

        def counted(*args):
            probe_cls, solved = args[-2], []
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
            # one clone per block, never the game's own class, whose calls are its rounds' 2 each
            clones = [probe_cls for probe_cls, _ in blocks]
            assert [sum(c is clone for c in clones) for clone in dict.fromkeys(clones)] == [
                min(B, T - first) for first in range(0, T, B)
            ]
            assert cls not in clones and cls.solve_calls == 2 * T

    @pytest.mark.parametrize("adversary", ["oblivious", "flip_to_far"])
    def test_nan_feature_raises(self, adversary):
        from relaxplay import ABSOLUTE_LOSS, InputDomainError
        from relaxplay.environment import flip_to_far

        class HalfNan:
            # draws as FeatureDistribution.discrete([0.2, nan], [0.5, 0.5]) would; that
            # distribution is rejected when built, so the NaN comes from a bare process
            def sample(self, rng):
                return [0.2, float("nan")][rng.choice(2, p=[0.5, 0.5])]

        env = HalfNan()
        adv = flip_to_far() if adversary == "flip_to_far" else ObliviousAdversary(_threshold_labels, binary_labels=True)
        with pytest.raises(InputDomainError):
            run_epoch_predictor(
                EpochSchedule("polynomial", alpha=1.0), ThresholdClass(), ABSOLUTE_LOSS, env, adv, 20,
                RunConfig(seed=0, probe_mc=2),
            )

    def test_scalar_after_vector_features_raises(self):
        # each distribution is valid on its own; the game's one feature array holds one shape
        from relaxplay import ABSOLUTE_LOSS, InputDomainError, ShiftingProcess

        env = ShiftingProcess([(FeatureDistribution.point_mass([0.2, 0.8]), 1), (FeatureDistribution.point_mass(0.5), 4)])
        cls = FiniteClass([lambda x: float(np.atleast_1d(x)[0] >= 0.5)], binary=True)
        adv = ObliviousAdversary(lambda t, x, rng: 1.0, binary_labels=True)
        with pytest.raises(InputDomainError, match="all scalars or all vectors"):
            run_epoch_predictor(EpochSchedule("polynomial", alpha=1.0), cls, ABSOLUTE_LOSS, env, adv, 8, RunConfig())

    def test_long_epochs_are_split(self, monkeypatch):
        # a game longer than one batch allows is predicted in several batches,
        # which cross epoch ends: each holds the rounds that fit its bound
        import relaxplay.epochs as epochs
        from relaxplay import ABSOLUTE_LOSS

        sched = EpochSchedule("fixed", block=40)
        adv = ObliviousAdversary(_threshold_labels, binary_labels=True)
        config = RunConfig(seed=2)
        batches = []
        batch = epochs.predict_binary_fast_batch

        def counted(xs, ys, los, js, *args):
            batches.append(len(js))
            return batch(xs, ys, los, js, *args)

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


def _state_and_streams(schedule, cls, seed, T, first=0, use_fast=True):
    """A segment's state over game arrays whose `first` entries, before the
    segment, are NaN (a state that read them would raise), and the streams."""
    from relaxplay import ABSOLUTE_LOSS
    from relaxplay.epochs import RoundStreams, _EpochPredictorState

    xs, ys = np.full(first + T, np.nan), np.full(first + T, np.nan)
    state = _EpochPredictorState(schedule, cls, ABSOLUTE_LOSS, use_fast, xs, ys, first)
    return state, RoundStreams(seed, T, (1, 2, 3, 4))


def _feature(rng):
    # positions on a coarse lattice repeat, and 0 and 1 are the range ends
    return float(rng.choice([0.0, 0.5, 1.0])) if rng.random() < 0.25 else float(rng.random())


def reference_probe(state, rng, probe_mc):
    """The probe as it was before the row block: each draw through
    `draw_halluc` on the round's stream-3 generator `rng`, each prediction
    through `predict_binary_fast` on a fresh clone, and np.mean over the
    predictions."""
    from relaxplay import GameHistory, draw_halluc, predict_binary_fast

    cls, j, lo = state.probe_cls.clone(), state.clock.j, state.lo
    history = GameHistory(state.game_xs[lo : lo + j], state.game_ys[lo : lo + j - 1])
    count = min(state.clock.length - j, state.pool.size)
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
        state, streams = _state_and_streams(self.SCHEDULES[schedule], cls, seed, rounds, first)
        _, ref_streams = _state_and_streams(self.SCHEDULES[schedule], cls, seed, rounds)
        solve_rows, solved = state.probe_cls.solve_rows, []  # the rows of each solve_rows call
        state.probe_cls.solve_rows = lambda base, pos, dlt: solved.append(len(pos)) or solve_rows(base, pos, dlt)
        rng = np.random.default_rng(seed)
        rngs, asked = streams.rngs, []
        streams.rngs = lambda stream, t: asked.append((stream, rngs(stream, t))) or asked[-1][1]
        for t in range(1, rounds + 1):
            state.game_xs[first + t - 1] = _feature(rng)
            state.advance()
            solved.clear()  # the reference's clone below copies the recording solve_rows
            got = state.probe(streams, t, probe_mc)()
            assert solved == [2 * probe_mc]  # one solve_rows call a probe, one row per probe label a draw
            assert [stream for stream, _ in asked] == [3] * t  # one stream-3 generator per probe, nothing else
            ref_rng = ref_streams.rngs(3, t)
            assert got == reference_probe(state, ref_rng, probe_mc)
            assert asked[-1][1].bit_generator.state == ref_rng.bit_generator.state  # the same draws, no more
            state.game_ys[first + t - 1] = float(rng.integers(0, 2)) if binary else float(rng.random())
        assert cls.solve_calls == 0  # the game's own oracle is never asked

    def test_probe_falls_back_without_solve_rows(self):
        # a binary class without solve_rows keeps the per-draw route, on the one probe clone
        cls = FiniteClass([lambda x: float(x >= 0.3), lambda x: float(x >= 0.7)], binary=True)
        state, streams = _state_and_streams(self.SCHEDULES["linear"], cls, 1, 20, first=4)
        rng = np.random.default_rng(1)
        for t in range(1, 21):
            state.game_xs[3 + t] = _feature(rng)
            state.advance()
            assert state.probe(streams, t, 3)() == reference_probe(state, streams.rngs(3, t), 3)
            state.game_ys[3 + t] = float(rng.integers(0, 2))
        assert state.probe_cls.solve_calls == 2 * 3 * 20 and cls.solve_calls == 0

    @pytest.mark.parametrize("where", ["history", "pool"])
    def test_nan_feature_in_the_block_raises(self, where):
        # the linear schedule's epoch 1 is round 1; round 2 opens epoch 2, whose
        # history is x_2 and whose one hallucination is x_1, so a NaN x_2 or x_1
        # reaches round 2's block
        from relaxplay import InputDomainError

        state, streams = _state_and_streams(self.SCHEDULES["linear"], ThresholdClass(), 0, 2)
        state.game_xs[:2] = (0.5, np.nan) if where == "history" else (np.nan, 0.5)
        state.game_ys[0] = 1.0
        state.advance()
        state.advance()
        assert (state.clock.n, state.clock.j, state.clock.count) == (2, 1, 1)
        with pytest.raises(InputDomainError, match="finite"):
            state.probe(streams, 2, 2)()
        assert state.probe_cls.solve_calls == 0

    def test_nan_feature_of_a_custom_process_raises_in_the_probe(self):
        from relaxplay import ABSOLUTE_LOSS, AdaptiveAdversary, InputDomainError

        class NanAtThree:
            # a bare process: FeatureDistribution rejects NaN points when built
            def __init__(self):
                self.drawn = 0

            def sample(self, rng):
                self.drawn += 1
                return float("nan") if self.drawn == 3 else float(rng.random())

        raised = []

        def fn(t, history, x_t, probe, rng):
            try:
                return 1.0 if probe() < 0.5 else 0.0
            except InputDomainError:
                raised.append(t)
                raise

        with pytest.raises(InputDomainError, match="finite"):
            run_epoch_predictor(
                EpochSchedule("polynomial", alpha=1.0), ThresholdClass(), ABSOLUTE_LOSS, NanAtThree(),
                AdaptiveAdversary(fn, binary_labels=True), 10, RunConfig(seed=0, probe_mc=2),
            )
        assert raised == [3]


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
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5), binary_labels=True)
        trace = self._run(adversary, 20, 3)
        assert "probe_erm_calls" not in trace.metadata
