import math

import numpy as np
import pytest

from relaxplay import (
    ConfigError,
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
        trace = self._run(cls, adversary, 12, fast_binary_path=True)
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
