import math

import numpy as np
import pytest

from relaxplay import (
    ABSOLUTE_LOSS,
    ConfigError,
    EpochSchedule,
    FeatureDistribution,
    ObliviousAdversary,
    RunConfig,
    ShiftingProcess,
    ThresholdClass,
    block_length,
    blocks_straddling_changes,
    run_epoch_predictor,
    run_shifting,
)


class TestBlockLength:
    def test_examples(self):
        assert block_length(100_000, 10) == 1585
        assert block_length(32, 1) == 16
        assert block_length(10, 100) == 1  # clamp below
        assert block_length(5, 1) == 4  # 5^0.8 = 3.62 rounds half-up to 4
        assert block_length(1, 1) == 1  # clamp above: B <= T

    def test_validation(self):
        with pytest.raises(ConfigError):
            block_length(0, 1)
        with pytest.raises(ConfigError):
            block_length(10, 0)

    # each was taken silently (K = 2.5 gave B = 41, True 84, inf 1) or died
    # with a bare ValueError (NaN)
    @pytest.mark.parametrize("K", [2.5, True, math.inf, math.nan, "2", None])
    def test_K_must_be_a_positive_integer(self, K):
        with pytest.raises(ConfigError, match="K"):
            block_length(256, K)

    @pytest.mark.parametrize("T", [256.5, True, math.inf, math.nan, -3])
    def test_T_must_be_a_positive_integer(self, T):
        with pytest.raises(ConfigError, match="T"):
            block_length(T, 2)

    def test_numpy_integers_are_accepted(self):
        assert block_length(np.int64(256), np.int32(2)) == block_length(256, 2) == 49

    @pytest.mark.parametrize("T, K", [(256.5, 2), (256, 2.5), (256, True), (256, math.inf), (256, math.nan)])
    def test_run_shifting_rejects_bad_T_and_K(self, T, K):
        adversary = ObliviousAdversary(lambda t, x, rng: float(x >= 0.5), binary_labels=True)
        with pytest.raises(ConfigError):
            run_shifting(
                ThresholdClass(), ABSOLUTE_LOSS, FeatureDistribution.uniform(), adversary, T, K,
                EpochSchedule("polynomial", alpha=1.0), RunConfig(seed=0),
            )


class TestBlocksStraddling:
    def test_counting(self):
        # T=100, B=25 -> blocks [1,25],[26,50],[51,75],[76,100]
        assert blocks_straddling_changes(100, 25, [40]) == 1
        assert blocks_straddling_changes(100, 25, [40, 60]) == 2
        assert blocks_straddling_changes(100, 25, [40, 45]) == 1
        assert blocks_straddling_changes(100, 25, []) == 0
        # a change aligned with a block boundary straddles nothing
        assert blocks_straddling_changes(100, 25, [26]) == 0
        assert blocks_straddling_changes(100, 25, [51]) == 0


class TestRunShifting:
    def _sched(self):
        return EpochSchedule("polynomial", alpha=1.0)

    def _adv(self):
        return ObliviousAdversary(lambda t, x, rng: float(x >= 0.5), binary_labels=True)

    def test_first_block_matches_plain_run_prefix(self):
        # inside its first block the blocked runner is exactly the plain runner
        env = FeatureDistribution.uniform()
        cfg = RunConfig(seed=7)
        T = 16
        plain = run_epoch_predictor(
            self._sched(), ThresholdClass(), ABSOLUTE_LOSS, env, self._adv(), T, cfg
        )
        blocked = run_shifting(
            ThresholdClass(), ABSOLUTE_LOSS, env, self._adv(), T, 1, self._sched(), cfg
        )
        B = blocked.metadata["block_length"]
        assert 1 < B < T
        for col in ("x", "y", "yhat", "loss", "epoch", "j"):
            assert blocked.column(col)[:B] == pytest.approx(plain.column(col)[:B])

    def test_predictor_restarts_at_block_boundaries(self):
        env = FeatureDistribution.uniform()
        cfg = RunConfig(seed=0)
        trace = run_shifting(
            ThresholdClass(), ABSOLUTE_LOSS, env, self._adv(), 20, 4, self._sched(), cfg
        )
        B = trace.metadata["block_length"]
        blocks = trace.column("block")
        epochs = trace.column("epoch")
        js = trace.column("j")
        for i in range(20):
            if i % B == 0:  # first round of a block
                assert (epochs[i], js[i]) == (1, 1)
        assert blocks == [1 + i // B for i in range(20)]
        assert trace.metadata["block_starts"] == list(range(1, 21, B))

    def test_straddle_bound_on_shifting_process(self):
        T, K = 200, 2
        proc = ShiftingProcess(
            [
                (FeatureDistribution.point_mass(0.2), 1),
                (FeatureDistribution.point_mass(0.8), 80),
                (FeatureDistribution.point_mass(0.4), 150),
            ]
        )
        B = block_length(T, K)
        assert blocks_straddling_changes(T, B, proc.change_points) <= K
        trace = run_shifting(
            ThresholdClass(), ABSOLUTE_LOSS, proc, self._adv(), T, K, self._sched(),
            RunConfig(seed=1),
        )
        assert trace.metadata["block_length"] == B
        assert len(trace.rows) == T
        trace.check_prefix_sums()

    def test_block_regrets_logged_and_nonnegative(self):
        env = FeatureDistribution.uniform()
        trace = run_shifting(
            ThresholdClass(), ABSOLUTE_LOSS, env, self._adv(), 30, 3, self._sched(),
            RunConfig(seed=2),
        )
        regs = trace.metadata["block_regrets"]
        assert len(regs) == len(trace.metadata["block_starts"])
        assert all(r >= -1e-9 for r in regs)
        # global regret is at least the sum of per-block regrets
        assert trace.final_regret >= sum(regs) - 1e-9

    def test_determinism(self):
        env = FeatureDistribution.uniform()
        a = run_shifting(
            ThresholdClass(), ABSOLUTE_LOSS, env, self._adv(), 25, 2, self._sched(),
            RunConfig(seed=3),
        )
        b = run_shifting(
            ThresholdClass(), ABSOLUTE_LOSS, env, self._adv(), 25, 2, self._sched(),
            RunConfig(seed=3),
        )
        assert a.rows == b.rows

    def test_shortfall_and_drift_metadata(self):
        from relaxplay import epoch_length, locate

        sched = EpochSchedule("geometric", ratio=1.5)
        T, K = 40, 3
        trace = run_shifting(
            ThresholdClass(), ABSOLUTE_LOSS, FeatureDistribution.uniform(), self._adv(), T, K, sched,
            RunConfig(seed=0),
        )
        B = trace.metadata["block_length"]
        expected, drift = 0, 0.0
        for first in range(1, T + 1, B):
            rounds = min(B, T - first + 1)
            for t in range(1, rounds + 1):
                idx = locate(sched, t)
                expected += idx.start < epoch_length(sched, idx.n) - idx.j
            for n in range(1, locate(sched, rounds).n + 1):
                drift += abs(epoch_length(sched, n) - sched.exact_length(n))
        assert trace.metadata["halluc_shortfall"] == expected > 0
        assert trace.metadata["rounding_drift"] == pytest.approx(drift)
