"""Fixed-block scheme for feature processes with at most K distribution changes.

The horizon is split into blocks of length B = round(T^{4/5} K^{-4/5}); the
epoch predictor restarts from scratch inside each block (fresh pool, fresh
schedule), so at most K blocks straddle a change. Reported regret uses the
single global comparator; per-block comparators are logged for diagnostics.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigError, HypothesisClass, LossFn, best_in_hindsight, feature_rows, loss_eval
from .environment import Adversary, sample_feature
from .epochs import (
    EpochSchedule,
    RunConfig,
    _EpochPredictorState,
    _probe_closure,
    _resolve_fast,
    round_rng,
    _feature_repr,
)
from .traces import ONLINE_COLUMNS, RegretTrace


def block_length(T: int, K: int) -> int:
    """Block size T^{4/5} K^{-4/5}, rounded half-up and clamped to [1, T]."""
    if T < 1 or K < 1:
        raise ConfigError("T and K must be >= 1")
    raw = T ** 0.8 * K ** -0.8
    return int(min(T, max(1, math.floor(raw + 0.5))))


def run_shifting(
    cls: HypothesisClass,
    loss: LossFn,
    env,
    adversary: Adversary,
    T: int,
    K: int,
    schedule: EpochSchedule,
    config: RunConfig,
) -> RegretTrace:
    """Run the blocked predictor; the scheme uses only the change bound K."""
    if T < 1:
        raise ConfigError("T must be >= 1")
    B = block_length(T, K)
    use_fast = _resolve_fast(config, cls, loss, adversary)

    trace = RegretTrace(columns=ONLINE_COLUMNS)
    history: list = []
    xs, ys, yhats, losses, rows_meta = [], [], [], [], []
    block_starts = []
    block_regrets = []
    drift = 0.0
    shortfall = 0

    t = 0
    block = 0
    while t < T:
        block += 1
        block_starts.append(t + 1)
        state = _EpochPredictorState(schedule, cls, loss, config, use_fast)
        for _ in range(min(B, T - t)):
            t += 1
            x_t = sample_feature(env, t, round_rng(config.seed, 1, t))
            state.advance(x_t)
            calls_before = cls.solve_calls
            yhat = state.predict(round_rng(config.seed, 2, t))
            erm_calls = cls.solve_calls - calls_before
            probe = (
                _probe_closure(state, config.seed, t, config.probe_mc)
                if adversary.kind != "oblivious"
                else None
            )
            y_t = adversary.emit(t, history, x_t, probe, round_rng(config.seed, 4, t))
            state.record(y_t)
            history.append((x_t, y_t))
            xs.append(x_t)
            ys.append(y_t)
            yhats.append(yhat)
            losses.append(loss_eval(loss, yhat, y_t))
            rows_meta.append((block, state.n, state.j, erm_calls))
        drift += state.drift
        shortfall += state.shortfall
        first = block_starts[-1] - 1
        _, block_comp = best_in_hindsight(
            cls.clone(), loss=loss, xs=feature_rows(xs[first:]), ys=np.array(ys[first:])
        )
        block_regrets.append(sum(losses[first:]) - block_comp)

    comparator = cls.clone()
    h_star, _ = best_in_hindsight(comparator, loss=loss, xs=feature_rows(xs), ys=np.array(ys))
    comp_losses = [loss_eval(loss, comparator.evaluate(h_star, x), y) for x, y in zip(xs, ys)]

    cum_loss = cum_comp = 0.0
    for i in range(T):
        blk, n, j, erm_calls = rows_meta[i]
        cum_loss += losses[i]
        cum_comp += comp_losses[i]
        trace.append(
            t=i + 1, block=blk, epoch=n, j=j,
            x=_feature_repr(xs[i]), y=ys[i], yhat=yhats[i],
            loss=losses[i], cum_loss=cum_loss, cum_regret=cum_loss - cum_comp,
            erm_calls=erm_calls,
        )
    trace.metadata.update(
        seed=config.seed, T=T, K=K, block_length=B,
        block_starts=block_starts, block_regrets=block_regrets,
        rounding_drift=drift, halluc_shortfall=shortfall,
        adversary=adversary.kind, fast_binary_path=use_fast,
    )
    return trace


def blocks_straddling_changes(T: int, B: int, change_points) -> int:
    """How many blocks contain a distribution change (for test assertions)."""
    count = 0
    for start in range(1, T + 1, B):
        end = min(start + B - 1, T)
        if any(start < cp <= end for cp in change_points):
            count += 1
    return count
