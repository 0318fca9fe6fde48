"""Fixed-block scheme for feature processes with at most K distribution changes.

The horizon is split into blocks of length B = round(T^{4/5} K^{-4/5}); the
epoch predictor restarts from scratch inside each block (fresh pool, fresh
schedule), so at most K blocks straddle a change. Reported regret uses the
single global comparator; per-block comparators are logged for diagnostics.
"""

from __future__ import annotations

import math

from .core import HypothesisClass, LossFn, check_count
from .environment import Adversary
from .epochs import EpochSchedule, RunConfig, online_trace, play_rounds, segment_regrets
from .traces import RegretTrace


def block_length(T: int, K: int) -> int:
    """Block size T^{4/5} K^{-4/5}, rounded half-up and clamped to [1, T];
    T and K must be positive integers (ConfigError)."""
    T, K = check_count(T, "T"), check_count(K, "K")
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
    """Run the blocked predictor; the scheme uses only the change bound K.
    `block_length` checks T and K."""
    B = block_length(T, K)
    played = play_rounds(schedule, cls, loss, env, adversary, T, B, config)
    trace, comparator = online_trace(cls, loss, played)
    trace.metadata.update(
        seed=config.seed, T=T, K=K, block_length=B,
        block_starts=list(range(1, T + 1, B)),
        block_regrets=segment_regrets(comparator, loss, played, range(0, T, B)),
        adversary=adversary.kind,
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
