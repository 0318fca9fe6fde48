"""Epoch schedules and the epoch wrapper that turns the side-information
predictor into an online learner for unknown i.i.d. feature processes.

Epoch n has length M(n); every prediction inside epoch n hallucinates from
the pool of all features observed before the epoch started. Fractional epoch
lengths are rounded half-up and the cumulative drift against the real-valued
formula is logged in the trace metadata.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ABSOLUTE_LOSS,
    ConfigError,
    HypothesisClass,
    LossFn,
    best_in_hindsight,
    feature_rows,
    loss_eval,
)
from .environment import Adversary, sample_feature
from .predictor import (
    GameHistory,
    PredictorConfig,
    SidePool,
    draw_halluc,
    predict_binary_fast,
    predict_general,
)
from .traces import ONLINE_COLUMNS, RegretTrace

ALPHA_CAP = 8.0


def alpha_from_q(q: float) -> float:
    """Schedule exponent 1/(2(1-q)) for a class of Rademacher growth T^q."""
    if not (0.5 <= q < 1.0):
        raise ConfigError("q must lie in [0.5, 1)")
    alpha = 1.0 / (2.0 * (1.0 - q))
    if alpha > ALPHA_CAP:
        raise ConfigError(
            f"alpha={alpha:.3g} exceeds the cap {ALPHA_CAP}; desk-scale horizons never leave epoch 2"
        )
    return alpha


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class EpochSchedule:
    """Epoch-length rule: polynomial n^alpha, geometric r^n, or fixed block B."""

    kind: str
    alpha: float = 1.0
    ratio: float = 1.5
    block: int = 1

    def __post_init__(self):
        if self.kind == "polynomial":
            if not (1.0 <= self.alpha <= ALPHA_CAP):
                raise ConfigError(f"alpha must lie in [1, {ALPHA_CAP}]")
        elif self.kind == "geometric":
            if self.ratio <= 1.0:
                raise ConfigError("geometric ratio must exceed 1")
        elif self.kind == "fixed":
            if self.block < 1:
                raise ConfigError("fixed block length must be >= 1")
        else:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")

    def exact_length(self, n: int) -> float:
        if self.kind == "polynomial":
            return float(n) ** self.alpha
        if self.kind == "geometric":
            return self.ratio ** n
        return float(self.block)


def epoch_length(schedule: EpochSchedule, n: int) -> int:
    if n < 1:
        raise ConfigError("epoch index starts at 1")
    return max(1, _round_half_up(schedule.exact_length(n)))


@dataclass(frozen=True)
class EpochIndex:
    n: int
    j: int
    start: int  # S(n) = sum of lengths of epochs before n


def locate(schedule: EpochSchedule, t: int) -> EpochIndex:
    """The unique (n, j) with S(n) < t <= S(n+1) and j = t - S(n)."""
    if t < 1:
        raise ConfigError("time index starts at 1")
    n, start = 1, 0
    while True:
        m = epoch_length(schedule, n)
        if t <= start + m:
            return EpochIndex(n, t - start, start)
        start += m
        n += 1


@dataclass
class RunConfig:
    """Run-level knobs: seeding, probe Monte-Carlo size, and fast-path control.

    `fast_binary_path=None` auto-enables the 2-call path when the class is
    binary-valued, the loss is absolute, and the adversary emits {0,1} labels.
    """

    seed: int = 0
    probe_mc: int = 64
    fast_binary_path: Optional[bool] = None
    y_grid_step: Optional[float] = None
    yhat_tolerance: Optional[float] = None


def _round_rng(seed: int, stream: int, t: int) -> np.random.Generator:
    # Streams: 1 features, 2 hallucination draws, 3 probes, 4 adversary noise.
    return np.random.default_rng([seed, stream, t])


class _EpochPredictorState:
    """Predictor-side state for one independent segment (one block or run).

    The current epoch's features and labels live in arrays of length
    `epoch_len`; at each epoch boundary they join the side pool.
    """

    def __init__(self, schedule, cls, loss, config: RunConfig, use_fast: bool):
        self.schedule = schedule
        self.cls = cls
        self.loss = loss
        self.config = config
        self.use_fast = use_fast
        self.n, self.j, self.start = 1, 0, 0
        self.pool = SidePool()
        self.epoch_len = epoch_length(schedule, 1)
        self.drift = abs(self.epoch_len - schedule.exact_length(1))
        self.shortfall = 0  # rounds whose own draw the pool cut short
        self.xs = self.ys = self.pconf = None

    def advance(self, x_t) -> None:
        """Move to the next local round, whose feature is x_t."""
        self.j += 1
        if self.j > self.epoch_len:
            self.pool = SidePool(np.concatenate((self.pool.features, self.xs)) if self.pool.size else self.xs)
            self.start += self.epoch_len
            self.n += 1
            self.j = 1
            self.epoch_len = epoch_length(self.schedule, self.n)
            self.drift += abs(self.epoch_len - self.schedule.exact_length(self.n))
        if self.j == 1:
            self.xs = np.empty((self.epoch_len,) + np.shape(x_t))
            self.ys = np.empty(self.epoch_len)
            self.pconf = PredictorConfig(
                horizon=self.epoch_len,
                loss=self.loss,
                y_grid_step=self.config.y_grid_step,
                yhat_tolerance=self.config.yhat_tolerance,
            )
        self.xs[self.j - 1] = x_t
        if self.pool.size < self.epoch_len - self.j:
            self.shortfall += 1

    def predict(self, rng: np.random.Generator, cls=None) -> float:
        """The current round's prediction; probes pass their own cloned `cls`."""
        cls = cls if cls is not None else self.cls
        count = min(self.epoch_len - self.j, self.pool.size)
        draw = draw_halluc(self.pool, count, rng)
        hist = GameHistory(self.xs[: self.j], self.ys[: self.j - 1])
        if self.use_fast:
            return predict_binary_fast(hist, draw, cls, self.pconf)
        return predict_general(hist, draw, cls, self.pconf)

    def record(self, y_t) -> None:
        self.ys[self.j - 1] = y_t


def _probe_closure(state: _EpochPredictorState, seed: int, t: int, probe_mc: int):
    """Monte-Carlo mean prediction on a forked RNG stream; never touches game RNG."""

    def probe() -> float:
        rng = _round_rng(seed, 3, t)
        cls = state.cls.clone()
        vals = [state.predict(rng, cls=cls) for _ in range(probe_mc)]
        return float(np.mean(vals))

    return probe


def _resolve_fast(config: RunConfig, cls: HypothesisClass, loss: LossFn, adversary: Adversary) -> bool:
    if config.fast_binary_path is not None:
        return bool(config.fast_binary_path)
    return cls.is_binary and loss.kind == "absolute" and adversary.binary_labels


def run_epoch_predictor(
    schedule: EpochSchedule,
    cls: HypothesisClass,
    loss: LossFn,
    env,
    adversary: Adversary,
    T: int,
    config: RunConfig,
) -> RegretTrace:
    """Play the full T-round game and return the per-round trace.

    The trace's cum_regret column is measured against the best fixed
    hypothesis in hindsight over all T rounds; erm_calls counts the oracle
    calls of each round's own prediction (probes use a cloned oracle).
    """
    if T < 1:
        raise ConfigError("T must be >= 1")
    use_fast = _resolve_fast(config, cls, loss, adversary)
    state = _EpochPredictorState(schedule, cls, loss, config, use_fast)
    trace = RegretTrace(columns=ONLINE_COLUMNS)
    history: list = []
    losses, xs, ys, yhats = [], [], [], []
    epochs_seen: list = []

    for t in range(1, T + 1):
        x_t = sample_feature(env, t, _round_rng(config.seed, 1, t))
        state.advance(x_t)
        calls_before = cls.solve_calls
        yhat = state.predict(_round_rng(config.seed, 2, t))
        erm_calls = cls.solve_calls - calls_before
        probe = (
            _probe_closure(state, config.seed, t, config.probe_mc)
            if adversary.kind != "oblivious"
            else None
        )
        y_t = adversary.emit(t, history, x_t, probe, _round_rng(config.seed, 4, t))
        state.record(y_t)
        history.append((x_t, y_t))
        xs.append(x_t)
        ys.append(y_t)
        yhats.append(yhat)
        losses.append(loss_eval(loss, yhat, y_t))
        epochs_seen.append((state.n, state.j, state.start, erm_calls))

    X, Y = feature_rows(xs), np.array(ys)
    comparator = cls.clone()
    h_star, _ = best_in_hindsight(comparator, loss=loss, xs=X, ys=Y)
    comp_losses = [loss_eval(loss, comparator.evaluate(h_star, x), y) for x, y in zip(xs, ys)]

    cum_loss = cum_comp = 0.0
    for t in range(1, T + 1):
        n, j, start, erm_calls = epochs_seen[t - 1]
        cum_loss += losses[t - 1]
        cum_comp += comp_losses[t - 1]
        trace.append(
            t=t, block=1, epoch=n, j=j,
            x=_feature_repr(xs[t - 1]), y=ys[t - 1], yhat=yhats[t - 1],
            loss=losses[t - 1], cum_loss=cum_loss, cum_regret=cum_loss - cum_comp,
            erm_calls=erm_calls,
        )

    _check_epoch_additivity(trace, comparator, X, Y, losses, [e[0] for e in epochs_seen], loss)
    trace.metadata.update(
        seed=config.seed, T=T, rounding_drift=state.drift, halluc_shortfall=state.shortfall,
        adversary=adversary.kind, fast_binary_path=use_fast,
    )
    return trace


def _feature_repr(x):
    if isinstance(x, np.ndarray):
        return ";".join(repr(float(v)) for v in x)
    return float(x)


def _check_epoch_additivity(trace, comparator, X, Y, losses, epochs, loss):
    """Total regret never exceeds the sum of per-epoch regrets measured
    against per-epoch comparators (which are at least as good per epoch)."""
    bound, start = 0.0, 0
    for _, rounds in itertools.groupby(epochs):
        end = start + len(list(rounds))
        _, comp = best_in_hindsight(comparator, loss=loss, xs=X[start:end], ys=Y[start:end])
        bound += sum(losses[start:end]) - comp
        start = end
    if trace.final_regret > bound + 1e-9:
        raise AssertionError("epoch regret additivity violated")
