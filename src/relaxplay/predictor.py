"""The relaxation / random-playout predictor and its surrogate relaxations.

Each round the predictor hallucinates the rest of the horizon from the side
pool (uniform ordered draws without replacement), attaches uniform random
signs, and plays the minimax prediction of the resulting surrogate game.
The oracle minimizes, so sup-shaped quantities are computed by negating the
signs and the loss terms (sup_h A = -inf_h -A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    ABSOLUTE_LOSS,
    ConfigError,
    Feature,
    HypothesisClass,
    InputDomainError,
    LabeledPair,
    LossFn,
    MixedErmQuery,
    PoolExhaustedError,
    UnsupportedClassError,
    feature_list,
    feature_rows,
    loss_eval,
)


class SidePool:
    """Observed features standing in for the unknown distribution.

    `features` is one float64 array, (n,) for scalar features or (n, d).
    """

    def __init__(self, features=()):
        self.features = feature_rows(features)

    @property
    def size(self) -> int:
        return len(self.features)


@dataclass(frozen=True, eq=False)
class RelaxationDraw:
    """One playout sample: hallucinated features (distinct pool slots) + signs, as arrays."""

    halluc: np.ndarray
    signs: np.ndarray
    indices: np.ndarray = ()

    def __post_init__(self):
        object.__setattr__(self, "halluc", feature_rows(self.halluc))
        object.__setattr__(self, "signs", np.asarray(self.signs, dtype=float))
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.intp))
        if len(self.halluc) != len(self.signs):
            raise ConfigError("hallucinated features and signs must have equal length")


@dataclass
class PredictorConfig:
    """Knobs of the per-round minimax computation for a game of horizon M."""

    horizon: int
    loss: LossFn = ABSOLUTE_LOSS
    y_grid_step: Optional[float] = None
    yhat_tolerance: Optional[float] = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon M must be >= 1")
        default = 1.0 / (self.loss.lipschitz * math.sqrt(self.horizon))
        if self.y_grid_step is None:
            self.y_grid_step = default
        if self.yhat_tolerance is None:
            self.yhat_tolerance = default
        if self.y_grid_step <= 0 or self.yhat_tolerance <= 0:
            raise ConfigError("grid step and tolerance must be positive")


@dataclass(frozen=True, eq=False)
class GameHistory:
    """The game so far as arrays: features x_1..x_j (the current x_j last)
    and the labels y_1..y_{j-1} of the rounds already played."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        if len(self.xs) != len(self.ys) + 1:
            raise ConfigError("a history holds one more feature (the current one) than labels")

    @classmethod
    def from_rounds(cls, rounds: Sequence[tuple], x_cur: Feature) -> "GameHistory":
        """From played (x, y) rounds plus the current feature."""
        return cls(feature_rows([x for x, _ in rounds] + [x_cur]), np.array([y for _, y in rounds], dtype=float))

    @property
    def x_cur(self) -> Feature:
        return self.xs[-1]

    def pairs(self) -> tuple[LabeledPair, ...]:
        """The rounds already played, as labeled pairs."""
        return tuple(LabeledPair(x, y) for x, y in zip(feature_list(self.xs[:-1]), self.ys.tolist()))


def draw_halluc(
    pool: SidePool, count: int, rng: np.random.Generator, with_replacement: bool = False
) -> RelaxationDraw:
    """Uniform ordered draw of `count` pool entries plus i.i.d. uniform signs."""
    if count > pool.size and not with_replacement:
        raise PoolExhaustedError(f"requested {count} hallucinations from a pool of {pool.size}")
    if count == 0:
        return RelaxationDraw(pool.features[:0], ())
    if with_replacement:
        idx = rng.integers(0, pool.size, size=count)
    else:
        idx = rng.permutation(pool.size)[:count]
    signs = rng.integers(0, 2, size=count) * 2 - 1
    return RelaxationDraw(pool.features[idx], signs, idx)


def _sup_query(xs, ys, ws, signs, feats, loss: LossFn) -> MixedErmQuery:
    """The negated query whose -min is sup_h [2L sum eps_i h(x~_i) - sum_i w_i loss(h(x_i), y_i)]."""
    return MixedErmQuery(
        xs=xs, ys=ys, ws=ws, signed_xs=feats, signs=-signs,
        coefficient=2.0 * loss.lipschitz, loss=loss,
    )


def _probe_query(history: GameHistory, draw: RelaxationDraw, probe_y: float, loss: LossFn) -> MixedErmQuery:
    """The sup query of `history` with label `probe_y` at the current feature."""
    return _sup_query(history.xs, np.append(history.ys, probe_y), None, draw.signs, draw.halluc, loss)


def inner_sup(
    history: GameHistory,
    draw: RelaxationDraw,
    probe_y: float,
    cls: HypothesisClass,
    config: PredictorConfig,
) -> float:
    """sup_h [2L sum eps_i h(x~_i) - loss(h(x_j), probe_y) - sum_i loss(h(x_i), y_i)].

    One mixed-ERM solve on the negated query.
    """
    return -cls.solve(_probe_query(history, draw, probe_y, config.loss)).objective


def inner_sups(
    history: GameHistory,
    draw: RelaxationDraw,
    probe_ys,
    cls: HypothesisClass,
    config: PredictorConfig,
) -> np.ndarray:
    """inner_sup at each label of `probe_ys`, one solve each.

    The queries differ only in the probe label, so the history and the draw
    are checked once.
    """
    query = _probe_query(history, draw, 0.0, config.loss)
    return np.array([-cls.solve(query.with_last_label(y)).objective for y in np.asarray(probe_ys).tolist()])


def _y_grid(config: PredictorConfig) -> np.ndarray:
    grid = np.arange(0.0, 1.0, config.y_grid_step)
    return np.append(grid, 1.0)


def predict_general(
    history: GameHistory,
    draw: RelaxationDraw,
    cls: HypothesisClass,
    config: PredictorConfig,
) -> float:
    """Minimax prediction: argmin_yhat max_y [loss(yhat,y) + inner_sup(y)].

    The adversary's sup runs on a grid of step 1/(L*sqrt(M)); inner-sup values
    are cached per grid point, so the oracle-call count equals the grid size.
    The outer objective is convex in yhat and is minimized by ternary search.
    """
    grid = _y_grid(config)
    sups = inner_sups(history, draw, grid, cls, config)

    loss = config.loss
    if loss.kind == "absolute":

        def phi(yhat: float) -> float:
            return float(np.max(np.abs(yhat - grid) + sups))

    else:

        def phi(yhat: float) -> float:
            return max(loss_eval(loss, yhat, float(y)) + s for y, s in zip(grid, sups))

    lo, hi = 0.0, 1.0
    iters = max(1, math.ceil(math.log(1.0 / config.yhat_tolerance) / math.log(1.5)))
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if phi(m1) <= phi(m2):
            hi = m2
        else:
            lo = m1
    return (lo + hi) / 2.0


def predict_binary_fast(
    history: GameHistory,
    draw: RelaxationDraw,
    cls: HypothesisClass,
    config: PredictorConfig,
) -> float:
    """Exact prediction with 2 oracle calls (binary class, {0,1} labels, absolute loss).

    phi(yhat) = max(yhat + G(0), 1 - yhat + G(1)) is minimized where the two
    branches meet, clamped to [0,1].
    """
    if not cls.is_binary or config.loss.kind != "absolute":
        raise ConfigError("fast path needs a binary-valued class and absolute loss")
    g0 = inner_sup(history, draw, 0.0, cls, config)
    g1 = inner_sup(history, draw, 1.0, cls, config)
    return float(np.clip((1.0 + g1 - g0) / 2.0, 0.0, 1.0))


# Elements (rows x terms) in one batched solve; bounds the memory of long epochs.
MAX_BATCH_ELEMENTS = 1 << 16
# the probe labels y = 0, 1: their losses |0 - y| and flip deltas |1 - y| - |0 - y|
_PROBE_L0 = (0.0, 1.0)
_PROBE_DLT = (np.array([1.0]), np.array([-1.0]))


def predict_binary_fast_batch(
    xs: np.ndarray,
    ys: np.ndarray,
    js: Sequence[int],
    draws: Sequence[RelaxationDraw],
    cls: HypothesisClass,
    loss: LossFn = ABSOLUTE_LOSS,
) -> np.ndarray:
    """predict_binary_fast for many rounds of one game, bit for bit, in batched solves.

    Round r has the history xs[:j], ys[:j-1] with j = js[r] and the draw
    draws[r]. Its two queries become two flip-delta rows (probe label 0, then
    1) for `cls.solve_rows`; rows of one length are solved together, at most
    MAX_BATCH_ELEMENTS elements at a time, and each row counts one solve call.
    """
    if not cls.is_binary or loss.kind != "absolute":
        raise ConfigError("fast path needs a binary-valued class and absolute loss")
    if xs.size != len(xs) or any(d.halluc.size != len(d.halluc) for d in draws):
        raise UnsupportedClassError("this oracle handles scalar features only")
    xs = xs.reshape(-1)
    js = list(js)
    if not js:
        return np.empty(0)
    # The query sums its labels' losses in order, so base = running sum + the
    # probe label's loss; a label y's flip delta is |1 - y| - |0 - y|.
    l0 = np.abs(0.0 - ys[: max(js) - 1])
    prefix = [0.0] + np.cumsum(l0).tolist()
    pair_dlt = np.abs(1.0 - ys[: max(js) - 1]) - l0
    signed_coefficient = -2.0 * loss.lipschitz  # the sup query negates the signs

    lengths = [j + len(d.signs) for j, d in zip(js, draws)]
    yhats = np.empty(len(js))
    for n in sorted(set(lengths)):
        same = [r for r, m in enumerate(lengths) if m == n]
        step = max(1, MAX_BATCH_ELEMENTS // (2 * max(n, 1)))
        for rounds in (same[i : i + step] for i in range(0, len(same), step)):
            # rows 2r and 2r+1 (probe label 0, then 1): x_1..x_j, then round r's draw
            pos, dlt, base = [], [], []
            for r in rounds:
                j, draw = js[r], draws[r]
                pos += (xs[:j], draw.halluc.reshape(-1))
                signed = signed_coefficient * draw.signs
                for y in (0, 1):
                    dlt += (pair_dlt[: j - 1], _PROBE_DLT[y], signed)
                    base.append(prefix[j - 1] + _PROBE_L0[y])
            pos = np.concatenate(pos).reshape(len(rounds), n)
            if not np.isfinite(pos).all():
                raise InputDomainError("features must be finite")
            _, objectives = cls.solve_rows(
                np.array(base), np.repeat(pos, 2, axis=0), np.concatenate(dlt).reshape(2 * len(rounds), n)
            )
            g0, g1 = -objectives[0::2], -objectives[1::2]
            yhats[rounds] = np.clip((1.0 + g1 - g0) / 2.0, 0.0, 1.0)
    return yhats


def _pair_arrays(pairs: Sequence[LabeledPair]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The features, labels and weights of `pairs`, as arrays."""
    pairs = tuple(pairs)
    return (
        feature_rows([p.x for p in pairs]),
        np.array([p.y for p in pairs], dtype=float),
        np.array([p.weight for p in pairs], dtype=float),
    )


def _sup_value(xs, ys, ws, signs, feats, cls: HypothesisClass, loss: LossFn) -> float:
    query = _sup_query(xs, ys, ws, np.asarray(signs, dtype=float), feats, loss)
    return -cls.solve(query).objective


def relaxation_R(
    j: int,
    history_pairs: Sequence[LabeledPair],
    pool: SidePool,
    cls: HypothesisClass,
    config: PredictorConfig,
    mc_samples: int,
    rng: np.random.Generator,
    with_replacement: bool = False,
    *,
    true_env=None,
) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, stderr) of the surrogate relaxation R_j.

    R_j = E[sup_h 2L sum_{i>j} eps_i h(x~_i) - L_j^h], hallucinations drawn
    from the pool. `history_pairs` are the j realized rounds (labels included).
    With `true_env` (anything with a .sample(rng) method; diagnostic use
    only) this is R~_j instead: slot j+1 is drawn from the true feature
    source, with its own sign, and only the later slots from the pool.
    """
    history = _pair_arrays(history_pairs)
    count = config.horizon - j
    if count < 0:
        raise ConfigError("j exceeds the horizon")
    if count == 0:
        val = _sup_value(*history, (), pool.features[:0], cls, config.loss)
        return val, 0.0
    vals = np.empty(mc_samples)
    for k in range(mc_samples):
        if true_env is None:
            d = draw_halluc(pool, count, rng, with_replacement)
            signs, feats = d.signs, d.halluc
        else:
            fresh = true_env.sample(rng)
            d = draw_halluc(pool, count - 1, rng, with_replacement)
            signs = np.concatenate(([int(rng.integers(0, 2)) * 2 - 1], d.signs))
            feats = feature_rows([fresh, *d.halluc])
        vals[k] = _sup_value(*history, signs, feats, cls, config.loss)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(mc_samples)) if mc_samples > 1 else 0.0


def f_eval(
    history_pairs: Sequence[LabeledPair],
    tail_halluc: Sequence[Feature],
    signs: Sequence[int],
    probe_x: Feature,
    cls: HypothesisClass,
    loss: LossFn = ABSOLUTE_LOSS,
) -> float:
    """The per-slot playout value as a function of the j+1st hallucination.

    f(x) = sup_h [2L*eps_{j+1} h(x) + 2L sum_{i>=j+2} eps_i h(x~_i) - L_j^h];
    `signs` covers slots j+1..M, so len(signs) == len(tail_halluc) + 1.
    """
    if len(signs) != len(tail_halluc) + 1:
        raise ConfigError("need one sign for the probe slot plus one per tail feature")
    feats = feature_rows([probe_x, *tail_halluc])
    return _sup_value(*_pair_arrays(history_pairs), signs, feats, cls, loss)
