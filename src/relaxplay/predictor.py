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
    feature_list,
    feature_rows,
    loss_eval,
)
from .oracles import last_label_rows, scalar_rows


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
        # written so that NaN fails too
        if not 1 <= self.horizon < math.inf:
            raise ConfigError(f"horizon M must be finite and >= 1, got {self.horizon!r}")
        default = 1.0 / (self.loss.lipschitz * math.sqrt(self.horizon))
        if self.y_grid_step is None:
            self.y_grid_step = default
        if self.yhat_tolerance is None:
            self.yhat_tolerance = default
        if not (self.y_grid_step > 0 and self.yhat_tolerance > 0):
            raise ConfigError(
                f"grid step and tolerance must be positive, got {self.y_grid_step!r} and {self.yhat_tolerance!r}"
            )


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

    def pairs(self) -> tuple[LabeledPair, ...]:
        """The rounds already played, as labeled pairs."""
        return tuple(LabeledPair(x, y) for x, y in zip(feature_list(self.xs[:-1]), self.ys.tolist()))


def draw_slots(size: int, count: int, rng: np.random.Generator, shape: tuple = ()) -> tuple:
    """`count` distinct slots out of `size`, in uniform order, and one sign
    array of `shape` per slot, for a checked `count`.

    `rng` gives a permutation of the slots, then the sign bits slot by slot;
    no RNG use when `count` is 0.
    """
    if count == 0:
        return np.empty(0, dtype=np.intp), np.empty((0, *shape))
    return rng.permutation(size)[:count], _SIGNS[rng.integers(0, 2, size=(count, *shape))]  # integers(0, 2) * 2 - 1


def draw_halluc(pool: SidePool, count: int, rng: np.random.Generator) -> RelaxationDraw:
    """Uniform ordered draw of `count` pool entries plus i.i.d. uniform signs; a
    count that is no non-negative integer (ConfigError) or that the pool cannot
    supply (PoolExhaustedError) raises before the RNG is used."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
        raise ConfigError(f"count must be a non-negative integer, got {count!r}")
    if count > pool.size:
        raise PoolExhaustedError(f"requested {count} hallucinations from a pool of {pool.size}")
    idx, signs = draw_slots(pool.size, count, rng)
    return RelaxationDraw(pool.features[idx], signs, idx)


def _sup_query(xs, ys, signs, feats, loss: LossFn) -> MixedErmQuery:
    """The negated query whose -min is sup_h [2L sum eps_i h(x~_i) - sum_i loss(h(x_i), y_i)]."""
    return MixedErmQuery(
        xs=xs, ys=ys, signed_xs=feats, signs=-signs,
        coefficient=2.0 * loss.lipschitz, loss=loss,
    )


def _probe_query(history: GameHistory, draw: RelaxationDraw, probe_y: float, loss: LossFn) -> MixedErmQuery:
    """The sup query of `history` with label `probe_y` at the current feature."""
    return _sup_query(history.xs, np.append(history.ys, probe_y), draw.signs, draw.halluc, loss)


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
    """inner_sup at each label of `probe_ys`, one solve each (as rows of one
    `solve_rows` call when the class has it). The queries differ only in the
    probe label, so the history and the draw are checked once.
    """
    query = _probe_query(history, draw, 0.0, config.loss)
    if cls.solve_rows is not None:
        return -cls.solve_rows(*last_label_rows(query, np.asarray(probe_ys, dtype=float)))[1]
    return np.array([-cls.solve(query.with_last_label(y)).objective for y in np.asarray(probe_ys).tolist()])


def _y_grid(config: PredictorConfig) -> np.ndarray:
    grid = np.arange(0.0, 1.0, config.y_grid_step)
    return np.append(grid, 1.0)


def minimax_step(grid: np.ndarray, sups: np.ndarray, config: PredictorConfig) -> float:
    """argmin_yhat max_y [loss(yhat, y) + sups[y]] over the labels y of `grid`.

    For the absolute loss phi(yhat) = max(yhat + A, B - yhat) on [0,1], with
    A = max_y (s_y - y) and B = max_y (s_y + y), so the exact minimizer is
    (B - A)/2 clamped to [0,1]. Other losses minimize the convex outer
    objective by ternary search to `yhat_tolerance`.
    """
    loss = config.loss
    if loss.kind == "absolute":
        return float(np.clip((np.max(sups + grid) - np.max(sups - grid)) / 2.0, 0.0, 1.0))

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


def predict_general(
    history: GameHistory,
    draw: RelaxationDraw,
    cls: HypothesisClass,
    config: PredictorConfig,
) -> float:
    """Minimax prediction: `minimax_step` over the inner sups of a label grid of
    step 1/(L*sqrt(M)), one oracle call per grid point."""
    grid = _y_grid(config)
    return minimax_step(grid, inner_sups(history, draw, grid, cls, config), config)


def predict_binary_fast(
    history: GameHistory,
    draw: RelaxationDraw,
    cls: HypothesisClass,
    config: PredictorConfig,
) -> float:
    """Exact prediction with 2 oracle calls (binary class, {0,1} labels, absolute loss).

    phi(yhat) = max(yhat + G(0), 1 - yhat + G(1)) is minimized where the two
    branches meet, clamped to [0,1]; `minimax_step` on {0, 1} can differ from
    this in the last bit where the result clips at 1.
    """
    if not cls.is_binary or config.loss.kind != "absolute":
        raise ConfigError("fast path needs a binary-valued class and absolute loss")
    g0, g1 = inner_sups(history, draw, (0.0, 1.0), cls, config)
    return float(np.clip((1.0 + g1 - g0) / 2.0, 0.0, 1.0))


# Elements (rows x terms) in one batched solve; bounds the memory of long epochs.
MAX_BATCH_ELEMENTS = 1 << 16
# the flip deltas |1 - y| - |0 - y| of the probe labels y = 0, 1, whose losses |0 - y| are 0 and 1
_PROBE_DLT = np.array([1.0, -1.0])
_SIGNS = np.array([-1, 1])  # a draw's signs by the bit drawn


def predict_binary_fast_batch(
    xs: np.ndarray,
    ys: np.ndarray,
    los: Sequence[int],
    js: Sequence[int],
    draws: Sequence[tuple],
    cls: HypothesisClass,
    loss: LossFn = ABSOLUTE_LOSS,
) -> np.ndarray:
    """predict_binary_fast for many rounds of one game, bit for bit, in batched solves.

    Round r is round j = js[r] of the epoch that starts at index lo = los[r]
    of the game arrays: its history is xs[lo:lo+j], ys[lo:lo+j-1], and its
    draw is draws[r], a (halluc, signs) pair. Its two queries become two
    flip-delta rows (probe label 0, then 1) for `cls.solve_rows`; rows of
    one length are solved together, whatever their epoch, at most
    MAX_BATCH_ELEMENTS elements at a time, and each row counts one solve
    call. The query sums its labels' losses in order, so a row's base is
    the left-to-right `cumsum` of |0 - y| from its epoch's start plus the
    probe label's loss; a pair's flip delta is |1 - y| - |0 - y|.
    """
    if not cls.is_binary or loss.kind != "absolute":
        raise ConfigError("fast path needs a binary-valued class and absolute loss")
    if not len(los) == len(js) == len(draws):
        raise ConfigError("need one epoch offset and one draw per round")
    ends = {}  # epoch offset -> the last local round it predicts
    for lo, j in zip(los, js):
        ends[lo] = max(ends.get(lo, j), j)
    sums = {}  # epoch offset -> (label-loss prefix, pair flip deltas)
    for lo, j in ends.items():
        labels = ys[lo : lo + j - 1]
        l0 = np.abs(0.0 - labels)
        sums[lo] = [0.0, *l0.cumsum().tolist()], np.abs(1.0 - labels) - l0
    xs, hallucs = scalar_rows(xs), [scalar_rows(halluc) for halluc, _ in draws]
    groups = {}  # row length -> its rounds, in order
    for r, (j, h) in enumerate(zip(js, hallucs)):
        groups.setdefault(j + len(h), []).append(r)
    yhats = np.empty(len(js))
    for n in sorted(groups):
        same = groups[n]
        step = max(1, MAX_BATCH_ELEMENTS // (2 * max(n, 1)))
        for rounds in (same[i : i + step] for i in range(0, len(same), step)):
            # rows 2i and 2i+1 (probe label 0, then 1): x_1..x_j, then the round's draw
            pos, dlt, base = np.empty((2 * len(rounds), n)), np.empty((2 * len(rounds), n)), []
            for i, r in enumerate(rounds):
                lo, j, two = los[r], js[r], slice(2 * i, 2 * i + 2)
                prefix, pair_dlt = sums[lo]
                pos[two, :j], pos[two, j:] = xs[lo : lo + j], hallucs[r]
                dlt[two, : j - 1], dlt[two, j - 1] = pair_dlt[: j - 1], _PROBE_DLT
                dlt[two, j:] = -2.0 * loss.lipschitz * draws[r][1]  # the sup query negates the signs
                base += (prefix[j - 1], prefix[j - 1] + 1.0)
            if not np.isfinite(pos).all():
                raise InputDomainError("features must be finite")
            _, objectives = cls.solve_rows(np.array(base), pos, dlt)
            # 1 + g1 - g0 with g = -objective, added in the same order
            yhats[rounds] = np.clip((1.0 - objectives[1::2] + objectives[0::2]) / 2.0, 0.0, 1.0)
    return yhats


def predict_binary_fast_block(
    xs: np.ndarray,
    base: float,
    pair_dlt: np.ndarray,
    pool: np.ndarray,
    slots: np.ndarray,
    signs: np.ndarray,
    cls: HypothesisClass,
    loss: LossFn = ABSOLUTE_LOSS,
) -> np.ndarray:
    """predict_binary_fast of many draws over one history, bit for bit, in one `solve_rows` call.

    The history is xs = x_1..x_j (the current feature last); its played
    labels' losses |0 - y| sum, left to right, to `base`, and `pair_dlt`
    holds their flip deltas |1 - y| - |0 - y|. Draw i hallucinates
    pool[slots[i]] with signs[i]; `slots` and `signs` are (draws, count), a
    `draw_slots` draw per row. Draw i's two queries (probe label 0, then 1)
    are rows 2i and 2i+1 of one (2 draws, j + count) block, whose history
    columns are written once for all rows; each row counts one solve call.
    """
    if not cls.is_binary or loss.kind != "absolute":
        raise ConfigError("fast path needs a binary-valued class and absolute loss")
    xs, pool = scalar_rows(xs), scalar_rows(pool)
    (draws, count), j = slots.shape, len(xs)
    # draw i's rows 2i and 2i+1 as pos[i] and dlt[i]
    pos, dlt = np.empty((draws, 2, j + count)), np.empty((draws, 2, j + count))
    pos[:, :, :j], pos[:, :, j:] = xs, pool[slots][:, None]
    if not np.isfinite(pos).all():
        raise InputDomainError("features must be finite")
    dlt[:, :, : j - 1], dlt[:, :, j - 1] = pair_dlt, _PROBE_DLT
    dlt[:, :, j:] = (-2.0 * loss.lipschitz * signs)[:, None]  # the sup query negates the signs
    rows = (2 * draws, j + count)
    _, objectives = cls.solve_rows(np.array((base, base + 1.0) * draws), pos.reshape(rows), dlt.reshape(rows))
    # 1 + g1 - g0 with g = -objective, added in the same order; the method is np.clip without its dispatch
    return ((1.0 - objectives[1::2] + objectives[0::2]) / 2.0).clip(0.0, 1.0)


def _sup_value(xs, ys, signs, feats, cls: HypothesisClass, loss: LossFn) -> float:
    query = _sup_query(xs, ys, np.asarray(signs, dtype=float), feats, loss)
    return -cls.solve(query).objective


def relaxation_R(
    j: int,
    history: tuple,
    pool: SidePool,
    cls: HypothesisClass,
    config: PredictorConfig,
    mc_samples: int,
    rng: np.random.Generator,
    *,
    true_env=None,
) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, stderr) of the surrogate relaxation R_j.

    R_j = E[sup_h 2L sum_{i>j} eps_i h(x~_i) - L_j^h], hallucinations drawn
    from the pool. `history` is the j realized rounds as (xs, ys) arrays.
    With `true_env` (anything with a .sample(rng) method; diagnostic use
    only) this is R~_j instead: slot j+1 is drawn from the true feature
    source, with its own sign, and only the later slots from the pool.
    """
    xs, ys = history
    count = config.horizon - j
    if count < 0:
        raise ConfigError("j exceeds the horizon")
    if count == 0:
        return _sup_value(xs, ys, (), pool.features[:0], cls, config.loss), 0.0
    vals = np.empty(mc_samples)
    for k in range(mc_samples):
        if true_env is None:
            d = draw_halluc(pool, count, rng)
            signs, feats = d.signs, d.halluc
        else:
            fresh = true_env.sample(rng)
            d = draw_halluc(pool, count - 1, rng)
            signs = np.concatenate(([int(rng.integers(0, 2)) * 2 - 1], d.signs))
            feats = feature_rows([fresh, *d.halluc])
        vals[k] = _sup_value(xs, ys, signs, feats, cls, config.loss)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(mc_samples)) if mc_samples > 1 else 0.0


def f_eval(
    history: tuple,
    tail_halluc: Sequence[Feature],
    signs: Sequence[int],
    probe_x: Feature,
    cls: HypothesisClass,
    loss: LossFn = ABSOLUTE_LOSS,
) -> float:
    """The per-slot playout value as a function of the j+1st hallucination.

    f(x) = sup_h [2L*eps_{j+1} h(x) + 2L sum_{i>=j+2} eps_i h(x~_i) - L_j^h];
    `history` is the j realized rounds as (xs, ys) arrays, and `signs` covers
    slots j+1..M, so len(signs) == len(tail_halluc) + 1.
    """
    if len(signs) != len(tail_halluc) + 1:
        raise ConfigError("need one sign for the probe slot plus one per tail feature")
    feats = feature_rows([probe_x, *tail_halluc])
    return _sup_value(*history, signs, feats, cls, loss)
