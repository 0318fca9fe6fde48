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
    check_count,
    check_seed,
    feature_list,
    feature_rows,
    loss_eval,
)
from .oracles import scalar_rows


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

    def pairs(self) -> tuple[LabeledPair, ...]:
        """The rounds already played, as labeled pairs."""
        return tuple(LabeledPair(x, y) for x, y in zip(feature_list(self.xs[:-1]), self.ys.tolist()))


PERMUTE_MAX_SLOTS = 400  # pools this small are permuted whole, larger ones sampled with `choice`


def draw_slots(size: int, count: int, rng: np.random.Generator, shape: tuple = ()) -> tuple:
    """`count` distinct slots out of `size`, in uniform order, and one sign
    array of `shape` per slot, for a checked `count`.

    `rng` gives the slots, then one uniform per sign, slot by slot; a sign
    is -1 where its uniform falls below 1/2 (exactly half of the doubles
    `random` returns), else +1. No RNG use when `count` is 0. A pool of
    more than PERMUTE_MAX_SLOTS slots is sampled with `Generator.choice`,
    which costs O(count) there instead of a whole permutation's O(size).
    """
    if count == 0:
        return np.empty(0, dtype=np.intp), np.empty((0, *shape))
    if size > PERMUTE_MAX_SLOTS:
        slots = rng.choice(size, count, replace=False)
    else:
        slots = rng.permutation(size)[:count]
    return slots, np.copysign(1.0, rng.random((count, *shape)) - 0.5)


def draw_halluc(pool, count: int, rng: np.random.Generator) -> RelaxationDraw:
    """Uniform ordered draw of `count` features of the side pool (the observed
    features, stacked by `feature_rows`) plus i.i.d. uniform signs; a count
    that is no non-negative integer (ConfigError) or that the pool cannot
    supply (PoolExhaustedError) raises before the RNG is used."""
    count, pool = check_seed(count, "count"), feature_rows(pool)
    if count > len(pool):
        raise PoolExhaustedError(f"requested {count} hallucinations from a pool of {len(pool)}")
    idx, signs = draw_slots(len(pool), count, rng)
    return RelaxationDraw(pool[idx], signs, idx)


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
    """inner_sup at each label of `probe_ys`, one solve each. The queries
    differ only in the probe label, so the history and the draw are checked
    once.
    """
    query = _probe_query(history, draw, 0.0, config.loss)
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
    """Exact absolute-loss prediction with 2 oracle calls, for any [0,1]-valued
    class and labels in [0,1]: for fixed h, |yhat - y| - |h(x_j) - y| is monotone
    in y, so the label sup of |yhat - y| + G(y) is reached at y = 0 or 1.

    phi(yhat) = max(yhat + G(0), 1 - yhat + G(1)) is minimized where the two
    branches meet, clamped to [0,1]; `minimax_step` on {0, 1} can differ from
    this in the last bit where the result clips at 1.
    """
    if config.loss.kind != "absolute":
        raise ConfigError("the 2-call prediction needs the absolute loss")
    g0, g1 = inner_sups(history, draw, (0.0, 1.0), cls, config)
    return float(np.clip((1.0 + g1 - g0) / 2.0, 0.0, 1.0))


# Elements (rows x terms) in one batched solve; bounds the memory of long epochs.
MAX_BATCH_ELEMENTS = 1 << 16
# the flip deltas |1 - y| - |0 - y| of the probe labels y = 0, 1, whose losses |0 - y| are 0 and 1
_PROBE_DLT = np.array([1.0, -1.0])


def row_route(cls: HypothesisClass, loss: LossFn) -> bool:
    """Whether the row builders below predict for `cls` under `loss`: the
    absolute loss, whose Lipschitz constant is 1, and a class with `solve_rows`."""
    return loss.kind == "absolute" and cls.solve_rows is not None


def predict_binary_fast_batch(
    xs: np.ndarray,
    sums: np.ndarray,
    flips: np.ndarray,
    rounds: Sequence[tuple],
    cls: HypothesisClass,
) -> np.ndarray:
    """Absolute-loss predict_binary_fast for many rounds of one game, bit for bit, in batched solves.

    Game round i has feature xs[i], label-loss prefix sums[i] (|0 - y| of
    its epoch's earlier rounds, added left to right) and flip delta
    flips[i] = |1 - y| - |0 - y|. Each round is (lo, j, halluc, signs):
    round j of the epoch that starts at index lo, on the draw (halluc,
    signs). Its two queries become two flip-delta rows (probe label 0, then
    1) for `cls.solve_rows`, of base sums[lo+j-1] plus the probe label's
    loss; rows of one length are solved together, whatever their epoch, at
    most MAX_BATCH_ELEMENTS elements at a time; each row counts one call.
    """
    if cls.solve_rows is None:
        raise ConfigError("the fast path's rows need a class with solve_rows")
    xs = scalar_rows(xs)
    groups = {}  # row length -> its rounds, in order
    for r, (_, j, halluc, _) in enumerate(rounds):
        groups.setdefault(j + len(halluc), []).append(r)
    yhats = np.empty(len(rounds))
    for n in sorted(groups):
        same = groups[n]
        step = max(1, MAX_BATCH_ELEMENTS // (2 * max(n, 1)))
        for chunk in (same[i : i + step] for i in range(0, len(same), step)):
            # rows 2i and 2i+1 (probe label 0, then 1): x_1..x_j, then the round's draw
            pos, dlt, base = np.empty((2 * len(chunk), n)), np.empty((2 * len(chunk), n)), []
            for i, r in enumerate(chunk):
                lo, j, halluc, signs = rounds[r]
                two, prefix = slice(2 * i, 2 * i + 2), sums[lo + j - 1]
                pos[two, :j], pos[two, j:] = xs[lo : lo + j], scalar_rows(halluc)
                dlt[two, : j - 1], dlt[two, j - 1] = flips[lo : lo + j - 1], _PROBE_DLT
                dlt[two, j:] = -2.0 * signs  # the sup query negates the signs
                base += (prefix, prefix + 1.0)
            if not np.isfinite(pos).all():
                raise InputDomainError("features must be finite")
            _, objectives = cls.solve_rows(np.array(base), pos, dlt)
            # 1 + g1 - g0 with g = -objective, added in the same order
            yhats[chunk] = np.clip((1.0 - objectives[1::2] + objectives[0::2]) / 2.0, 0.0, 1.0)
    return yhats


def predict_binary_fast_block(
    xs: np.ndarray,
    sums: np.ndarray,
    flips: np.ndarray,
    lo: int,
    j: int,
    pool: np.ndarray,
    slots: np.ndarray,
    signs: np.ndarray,
    cls: HypothesisClass,
) -> np.ndarray:
    """Absolute-loss predict_binary_fast of many draws over one history, bit for bit, in one `solve_rows` call.

    The history is round j of the epoch at index lo of the game's arrays,
    read as `predict_binary_fast_batch` reads them. Draw i hallucinates
    pool[slots[i]] with signs[i]; `slots` and `signs` are (draws, count), a
    `draw_slots` draw per row. Its two queries (probe label 0, then 1) are
    rows 2i and 2i+1 of one (2 draws, j + count) block, whose history
    columns are written once for all rows; each row counts one solve call.
    """
    if cls.solve_rows is None:
        raise ConfigError("the fast path's rows need a class with solve_rows")
    xs, pool, base = scalar_rows(xs[lo : lo + j]), scalar_rows(pool), sums[lo + j - 1]
    draws, count = slots.shape
    # draw i's rows 2i and 2i+1 as pos[i] and dlt[i]
    pos, dlt = np.empty((draws, 2, j + count)), np.empty((draws, 2, j + count))
    pos[:, :, :j], pos[:, :, j:] = xs, pool[slots][:, None]
    dlt[:, :, : j - 1], dlt[:, :, j - 1] = flips[lo : lo + j - 1], _PROBE_DLT
    dlt[:, :, j:] = (-2.0 * signs)[:, None]  # the sup query negates the signs
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
    pool,
    cls: HypothesisClass,
    config: PredictorConfig,
    mc_samples: int,
    rng: np.random.Generator,
    *,
    true_env=None,
) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, stderr) of the surrogate relaxation R_j.

    R_j = E[sup_h 2L sum_{i>j} eps_i h(x~_i) - L_j^h], hallucinations drawn
    from the pool (features, as `feature_rows` stacks them). `history` is
    the j realized rounds as (xs, ys) arrays.
    With `true_env` (anything with a .sample(rng) method; diagnostic use
    only) this is R~_j instead: slot j+1 is drawn from the true feature
    source, with its own sign, and only the later slots from the pool.
    """
    xs, ys = history
    mc_samples = check_count(mc_samples, "mc_samples")
    count, pool = config.horizon - j, feature_rows(pool)
    if count < 0:
        raise ConfigError("j exceeds the horizon")
    if count == 0:
        return _sup_value(xs, ys, (), pool[:0], cls, config.loss), 0.0
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
