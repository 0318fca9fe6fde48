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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import (
    ConfigError,
    HypothesisClass,
    LossFn,
    best_in_hindsight,
    feature_rows,
    loss_eval,
)
from .environment import Adversary, sample_feature
from .predictor import (
    MAX_BATCH_ELEMENTS,
    GameHistory,
    PredictorConfig,
    RelaxationDraw,
    SidePool,
    draw_halluc,
    predict_binary_fast,
    predict_binary_fast_batch,
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

    def __post_init__(self):
        check_seed(self.seed)


def check_seed(seed, name: str = "seed") -> int:
    """`seed` as an int if it is a non-negative integer (Python or numpy, not bool); else ConfigError."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")
    return int(seed)


def round_rng(seed: int, stream: int, t: int) -> np.random.Generator:
    """The generator of one stream at round t: the reference that every
    runner's `RoundStreams` reproduces bit for bit.

    Streams: 1 features, 2 hallucination draws, 3 probes, 4 adversary noise,
    5 the bandit's arm play and cost estimate.
    """
    return np.random.default_rng([seed, stream, t])


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4

SEED_WINDOW = 4096  # rounds of seed words a RoundStreams table fills at a time


def _u32_words(n: int) -> list:
    """A non-negative integer as SeedSequence reads it: little-endian 32-bit words."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


def _pcg64_seed_words(entropy: list) -> np.ndarray:
    """The words `SeedSequence(entropy).generate_state(4, np.uint64)` returns, for
    a batch of entropies at once.

    `entropy` lists uint32 arrays, one per entropy word, each of shape (1,)
    (the same word in every entropy) or (n,); the result has shape (n, 4).
    All arithmetic is on uint32 arrays, which wrap silently as the C code does.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))

    # generate_state: 8 uint32 words cycling through the pool, read as 4
    # little-endian uint64 pairs
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        halves.append((value ^ (value >> 16)).astype(np.uint64))
    out = np.empty((max(h.size for h in halves), 4), dtype=np.uint64)
    for k in range(4):
        out[:, k] = halves[2 * k] | (halves[2 * k + 1] << 32)
    return out


class _SeedWords(ISeedSequence):
    """A seed sequence whose PCG64 state words are already known."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("_SeedWords only seeds PCG64 (4 uint64 words)")
        return self.words


class RoundStreams:
    """The generators `round_rng(seed, stream, t)` of one game, for rounds 1..T.

    Each stream's PCG64 seed words come from one numpy pass of SeedSequence's
    hash over a window of SEED_WINDOW rounds, refilled when a round outside
    the window is asked for, so `rngs(stream, t)` skips SeedSequence and is
    bit-identical to `round_rng(seed, stream, t)`.
    """

    def __init__(self, seed: int, T: int, streams):
        seed = check_seed(seed)
        if not 1 <= T <= _MASK32:
            raise ConfigError(f"T must lie in [1, 2**32 - 1], got {T}")
        self.T = T
        self._prefix = {}  # stream -> its entropy words before t
        self._windows = {}  # stream -> (first round of the window, its seed words)
        for stream in streams:
            words = _u32_words(seed) + _u32_words(check_seed(stream, "stream"))
            self._prefix[stream] = [np.array([w], dtype=np.uint32) for w in words]

    def _fill(self, stream: int, t: int):
        if stream not in self._prefix:
            raise ConfigError(f"stream {stream} is not one of {sorted(self._prefix)}")
        if not 1 <= t <= self.T:
            raise ConfigError(f"round {t} outside 1..{self.T}")
        lo = (t - 1) // SEED_WINDOW * SEED_WINDOW + 1
        ts = np.arange(lo, min(lo + SEED_WINDOW, self.T + 1), dtype=np.uint32)
        self._windows[stream] = window = (lo, _pcg64_seed_words(self._prefix[stream] + [ts]))
        return window

    def rngs(self, stream: int, t: int) -> np.random.Generator:
        """The generator of `stream` at round t."""
        lo, words = self._windows.get(stream, (1, ()))
        if not lo <= t < lo + len(words):
            lo, words = self._fill(stream, t)
        return np.random.Generator(np.random.PCG64(_SeedWords(words[t - lo])))


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

    def next_chunk(self, limit: int) -> int:
        """Rounds in the next chunk: at most `limit`, none past the end of the
        next round's epoch, and few enough that their 2 rows per round of at
        most the epoch's length fit in one batch."""
        if self.j < self.epoch_len:
            m, left = self.epoch_len, self.epoch_len - self.j
        else:
            m = left = epoch_length(self.schedule, self.n + 1)
        return max(1, min(limit, left, MAX_BATCH_ELEMENTS // (2 * m)))

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

    def record(self, y_t) -> None:
        self.ys[self.j - 1] = y_t

    def draw(self, rng: np.random.Generator) -> RelaxationDraw:
        """A hallucination draw for the current round: the rest of the epoch, as far as the pool reaches."""
        return draw_halluc(self.pool, min(self.epoch_len - self.j, self.pool.size), rng)

    def predict(self, js, draws, cls) -> tuple[list, list]:
        """Predictions of this epoch's local rounds `js` on their draws, and each one's ERM calls.

        Round j's history is the epoch's x_1..x_j and y_1..y_{j-1}; probes
        pass their own cloned `cls`. The fast path solves all rounds in one
        batch when the class can; every round then makes the same calls.
        """
        if self.use_fast and cls.solve_rows is not None:
            before = cls.solve_calls
            yhats = predict_binary_fast_batch(self.xs, self.ys, js, draws, cls, self.loss)
            return yhats.tolist(), [(cls.solve_calls - before) // len(js)] * len(js)
        predict = predict_binary_fast if self.use_fast else predict_general
        yhats, calls = [], []
        for j, draw in zip(js, draws):
            before = cls.solve_calls
            yhats.append(predict(GameHistory(self.xs[:j], self.ys[: j - 1]), draw, cls, self.pconf))
            calls.append(cls.solve_calls - before)
        return yhats, calls

    def probe(self, streams: RoundStreams, t: int, probe_mc: int):
        """Monte-Carlo mean prediction of the current round on its own RNG
        stream and a cloned oracle; never touches the game's RNG or counts."""

        def probe() -> float:
            rng = streams.rngs(3, t)
            draws = [self.draw(rng) for _ in range(probe_mc)]
            yhats, _ = self.predict([self.j] * probe_mc, draws, self.cls.clone())
            return float(np.mean(yhats))

        return probe


def _resolve_fast(config: RunConfig, cls: HypothesisClass, loss: LossFn, adversary: Adversary) -> bool:
    if config.fast_binary_path is not None:
        return bool(config.fast_binary_path)
    return cls.is_binary and loss.kind == "absolute" and adversary.binary_labels


@dataclass
class PlayedRounds:
    """Per-round columns of a played game, plus each segment's final predictor state."""

    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    yhats: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    meta: list = field(default_factory=list)  # (block, epoch, j, erm_calls) per round
    states: list = field(default_factory=list)
    use_fast: bool = False


def play_rounds(
    schedule: EpochSchedule,
    cls: HypothesisClass,
    loss: LossFn,
    env,
    adversary: Adversary,
    T: int,
    block: int,
    config: RunConfig,
) -> PlayedRounds:
    """Play T rounds; the epoch predictor restarts from scratch every `block` rounds.

    Rounds go in chunks up to the end of the epoch (and of the block, and of
    one batch). A chunk samples each round's feature, emits its label (an
    adversary that is not oblivious first probes that round's mean
    prediction) and draws its hallucinations, then predicts all its rounds
    in one call. No adversary sees the game's own predictions: a probe runs
    on stream 3 with a cloned oracle, and every stream is per (seed, stream,
    t) (`RoundStreams`), so the chunks draw exactly what round-by-round play
    would, and erm_calls counts each round's own prediction.
    """
    if T < 1:
        raise ConfigError("T must be >= 1")
    played = PlayedRounds(use_fast=_resolve_fast(config, cls, loss, adversary))
    oblivious = adversary.kind == "oblivious"
    streams = RoundStreams(config.seed, T, (1, 2, 4) if oblivious else (1, 2, 3, 4))
    history: list = []
    t = 0
    while t < T:
        state = _EpochPredictorState(schedule, cls, loss, config, played.use_fast)
        played.states.append(state)
        end = min(t + block, T)
        while t < end:
            k = state.next_chunk(end - t)
            js, draws = [], []
            for t in range(t + 1, t + k + 1):
                x_t = sample_feature(env, t, streams.rngs(1, t))
                state.advance(x_t)
                probe = None if oblivious else state.probe(streams, t, config.probe_mc)
                y_t = adversary.emit(t, history, x_t, probe, streams.rngs(4, t))
                state.record(y_t)
                history.append((x_t, y_t))
                played.xs.append(x_t)
                played.ys.append(y_t)
                js.append(state.j)
                draws.append(state.draw(streams.rngs(2, t)))
            yhats, calls = state.predict(js, draws, cls)
            for yhat, y_t, j, erm_calls in zip(yhats, played.ys[-k:], js, calls):
                played.yhats.append(yhat)
                played.losses.append(loss_eval(loss, yhat, y_t))
                played.meta.append((len(played.states), state.n, j, erm_calls))
    return played


def online_trace(cls: HypothesisClass, loss: LossFn, played: PlayedRounds):
    """The per-round trace of `played` against the best fixed hypothesis in hindsight.

    Returns the trace, the comparator oracle (a clone of `cls`) and the
    game's features and labels as arrays.
    """
    X, Y = feature_rows(played.xs), np.array(played.ys)
    comparator = cls.clone()
    h_star, _ = best_in_hindsight(comparator, loss=loss, xs=X, ys=Y)
    trace = RegretTrace(columns=ONLINE_COLUMNS)
    cum_loss = cum_comp = 0.0
    for t, (x, y, yhat, loss_t, (block, n, j, erm_calls)) in enumerate(
        zip(played.xs, played.ys, played.yhats, played.losses, played.meta), start=1
    ):
        cum_loss += loss_t
        cum_comp += loss_eval(loss, comparator.evaluate(h_star, x), y)
        trace.append(
            t=t, block=block, epoch=n, j=j,
            x=_feature_repr(x), y=y, yhat=yhat,
            loss=loss_t, cum_loss=cum_loss, cum_regret=cum_loss - cum_comp,
            erm_calls=erm_calls,
        )
    return trace, comparator, X, Y


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
    played = play_rounds(schedule, cls, loss, env, adversary, T, T, config)
    trace, comparator, X, Y = online_trace(cls, loss, played)
    (state,) = played.states
    _check_epoch_additivity(trace, comparator, X, Y, played.losses, [m[1] for m in played.meta], loss)
    trace.metadata.update(
        seed=config.seed, T=T, rounding_drift=state.drift, halluc_shortfall=state.shortfall,
        adversary=adversary.kind, fast_binary_path=played.use_fast,
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
