"""Epoch schedules and the epoch wrapper that turns the side-information
predictor into an online learner for unknown i.i.d. feature processes.

Epoch n has length M(n); every prediction inside epoch n hallucinates from
the pool of all features observed before the epoch started. Fractional epoch
lengths are rounded half-up and the cumulative drift against the real-valued
formula is logged in the trace metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import (
    ConfigError,
    HypothesisClass,
    InputDomainError,
    LossFn,
    best_in_hindsight,
    check_count,
    check_seed,
    feature_list,
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
    draw_slots,
    predict_binary_fast,
    predict_binary_fast_batch,
    predict_binary_fast_block,
    predict_general,
)
from .traces import ONLINE_COLUMNS, RegretTrace, running_total

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
            # written so that NaN fails too
            if not 1.0 < self.ratio < math.inf:
                raise ConfigError(f"geometric ratio must be finite and exceed 1, got {self.ratio!r}")
        elif self.kind == "fixed":
            if not 1 <= self.block < math.inf:
                raise ConfigError(f"fixed block length must be finite and >= 1, got {self.block!r}")
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


class EpochClock:
    """The epoch walk of one segment, which every runner advances: round j of
    epoch n, whose `length` rounds follow the `start` rounds of earlier epochs
    (`locate` is its reference).

    A round hallucinates the rest of its epoch from the features of earlier
    epochs, `count` = min(length - j, start) of them; `shortfall` counts the
    rounds whose count the pool cut short, and `drift` sums |length - exact
    length| over the epochs begun so far.
    """

    def __init__(self, schedule: EpochSchedule):
        self.schedule = schedule
        self.n, self.j, self.start, self.count = 1, 0, 0, 0
        self.length = epoch_length(schedule, 1)
        self.drift = abs(self.length - schedule.exact_length(1))
        self.shortfall = 0

    def tick(self) -> bool:
        """Move to the next round; True when it opens an epoch."""
        self.j += 1
        if self.j > self.length:
            self.start += self.length
            self.n += 1
            self.j = 1
            self.length = epoch_length(self.schedule, self.n)
            self.drift += abs(self.length - self.schedule.exact_length(self.n))
        self.count = min(self.length - self.j, self.start)
        self.shortfall += self.count < self.length - self.j
        return self.j == 1


@dataclass
class RunConfig:
    """Run-level knobs: seeding and probe Monte-Carlo size."""

    seed: int = 0
    probe_mc: int = 64

    def __post_init__(self):
        check_seed(self.seed)
        check_count(self.probe_mc, "probe_mc")


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


def _predict(xs, ys, los, js, draws, confs, cls, use_fast: bool) -> tuple[list, list]:
    """Predictions of rounds of the game whose features and labels are `xs`
    and `ys`, and each one's ERM calls.

    Round r is local round js[r] of the epoch that starts at index los[r]
    of those arrays, played on the draw draws[r] under that epoch's
    PredictorConfig confs[r]. The fast path solves all rounds in one batch
    when the class can, and every round then makes the same calls; else
    the rounds are predicted one at a time.
    """
    if use_fast and cls.solve_rows is not None:
        before = cls.solve_calls
        yhats = predict_binary_fast_batch(xs, ys, los, js, draws, cls, confs[0].loss)
        return yhats.tolist(), [(cls.solve_calls - before) // len(js)] * len(js)
    predict = predict_binary_fast if use_fast else predict_general
    yhats, calls = [], []
    for lo, j, draw, pconf in zip(los, js, draws, confs):
        before = cls.solve_calls
        yhats.append(predict(GameHistory(xs[lo : lo + j], ys[lo : lo + j - 1]), RelaxationDraw(*draw), cls, pconf))
        calls.append(cls.solve_calls - before)
    return yhats, calls


class _EpochPredictorState:
    """Predictor-side state for one independent segment (one block or run)
    of the game whose rounds are written to `xs` and `ys`, from index `first`.

    The side pool (the segment's features before the current epoch) is a
    view of `xs`; the current epoch starts at index `lo` of both arrays.
    """

    def __init__(self, schedule, cls, loss, use_fast: bool, xs: np.ndarray, ys: np.ndarray, first: int):
        self.clock = EpochClock(schedule)
        self.probe_cls = cls.clone()  # every probe of the segment solves on this one clone
        self.loss = loss
        self.use_fast = use_fast
        self.game_xs, self.game_ys, self.first = xs, ys, first
        self.pool = self.lo = self.pconf = None  # set when the first round opens epoch 1

    def advance(self) -> None:
        """Move to the next local round, whose feature the game has written."""
        clock = self.clock
        if clock.tick():
            self.lo = self.first + clock.start
            self.pool = SidePool(self.game_xs[self.first : self.lo])
            self.pconf = PredictorConfig(horizon=clock.length, loss=self.loss)
            # the label losses |0 - y| of the epoch's first `summed` rounds, added left to right,
            # and their flip deltas |1 - y| - |0 - y|
            self.prefix, self.summed, self.flips = 0.0, 0, np.empty(clock.length)

    def draw(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """A hallucination draw for the current round, as (halluc, signs): the
        rest of the epoch, as far as the pool reaches."""
        idx, signs = draw_slots(self.pool.size, self.clock.count, rng)
        return self.pool.features[idx], signs

    def probe(self, streams: RoundStreams, t: int, probe_mc: int):
        """Monte-Carlo mean prediction of the current round on its own RNG
        stream and the segment's one oracle clone; never touches the game's
        RNG or counts. On the fast path, the probe_mc draws share the one
        history, j and count, so a class with `solve_rows` solves them as one
        row block; else each draw is predicted as a queued round would be.
        """

        def probe() -> float:
            rng = streams.rngs(3, t)
            lo, j = self.lo, self.clock.j
            if not (self.use_fast and self.probe_cls.solve_rows is not None):
                draws = [self.draw(rng) for _ in range(probe_mc)]
                yhats, _ = _predict(
                    self.game_xs, self.game_ys, [lo] * probe_mc, [j] * probe_mc, draws,
                    [self.pconf] * probe_mc, self.probe_cls, self.use_fast,
                )
                return float(np.mean(yhats))
            count = self.clock.count
            slots, signs = np.empty((probe_mc, count), dtype=np.intp), np.empty((probe_mc, count))
            for i in range(probe_mc):
                slots[i], signs[i] = draw_slots(self.pool.size, count, rng)
            for k, y in enumerate(self.game_ys[lo + self.summed : lo + j - 1].tolist(), self.summed):
                loss0 = abs(0.0 - y)  # as the left-to-right cumsum adds them
                self.prefix += loss0
                self.flips[k] = abs(1.0 - y) - loss0
            self.summed = j - 1
            yhats = predict_binary_fast_block(
                self.game_xs[lo : lo + j], self.prefix, self.flips[: j - 1],
                self.pool.features, slots, signs, self.probe_cls, self.loss,
            )
            return float(yhats.sum() / probe_mc)  # np.mean's sum and division

        return probe


@dataclass
class PlayedRounds:
    """A played game as T-length arrays, each round written once, plus each
    segment's final predictor state."""

    xs: np.ndarray  # float64 features, (T,) or (T, d)
    ys: np.ndarray
    yhats: np.ndarray
    losses: np.ndarray
    meta: np.ndarray  # (T, 4) ints: block, epoch, j and erm_calls of each round
    use_fast: bool
    probed: bool  # whether the adversary probed each round's mean prediction
    states: list = field(default_factory=list)


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

    The 2-call fast path runs exactly when the class is binary, the loss
    absolute and the adversary declares {0,1} labels; else `predict_general`.

    Each round samples its feature, emits its label (an adversary that is
    not oblivious first probes that round's mean prediction) and draws its
    hallucinations, then joins one queue of rounds that crosses epoch and
    block ends. The queue is predicted in one call when the next round's 2
    rows would take it past MAX_BATCH_ELEMENTS elements, and at the end of
    the game. No adversary sees the game's own predictions: a probe runs on
    stream 3 with one oracle clone per segment, and every stream is per
    (seed, stream, t) (`RoundStreams`), so the queue draws exactly what
    round-by-round play would, and erm_calls counts each round's own calls.
    x_1 is sampled first, to size the game's arrays.
    """
    if T < 1:
        raise ConfigError("T must be >= 1")
    oblivious = adversary.kind == "oblivious"
    use_fast = cls.is_binary and loss.kind == "absolute" and adversary.binary_labels
    streams = RoundStreams(config.seed, T, (1, 2, 4) if oblivious else (1, 2, 3, 4))
    x_t = sample_feature(env, 1, streams.rngs(1, 1))
    shape = feature_rows([x_t]).shape[1:]
    played = PlayedRounds(
        xs=np.empty((T, *shape)), ys=np.empty(T), yhats=np.empty(T), losses=np.empty(T),
        meta=np.empty((T, 4), dtype=np.intp), use_fast=use_fast, probed=not oblivious,
    )
    history: list = []
    queue, elements = [], 0  # queued rounds as (lo, j, draw, pconf), and their rows' elements

    def flush(end: int) -> None:
        """Predict the queued rounds, which end at round `end`."""
        rounds = slice(end - len(queue), end)
        yhats, calls = _predict(played.xs, played.ys, *zip(*queue), cls, use_fast)
        played.yhats[rounds] = yhats
        played.losses[rounds] = [loss_eval(loss, p, y) for p, y in zip(yhats, played.ys[rounds].tolist())]
        played.meta[rounds, 3] = calls
        queue.clear()

    for t in range(1, T + 1):
        if t > 1:
            x_t = sample_feature(env, t, streams.rngs(1, t))
            # numpy would broadcast a scalar into a vector row; other mismatches raise when written
            if shape and np.shape(x_t) != shape:
                raise InputDomainError("features must be all scalars or all vectors of one length")
        played.xs[t - 1] = x_t
        if (t - 1) % block == 0:
            state = _EpochPredictorState(schedule, cls, loss, use_fast, played.xs, played.ys, t - 1)
            played.states.append(state)
        state.advance()
        probe = None if oblivious else state.probe(streams, t, config.probe_mc)
        y_t = adversary.emit(t, history, x_t, probe, streams.rngs(4, t))
        played.ys[t - 1] = y_t
        history.append((x_t, y_t))
        clock = state.clock
        played.meta[t - 1, :3] = len(played.states), clock.n, clock.j
        size = 2 * (clock.j + clock.count)  # its 2 rows: x_1..x_j, then the draw
        if queue and elements + size > MAX_BATCH_ELEMENTS:
            flush(t - 1)
            elements = 0
        queue.append((state.lo, clock.j, state.draw(streams.rngs(2, t)), state.pconf))
        elements += size
    flush(T)
    return played


def online_trace(cls: HypothesisClass, loss: LossFn, played: PlayedRounds):
    """The per-round trace of `played` against the best fixed hypothesis in
    hindsight, and that comparator oracle (a clone of `cls`).

    The cumulative columns are running totals of the per-round losses. The
    metadata sums each segment's rounding drift and hallucination shortfall;
    a probed game's also counts the probes' oracle calls, which the
    erm_calls column leaves out.
    """
    comparator = cls.clone()
    h_star, _ = best_in_hindsight(comparator, loss=loss, xs=played.xs, ys=played.ys)
    ys = played.ys.tolist()
    comp_losses = [loss_eval(loss, comparator.evaluate(h_star, x), y) for x, y in zip(feature_list(played.xs), ys)]
    cum_loss = running_total(played.losses)
    xs = played.xs.tolist() if played.xs.ndim == 1 else [";".join(map(repr, x)) for x in played.xs.tolist()]
    blocks, epochs, js, erm_calls = played.meta.T.tolist()
    trace = RegretTrace(
        columns=ONLINE_COLUMNS,
        rows=list(
            zip(
                range(1, len(ys) + 1), blocks, epochs, js, xs, ys, played.yhats.tolist(), played.losses.tolist(),
                cum_loss.tolist(), (cum_loss - running_total(comp_losses)).tolist(), erm_calls,
            )
        ),
    )
    clocks = [state.clock for state in played.states]
    trace.metadata.update(
        rounding_drift=sum(c.drift for c in clocks), halluc_shortfall=sum(c.shortfall for c in clocks),
        fast_binary_path=played.use_fast,
    )
    if played.probed:
        trace.metadata["probe_erm_calls"] = sum(state.probe_cls.solve_calls for state in played.states)
    return trace, comparator


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
    trace, comparator = online_trace(cls, loss, played)
    _check_epoch_additivity(trace, comparator, loss, played)
    trace.metadata.update(seed=config.seed, T=T, adversary=adversary.kind)
    return trace


def segment_regrets(oracle: HypothesisClass, loss: LossFn, played: PlayedRounds, starts) -> list:
    """Each segment's summed losses minus those of its own best fixed
    hypothesis in hindsight; segment i runs from round index starts[i]
    (0-based) up to the next start, the last one to the end of the game."""
    regrets, losses = [], played.losses.tolist()
    for start, end in zip(starts, [*starts[1:], len(losses)]):
        _, comp = best_in_hindsight(oracle, loss=loss, xs=played.xs[start:end], ys=played.ys[start:end])
        regrets.append(sum(losses[start:end]) - comp)
    return regrets


def _check_epoch_additivity(trace, comparator, loss, played: PlayedRounds):
    """Total regret never exceeds the sum of per-epoch regrets measured
    against per-epoch comparators (which are at least as good per epoch)."""
    starts = np.flatnonzero(np.diff(played.meta[:, 1], prepend=0)).tolist()  # epochs count from 1
    if trace.final_regret > sum(segment_regrets(comparator, loss, played, starts)) + 1e-9:
        raise AssertionError("epoch regret additivity violated")
