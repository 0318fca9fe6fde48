"""Epoch schedules and the epoch wrapper that turns the side-information
predictor into an online learner for unknown i.i.d. feature processes.

Epoch n has length M(n); every prediction inside epoch n hallucinates from
the pool of all features observed before the epoch started. Fractional epoch
lengths are rounded half-up and the cumulative drift against the real-valued
formula is logged in the trace metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    draw_slots,
    predict_binary_fast,
    predict_binary_fast_batch,
    predict_binary_fast_block,
    predict_general,
    row_route,
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


class EpochClock:
    """The epoch walk of one segment, which every runner advances: round j of
    epoch n, whose `length` rounds follow the `start` rounds of earlier epochs.

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


def game_streams(seed: int, *streams: int) -> list:
    """The game's generators `np.random.default_rng([seed, stream])`, one per
    stream. Streams: 1 features, 2 hallucination draws, 3 probes, 4 adversary
    noise, 5 the bandit's arm play and cost estimate.

    Each stream is consumed in round order, and no round's use of it reads
    the horizon, so the first T rounds of a longer game draw what the game of
    T rounds draws.
    """
    seed = check_seed(seed)
    return [np.random.default_rng([seed, check_seed(stream, "stream")]) for stream in streams]


def game_features(env, rng: np.random.Generator, T: int) -> np.ndarray:
    """The game's features x_1..x_T, sampled from `env` in round order on
    `rng` (the game's stream 1), as one read-only float64 array, (T,) or (T, d).

    Features of mixed shapes, or with a NaN or infinite entry, raise
    `InputDomainError` here, before any round is played.
    """
    xs = feature_rows([sample_feature(env, t, rng) for t in range(1, T + 1)])
    if not np.isfinite(xs).all():
        raise InputDomainError("features must be finite")
    xs.flags.writeable = False
    return xs


def _predict(played, rounds, confs, cls) -> tuple[list, list]:
    """Predictions of rounds of the game `played`, and each one's ERM calls.

    Each round is (lo, j, halluc, signs), as `predict_binary_fast_batch`
    reads it, under its epoch's PredictorConfig in `confs`. On the row
    route (`row_route`) all rounds are solved in one batch, and every round
    then makes the same calls; else they are predicted one at a time.
    """
    if row_route(cls, confs[0].loss):
        before = cls.solve_calls
        yhats = predict_binary_fast_batch(played.xs, played.sums, played.flips, rounds, cls)
        return yhats.tolist(), [(cls.solve_calls - before) // len(rounds)] * len(rounds)
    predict = predict_binary_fast if confs[0].loss.kind == "absolute" else predict_general
    xs, ys, yhats, calls = played.xs, played.ys, [], []
    for (lo, j, *draw), pconf in zip(rounds, confs):
        before = cls.solve_calls
        yhats.append(predict(GameHistory(xs[lo : lo + j], ys[lo : lo + j - 1]), RelaxationDraw(*draw), cls, pconf))
        calls.append(cls.solve_calls - before)
    return yhats, calls


class _EpochPredictorState:
    """Predictor-side state for one independent segment (one block or run)
    of the game `played`, from index `first`.

    The side pool (the segment's features before the current epoch) is the
    slice played.xs[first:lo]; the current epoch starts at index `lo` of
    the game's arrays. It writes each round's `played.sums` entry.
    """

    def __init__(self, schedule, cls, loss, played: PlayedRounds, first: int):
        self.clock = EpochClock(schedule)
        self.probe_cls = cls.clone()  # every probe of the segment solves on this one clone
        self.loss = loss
        self.played, self.first = played, first
        self.pool = self.lo = self.pconf = None  # set when the first round opens epoch 1
        self.drifts = []  # the clock's rounding drift as each epoch opens

    def advance(self) -> None:
        """Move to the next local round, whose feature the game has written,
        and write its label-loss prefix, which its probe reads."""
        clock, played = self.clock, self.played
        if clock.tick():
            self.drifts.append(clock.drift)
            self.lo = self.first + clock.start
            self.pool = played.xs[self.first : self.lo]
            self.pconf = PredictorConfig(horizon=clock.length, loss=self.loss)
        i = self.lo + clock.j - 1
        played.sums[i] = 0.0 if clock.j == 1 else played.sums[i - 1] + abs(0.0 - played.ys[i - 1])

    def draw(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """A hallucination draw for the current round, as (halluc, signs): the
        rest of the epoch, as far as the pool reaches."""
        idx, signs = draw_slots(len(self.pool), self.clock.count, rng)
        return self.pool[idx], signs

    def probe(self, rng: np.random.Generator, probe_mc: int):
        """The current round's probe: its Monte-Carlo mean prediction over
        probe_mc draws from `rng` (the game's stream 3) on the segment's one
        oracle clone; never touches the game's other streams or counts.

        The first call draws and predicts, and every later call returns the
        same value, so stream 3 moves once in each round that probes,
        however often the adversary asks. The probe_mc draws share the one
        history, j and count, so on the row route (`row_route`) they are
        solved as one row block; else each draw is predicted as a queued
        round would be.
        """
        value = []

        def probe() -> float:
            if not value:
                value.append(self._probe_mean(rng, probe_mc))
            return value[0]

        return probe

    def _probe_mean(self, rng: np.random.Generator, probe_mc: int) -> float:
        lo, j, played = self.lo, self.clock.j, self.played
        if not row_route(self.probe_cls, self.loss):
            rounds = [(lo, j, *self.draw(rng)) for _ in range(probe_mc)]
            yhats, _ = _predict(played, rounds, [self.pconf] * probe_mc, self.probe_cls)
            return float(np.mean(yhats))
        count = self.clock.count
        slots, signs = np.empty((probe_mc, count), dtype=np.intp), np.empty((probe_mc, count))
        for i in range(probe_mc):
            slots[i], signs[i] = draw_slots(len(self.pool), count, rng)
        yhats = predict_binary_fast_block(
            played.xs, played.sums, played.flips, lo, j, self.pool, slots, signs, self.probe_cls
        )
        return float(yhats.sum() / probe_mc)  # np.mean's sum and division


@dataclass
class PlayedRounds:
    """A played game as T-length arrays, each round written once.

    The segments' clocks and probe clones leave what the trace metadata
    reads in `meta` and `drifts`, as they stood after every round, so the
    first rounds of a game are a played game too (`prefix`).
    """

    xs: np.ndarray  # float64 features, (T,) or (T, d)
    ys: np.ndarray
    yhats: np.ndarray
    losses: np.ndarray
    # the fast path's label sums: each round's label-loss prefix, |0 - y| of its epoch's
    # earlier rounds added left to right, and its label's flip delta |1 - y| - |0 - y|
    sums: np.ndarray
    flips: np.ndarray
    # (T, 6) ints: block, epoch and j of each round, its segment's hallucination
    # shortfall and probe oracle calls so far, and the round's erm_calls
    meta: np.ndarray
    drifts: list  # per segment, its rounding drift so far as each of its epochs opens
    probed: bool  # whether the adversary probed each round's mean prediction

    def prefix(self, T: int) -> "PlayedRounds":
        """The first T rounds, which are the game of T rounds with the same
        block: no round reads the horizon, and the game's streams are
        consumed in round order (`game_streams`)."""
        return PlayedRounds(
            self.xs[:T], self.ys[:T], self.yhats[:T], self.losses[:T], self.sums[:T], self.flips[:T], self.meta[:T],
            self.drifts, self.probed,
        )


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

    Under the absolute loss every round takes the 2-call route
    (`predict_binary_fast`), whatever the class and labels; a custom loss
    plays `predict_general`'s label grid.

    Every round's feature is sampled first, into `played.xs` (`game_features`).
    Each round then emits its label (an adversary that is not oblivious
    first probes that round's mean prediction) and draws its
    hallucinations, then joins one queue of rounds that crosses epoch and
    block ends. The queue is predicted in one call when the next round's 2
    rows would take it past MAX_BATCH_ELEMENTS elements, and at the end of
    the game. No adversary sees the game's own predictions: a probe runs on
    stream 3 with one oracle clone per segment, and the hallucinations are
    drawn from stream 2 as each round joins the queue, so the queue draws
    exactly what round-by-round play would, and erm_calls counts each
    round's own calls. Stream 4 is the adversary's noise (`game_streams`).
    The fast path's label sums are written once per round: the prefix in
    `played.sums` as the round opens, the flip delta in `played.flips` when
    `emit` returns; the queue's and the probe's row builders read both.
    The adversary reads x_t = xs[t-1] and the history (xs[:t-1], ys[:t-1]),
    slices of the read-only `played.xs` and a read-only view of `played.ys`.
    """
    T = check_count(T, "T")
    oblivious = adversary.kind == "oblivious"
    features, draws, probes, noise = game_streams(config.seed, 1, 2, 3, 4)
    xs = game_features(env, features, T)
    played = PlayedRounds(
        xs=xs, ys=np.empty(T), yhats=np.empty(T), losses=np.empty(T), sums=np.empty(T), flips=np.empty(T),
        meta=np.empty((T, 6), dtype=np.intp), drifts=[], probed=not oblivious,
    )
    seen_ys = played.ys.view()
    seen_ys.flags.writeable = False
    queue, confs, elements = [], [], 0  # queued (lo, j, halluc, signs), their configs, their rows' elements

    def flush(end: int) -> None:
        """Predict the queued rounds, which end at round `end`."""
        rounds = slice(end - len(queue), end)
        yhats, calls = _predict(played, queue, confs, cls)
        played.yhats[rounds] = yhats
        played.losses[rounds] = [loss_eval(loss, p, y) for p, y in zip(yhats, played.ys[rounds].tolist())]
        played.meta[rounds, 5] = calls
        queue.clear()
        confs.clear()

    for t in range(1, T + 1):
        if (t - 1) % block == 0:
            state = _EpochPredictorState(schedule, cls, loss, played, t - 1)
            played.drifts.append(state.drifts)
        state.advance()
        probe = None if oblivious else state.probe(probes, config.probe_mc)
        played.ys[t - 1] = adversary.emit(t, (xs[: t - 1], seen_ys[: t - 1]), xs[t - 1], probe, noise)
        y = float(played.ys[t - 1])
        played.flips[t - 1] = abs(1.0 - y) - abs(0.0 - y)
        clock = state.clock
        played.meta[t - 1, :5] = len(played.drifts), clock.n, clock.j, clock.shortfall, state.probe_cls.solve_calls
        size = 2 * (clock.j + clock.count)  # its 2 rows: x_1..x_j, then the draw
        if queue and elements + size > MAX_BATCH_ELEMENTS:
            flush(t - 1)
            elements = 0
        queue.append((state.lo, clock.j, *state.draw(draws)))
        confs.append(state.pconf)
        elements += size
    flush(T)
    return played


def online_trace(cls: HypothesisClass, loss: LossFn, played: PlayedRounds):
    """The per-round trace of `played` against the best fixed hypothesis in
    hindsight, and that comparator oracle (a clone of `cls`).

    The cumulative columns are running totals of the per-round losses. The
    metadata sums each segment's rounding drift and hallucination shortfall
    as they stood after its last round; a probed game's also counts the
    probes' oracle calls, which the erm_calls column leaves out.
    """
    comparator = cls.clone()
    h_star, _ = best_in_hindsight(comparator, loss=loss, xs=played.xs, ys=played.ys)
    ys = played.ys.tolist()
    comp_losses = [loss_eval(loss, comparator.evaluate(h_star, x), y) for x, y in zip(feature_list(played.xs), ys)]
    cum_loss = running_total(played.losses)
    xs = played.xs.tolist() if played.xs.ndim == 1 else [";".join(map(repr, x)) for x in played.xs.tolist()]
    blocks, epochs, js, _, _, erm_calls = played.meta.T.tolist()
    trace = RegretTrace(
        columns=ONLINE_COLUMNS,
        rows=list(
            zip(
                range(1, len(ys) + 1), blocks, epochs, js, xs, ys, played.yhats.tolist(), played.losses.tolist(),
                cum_loss.tolist(), (cum_loss - running_total(comp_losses)).tolist(), erm_calls,
            )
        ),
    )
    # each segment's last round, in segment order
    last = played.meta[np.flatnonzero(np.diff(played.meta[:, 0], append=0))].tolist()
    trace.metadata.update(
        rounding_drift=sum(played.drifts[row[0] - 1][row[1] - 1] for row in last),
        halluc_shortfall=sum(row[3] for row in last),
    )
    if played.probed:
        trace.metadata["probe_erm_calls"] = sum(row[4] for row in last)
    return trace, comparator


def epoch_traces(
    schedule: EpochSchedule,
    cls: HypothesisClass,
    loss: LossFn,
    env,
    adversary: Adversary,
    horizons,
    config: RunConfig,
):
    """Yield the per-round trace of the game of each horizon T in `horizons`,
    one at a time, all cut from one game of max(horizons) rounds.

    The game of T rounds is the first T rounds of any longer game
    (`PlayedRounds.prefix`), so each trace is the one playing T rounds alone
    gives: its cum_regret column is measured against the best fixed
    hypothesis in hindsight over its T rounds, and its metadata and epoch
    additivity check are its own. erm_calls counts the oracle calls of each
    round's own prediction (probes use a cloned oracle).
    """
    horizons = [check_count(T, "T") for T in horizons]
    longest = max(horizons)
    played = play_rounds(schedule, cls, loss, env, adversary, longest, longest, config)
    for T in horizons:
        prefix = played.prefix(T)
        trace, comparator = online_trace(cls, loss, prefix)
        _check_epoch_additivity(trace, comparator, loss, prefix)
        trace.metadata.update(seed=config.seed, T=T, adversary=adversary.kind)
        yield trace


def run_epoch_predictor(
    schedule: EpochSchedule,
    cls: HypothesisClass,
    loss: LossFn,
    env,
    adversary: Adversary,
    T: int,
    config: RunConfig,
) -> RegretTrace:
    """Play the full T-round game and return its per-round trace: the
    one-horizon case of `epoch_traces`."""
    (trace,) = epoch_traces(schedule, cls, loss, env, adversary, [T], config)
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
