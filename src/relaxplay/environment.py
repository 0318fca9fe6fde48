"""Feature-generation processes and adversary strategies for the online game.

Features come from i.i.d. or shifting distributions; labels come from a
catalog of oblivious / adaptive / semi-adaptive adversaries. The worst-case
adversary of the regret definition is not constructive, so experiments name
which catalog adversary generated each trace.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .core import AdversaryFault, ConfigError, Feature, best_in_hindsight, check_seed, check_unit


class FeatureDistribution:
    """A sampleable distribution over [0,1] (or [0,1]^d via `product`)."""

    def __init__(self, kind: str, **params):
        self.kind = kind
        if kind == "discrete":
            pts = list(params["points"])
            probs = np.asarray(params["probs"], dtype=float)
            if not pts:
                raise ConfigError("a discrete distribution needs at least one point")
            if probs.shape != (len(pts),):
                raise ConfigError(f"{len(pts)} points need {len(pts)} probabilities, got shape {probs.shape}")
            # written so that NaN fails too
            if not np.all((probs >= 0.0) & (probs < np.inf)):
                raise ConfigError("probabilities must be finite and nonnegative")
            if abs(probs.sum() - 1.0) > 1e-12:
                raise ConfigError("discrete probabilities must sum to 1")
            self._points = [_feature_point(p) for p in pts]
            if len({np.shape(p) for p in self._points}) > 1:
                raise ConfigError("discrete points must be all scalars or all vectors of one length")
            self._probs = probs
        elif kind == "uniform":
            lo, hi = params.get("low", 0.0), params.get("high", 1.0)
            if not (0.0 <= lo <= hi <= 1.0):
                raise ConfigError("uniform support must satisfy 0 <= low <= high <= 1")
            self._lo, self._hi = float(lo), float(hi)
        elif kind == "product":
            self._factors = list(params["factors"])
        else:
            raise ConfigError(f"unknown distribution kind {kind!r}")

    @classmethod
    def discrete(cls, points: Sequence[Feature], probs: Sequence[float]) -> "FeatureDistribution":
        return cls("discrete", points=points, probs=probs)

    @classmethod
    def point_mass(cls, x: Feature) -> "FeatureDistribution":
        return cls("discrete", points=[x], probs=[1.0])

    @classmethod
    def uniform(cls, low: float = 0.0, high: float = 1.0) -> "FeatureDistribution":
        return cls("uniform", low=low, high=high)

    @classmethod
    def product(cls, factors: Sequence["FeatureDistribution"]) -> "FeatureDistribution":
        return cls("product", factors=factors)

    @property
    def points(self) -> list:
        if self.kind != "discrete":
            raise ConfigError("points are defined only for discrete distributions")
        return self._points

    @property
    def probs(self) -> np.ndarray:
        if self.kind != "discrete":
            raise ConfigError("probs are defined only for discrete distributions")
        return self._probs

    def sample(self, rng: np.random.Generator) -> Feature:
        if self.kind == "discrete":
            i = rng.choice(len(self._points), p=self._probs)
            return self._points[i]
        if self.kind == "uniform":
            return float(rng.uniform(self._lo, self._hi))
        return np.array([f.sample(rng) for f in self._factors])


def _feature_point(p) -> Feature:
    """A discrete point stored once, as `sample` returns it: a float, or a read-only float64 vector."""
    entries = np.array(p, dtype=float)
    if entries.ndim > 1 or not np.all((entries >= 0.0) & (entries <= 1.0)):  # NaN fails too
        raise ConfigError(f"discrete points must have entries in [0,1] and at most one axis, got {p!r}")
    if entries.ndim == 0:
        return float(entries)
    entries.flags.writeable = False
    return entries


class ShiftingProcess:
    """A piecewise-stationary feature process with known segment boundaries."""

    def __init__(self, segments: Sequence[tuple[FeatureDistribution, int]]):
        starts = [s for _, s in segments]
        if not segments or starts[0] != 1:
            raise ConfigError("first segment must start at t=1")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigError("segment start times must be strictly increasing")
        self.segments = list(segments)

    @property
    def change_count(self) -> int:
        return len(self.segments) - 1

    @property
    def change_points(self) -> list[int]:
        return [s for _, s in self.segments[1:]]

    def active(self, t: int) -> FeatureDistribution:
        dist = self.segments[0][0]
        for d, start in self.segments:
            if t >= start:
                dist = d
        return dist


def sample_feature(process, t: int, rng: np.random.Generator) -> Feature:
    """Draw the round-t feature from a distribution or shifting process."""
    if t < 1:
        raise ConfigError("time index starts at 1")
    if isinstance(process, ShiftingProcess):
        return process.active(t).sample(rng)
    return process.sample(rng)


class Adversary:
    """Label strategy. `history` is the game so far, read-only float64 arrays (xs, ys) of its
    t-1 features and labels. `probe` estimates the predictor's conditional mean prediction via
    Monte Carlo on an RNG stream disjoint from the game's; only adaptive adversaries may call it."""

    kind = "oblivious"

    def label(self, t, history, x_t, probe, rng) -> float:
        raise NotImplementedError

    def emit(self, t, history, x_t, probe, rng) -> float:
        y = float(self.label(t, history, x_t, probe, rng))
        if not (0.0 <= y <= 1.0):
            raise AdversaryFault(f"adversary emitted label {y} outside [0,1] at t={t}")
        return y


class ObliviousAdversary(Adversary):
    """y_t = f_t(x_t); `fn` takes (t, x, rng) so noisy rules stay reproducible."""

    kind = "oblivious"

    def __init__(self, fn: Callable):
        self.fn = fn

    def label(self, t, history, x_t, probe, rng) -> float:
        return self.fn(t, x_t, rng)


class AdaptiveAdversary(Adversary):
    """Full-information callback `fn(t, history, x_t, probe, rng)`, which may call `probe`."""

    kind = "adaptive"

    def __init__(self, fn: Callable):
        self.fn = fn

    def label(self, t, history, x_t, probe, rng) -> float:
        return self.fn(t, history, x_t, probe, rng)


class SemiAdaptiveAdversary(Adversary):
    """Callback `fn(t, feats, rng)` on the window x_{t-B..t} of recent features, one float64 array."""

    kind = "semi_adaptive"

    def __init__(self, window: int, fn: Callable):
        self.window = check_seed(window, "window")
        self.fn = fn

    def label(self, t, history, x_t, probe, rng) -> float:
        # the last `window` features only (none for window 0), not the whole game
        xs, _ = history
        return self.fn(t, np.concatenate((xs[max(0, len(xs) - self.window) :], [x_t])), rng)


def noisy_target(target: Callable[[Feature], float], p: float) -> ObliviousAdversary:
    """Binary labels h*(x) flipped with probability p (oblivious)."""
    if not (0.0 <= p <= 1.0):
        raise ConfigError("flip probability must lie in [0,1]")

    def fn(t, x, rng):
        y = 1.0 if target(x) >= 0.5 else 0.0
        if rng.random() < p:
            y = 1.0 - y
        return y

    return ObliviousAdversary(fn)


def flip_to_far() -> AdaptiveAdversary:
    """Plays the {0,1} label farthest from the probed mean prediction."""

    def fn(t, history, x_t, probe, rng):
        return 1.0 if probe() < 0.5 else 0.0

    return AdaptiveAdversary(fn)


def comparator_squeeze(cls_factory) -> AdaptiveAdversary:
    """Greedy sup proxy: pick y in {0,1} maximizing the probed prediction's
    loss minus the running best expert's loss increment."""

    def fn(t, history, x_t, probe, rng):
        helper = fn.helper
        m = probe()
        xs, ys = history
        if len(ys):
            h_best, _ = best_in_hindsight(helper, xs, ys)
            hv = helper.evaluate(h_best, x_t)
        else:
            hv = 0.5
        best_y, best_score = 0.0, -np.inf
        for y in (0.0, 1.0):
            score = abs(m - y) - abs(hv - y)
            if score > best_score:
                best_y, best_score = y, score
        return best_y

    fn.helper = cls_factory()
    return AdaptiveAdversary(fn)


def constant(value: float) -> ObliviousAdversary:
    check_unit(value, "constant label")
    return ObliviousAdversary(lambda t, x, rng: value)


def periodic(values: Sequence[float]) -> ObliviousAdversary:
    vals = [check_unit(v, "periodic label") for v in values]
    if not vals:
        raise ConfigError("periodic labels need at least one value")
    return ObliviousAdversary(lambda t, x, rng: vals[(t - 1) % len(vals)])


def builtin_adversaries() -> dict:
    """Name -> factory catalog used by the harness config resolver."""
    return {
        "noisy_target": noisy_target,
        "flip_to_far": flip_to_far,
        "comparator_squeeze": comparator_squeeze,
        "constant": constant,
        "periodic": periodic,
    }
