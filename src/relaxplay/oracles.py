"""Concrete mixed-ERM oracles: thresholds, bounded-length intervals, finite
tables, 1-Lipschitz functions, plus a brute-force reference oracle for tests.

All solvers are exact except the Lipschitz one, which declares a 1e-3
objective tolerance. Ties are broken toward the smallest parameter / lowest
index so solves are deterministic.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ConfigError,
    ErmResult,
    Feature,
    HypothesisClass,
    MixedErmQuery,
    UnsupportedClassError,
    feature_as_array,
    loss_values,
    objective_fn,
)


def _scalar_features(query: MixedErmQuery) -> tuple[np.ndarray, np.ndarray]:
    """Pair/signed feature values as flat arrays; rejects vector features."""
    xs, xt = query.xs, query.signed_xs
    if xs.size != len(xs) or xt.size != len(xt):
        raise UnsupportedClassError("this oracle handles scalar features only")
    return xs.reshape(-1), xt.reshape(-1)


def _flip_deltas(query: MixedErmQuery) -> tuple[float, np.ndarray, np.ndarray]:
    """(base, positions, deltas) for a {0,1}-valued class on scalar features.

    `base` is the objective of the hypothesis that fires nowhere; firing at a
    term's position changes it by that term's delta (pairs first, then the
    signed terms). `base` is summed in order, as a running sum would be.
    """
    xs, xt = _scalar_features(query)
    l0 = query.ws * loss_values(query.loss, 0.0, query.ys)
    l1 = query.ws * loss_values(query.loss, 1.0, query.ys)
    base = float(np.cumsum(l0)[-1]) if l0.size else 0.0
    positions = np.concatenate([xs, xt])
    deltas = np.concatenate([l1 - l0, query.coefficient * query.signs])
    return base, positions, deltas


class ThresholdClass(HypothesisClass):
    """Indicators 1{x >= a} over scalar features, parameter a in [0,1]."""

    is_binary = True

    def evaluate(self, handle, x: Feature) -> float:
        return 1.0 if float(x) >= handle else 0.0

    def solve(self, query: MixedErmQuery) -> ErmResult:
        self.solve_calls += 1
        base, pos, dlt = _flip_deltas(query)
        if pos.size == 0:
            return ErmResult(0.0, 0.0)

        # Objective is constant on threshold cells between sorted distinct
        # positions; evaluate obj(a) = base + sum_{pos >= a} delta(pos) by
        # suffix sums over all positions.
        order = np.argsort(pos, kind="stable")
        pos = pos[order]
        # suffix[i] = sum of deltas at positions >= pos[i]
        suffix = np.cumsum(dlt[order][::-1])[::-1]
        first = np.flatnonzero(np.concatenate(([True], pos[1:] != pos[:-1])))
        objectives = base + suffix[first]  # a = each distinct position
        best = int(np.argmin(objectives))  # leftmost minimizer: smallest a
        if pos[-1] < 1.0 and base < objectives[best]:
            return ErmResult(float((pos[-1] + 1.0) / 2.0), base)  # fires nowhere
        # a = 0 fires everywhere, as a = pos[0] does, and is the smaller a
        return ErmResult(0.0 if best == 0 else float(pos[first[best]]), float(objectives[best]))

    def grid_handles(self, step: float) -> Sequence[float]:
        return [float(a) for a in np.arange(0.0, 1.0 + step / 2, step)]


class IntervalClass(HypothesisClass):
    """Indicators 1{x in [a,b]} with 0 <= a, b <= 1 and length floor b - a >= gamma_len."""

    is_binary = True

    def __init__(self, gamma_len: float):
        super().__init__()
        if not (0.0 < gamma_len <= 1.0):
            raise ConfigError("gamma_len must lie in (0,1]")
        self.gamma_len = float(gamma_len)

    def evaluate(self, handle, x: Feature) -> float:
        a, b = handle
        return 1.0 if a <= float(x) <= b else 0.0

    def solve(self, query: MixedErmQuery) -> ErmResult:
        """Exact in O(n log n): an interval covers a contiguous run of the
        sorted distinct positions, so the best run ending at each position is
        a prefix-sum difference against a running maximum over the left ends
        that still leave float length gamma_len inside [0,1].
        """
        self.solve_calls += 1
        g = self.gamma_len
        base, pos, dlt = _flip_deltas(query)
        inside = (pos >= 0.0) & (pos <= 1.0)  # no interval reaches the others
        p, inv = np.unique(pos[inside], return_inverse=True)
        k = p.size
        if k == 0:
            return ErmResult((0.0, g), base)
        prefix = np.concatenate(([0.0], np.cumsum(np.bincount(inv, weights=dlt[inside], minlength=k))))

        # Gap m runs from p[m-1] to p[m], open at both ends, except that gap 0
        # starts at 0 and gap k ends at 1, closed; a_min[m] and b_max[m] are
        # the float ends of gap m nearest to each other. A run p[i..j] is
        # covered exactly by [a, b] with a_min[i] <= a <= p[i] and
        # p[j] <= b <= b_max[j+1], so it is coverable iff the float length
        # b_max[j+1] - a_min[i] reaches g; gap m alike with a_min[m], b_max[m].
        a_min = np.concatenate(([0.0], np.nextafter(p, np.inf)))
        b_max = np.append(np.nextafter(p, -np.inf), 1.0)
        # For each j the admissible left ends are a prefix i < n_left[j], as
        # the float length falls while a_min grows. searchsorted against
        # b - g + 2^-50 over-counts only the ends within rounding of the
        # bound, and those are dropped one step at a time.
        b_run = b_max[1:]
        n_left = np.searchsorted(a_min[:k], b_run - g + 2.0**-50, side="right")
        n_left = np.minimum(n_left, np.arange(1, k + 1))
        while True:
            drop = (n_left > 0) & (b_run - a_min[n_left - 1] < g)
            if not drop.any():
                break
            n_left -= drop
        run_max = np.maximum.accumulate(prefix[:k])
        objs = np.where(n_left > 0, base + (prefix[1:] - run_max[n_left - 1]), np.inf)
        j = int(np.argmin(objs))
        # an interval covering nothing fits in a gap; the handle is always
        # the widest interval covering what it claims to
        gaps = np.flatnonzero(b_max - a_min >= g)
        if gaps.size and base <= objs[j]:
            m = int(gaps[0])
            return ErmResult((float(a_min[m]), float(b_max[m])), base)
        i = int(np.argmax(prefix[: n_left[j]]))
        return ErmResult((float(a_min[i]), float(b_max[j + 1])), float(objs[j]))

    def grid_handles(self, step: float) -> Sequence[tuple[float, float]]:
        pts = np.arange(0.0, 1.0 + step / 2, step)
        out = []
        for a in pts:
            for b in pts:
                if b - a >= self.gamma_len - 1e-12:
                    out.append((float(a), float(b)))
        return out


class FiniteClass(HypothesisClass):
    """An explicit finite table of hypotheses; handles are table indices."""

    def __init__(self, hypotheses: Sequence[Callable[[Feature], float]], binary: bool = False):
        super().__init__()
        if not hypotheses:
            raise ConfigError("FiniteClass needs at least one hypothesis")
        self.table = list(hypotheses)
        self.is_binary = binary

    @classmethod
    def from_constants(cls, constants: Sequence[float]) -> "FiniteClass":
        binary = all(c in (0.0, 1.0) for c in constants)
        return cls([(lambda x, c=float(c): c) for c in constants], binary=binary)

    def __len__(self) -> int:
        return len(self.table)

    def evaluate(self, handle, x: Feature) -> float:
        return float(self.table[handle](x))

    def solve(self, query: MixedErmQuery) -> ErmResult:
        self.solve_calls += 1
        objective = objective_fn(self, query)
        best_idx, best_obj = 0, np.inf
        for i in range(len(self.table)):
            obj = objective(i)
            if obj < best_obj - 1e-15:
                best_idx, best_obj = i, obj
        if not np.isfinite(best_obj):
            best_obj = objective(0)
        return ErmResult(best_idx, float(best_obj))

    def grid_handles(self, step: float) -> Sequence[int]:
        return list(range(len(self.table)))


class LipschitzClass(HypothesisClass):
    """All 1-Lipschitz functions [0,1]^d -> [0,1] under the sup norm.

    Solves the mixed objective over the hypothesis values at the queried
    points (projected subgradient with McShane-extension feasibility repair,
    then exact coordinate sweeps); the handle stores (points, values) and
    evaluates elsewhere by McShane extension. Absolute loss only.
    """

    solve_tolerance = 1e-3
    max_iters = 5000

    def __init__(self, dimension: int = 1):
        super().__init__()
        if dimension < 1:
            raise ConfigError("dimension must be >= 1")
        self.dimension = int(dimension)

    def evaluate(self, handle, x: Feature) -> float:
        points, values = handle
        d = np.max(np.abs(points - feature_as_array(x)[None, :]), axis=1)
        return float(np.clip(np.max(values - d), 0.0, 1.0))

    def _repair(self, v: np.ndarray, dist: np.ndarray) -> np.ndarray:
        v = np.max(v[None, :] - dist, axis=1)
        return np.clip(v, 0.0, 1.0)

    def solve(self, query: MixedErmQuery) -> ErmResult:
        self.solve_calls += 1
        if query.loss.kind != "absolute":
            raise UnsupportedClassError("LipschitzClass supports the absolute loss only")
        parts = [xs.reshape(len(xs), -1) for xs in (query.xs, query.signed_xs) if len(xs)]
        if not parts:
            return ErmResult((np.zeros((1, self.dimension)), np.zeros(1)), 0.0)
        points = np.concatenate(parts)
        m = len(query.xs)
        w, ys = query.ws, query.ys
        cs = query.coefficient * query.signs
        dist = np.max(np.abs(points[:, None, :] - points[None, :, :]), axis=2)

        def objective(v):
            obj = float(np.sum(w * np.abs(v[:m] - ys))) if m else 0.0
            if cs.size:
                obj += float(cs @ v[m:])
            return obj

        v = np.full(len(points), 0.5)
        if m:
            v[:m] = ys
        v = self._repair(v, dist)
        best_v, best_obj = v.copy(), objective(v)
        gscale = max(1.0, float(np.sum(w) + np.sum(np.abs(cs))))
        for it in range(1, self.max_iters + 1):
            g = np.zeros_like(v)
            if m:
                g[:m] = w * np.sign(v[:m] - ys)
            if cs.size:
                g[m:] += cs
            v = self._repair(v - g / (gscale * np.sqrt(it)), dist)
            obj = objective(v)
            if obj < best_obj:
                best_v, best_obj = v.copy(), obj
        # Exact coordinate sweeps: each coordinate's optimum sits at its target
        # label or a constraint boundary.
        v = best_v
        for _ in range(3):
            for i in range(len(v)):
                lo = max(0.0, float(np.max(v - dist[i])))
                hi = min(1.0, float(np.min(v + dist[i])))
                cand = [lo, hi]
                if i < m and lo <= ys[i] <= hi:
                    cand.append(float(ys[i]))
                for c in cand:
                    old = v[i]
                    v[i] = c
                    obj = objective(v)
                    if obj < best_obj - 1e-12:
                        best_obj = obj
                        best_v = v.copy()
                    else:
                        v[i] = old
            v = best_v.copy()
        return ErmResult((points, best_v), float(best_obj))


def reference_solve(cls: HypothesisClass, query: MixedErmQuery, grid_step: float) -> ErmResult:
    """Brute force over `cls.grid_handles(grid_step)`; the test-side oracle."""
    objective = objective_fn(cls, query)
    best_handle, best_obj = None, np.inf
    for handle in cls.grid_handles(grid_step):
        obj = objective(handle)
        if obj < best_obj - 1e-15:
            best_handle, best_obj = handle, obj
    return ErmResult(best_handle, float(best_obj))
