"""Concrete mixed-ERM oracles: thresholds, bounded-length intervals, finite
tables, 1-Lipschitz functions, plus a brute-force reference oracle for tests.

All solvers are exact except the Lipschitz one, which declares a 1e-3
objective tolerance. Ties are broken toward the smallest parameter / lowest
index so solves are deterministic.

The two {0,1}-valued classes on scalar features, thresholds and intervals,
solve a batch of flip-delta rows (see `_flip_deltas`) in one row-vectorized
numpy pass, `solve_rows`; their `solve` is its one-row case.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .core import (
    ConfigError,
    ErmResult,
    Feature,
    HypothesisClass,
    InputDomainError,
    MixedErmQuery,
    UnsupportedClassError,
    feature_as_array,
    loss_values,
    lowest_argmin,
    objective_values,
)


def scalar_rows(features: np.ndarray) -> np.ndarray:
    """Scalar features as a flat array; rejects vector features."""
    if features.size != len(features):
        raise UnsupportedClassError("this oracle handles scalar features only")
    return features.reshape(-1)


def _flip_deltas(query: MixedErmQuery) -> tuple[float, np.ndarray, np.ndarray]:
    """(base, positions, deltas) for a {0,1}-valued class on scalar features.

    `base` is the objective of the hypothesis that fires nowhere; firing at a
    term's position changes it by that term's delta (pairs first, then the
    signed terms). `base` is summed in order, as a running sum would be.
    """
    xs, xt = scalar_rows(query.xs), scalar_rows(query.signed_xs)
    l0 = query.ws * loss_values(query.loss, 0.0, query.ys)
    l1 = query.ws * loss_values(query.loss, 1.0, query.ys)
    base = float(np.cumsum(l0)[-1]) if l0.size else 0.0
    positions = np.concatenate([xs, xt])
    deltas = np.concatenate([l1 - l0, query.coefficient * query.signs])
    return base, positions, deltas


def last_label_rows(query: MixedErmQuery, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_flip_deltas` of `query.with_last_label(y)` for each y of `labels`, as
    the rows of one `solve_rows` call: they differ only in base and in the
    last pair's delta, each summed as `_flip_deltas` sums it."""
    if not np.logical_and.reduce((labels >= 0.0) & (labels <= 1.0)):
        raise InputDomainError("labels must lie in [0,1]")
    _, pos, dlt = _flip_deltas(query)
    w, loss, dlt = query.ws[-1], query.loss, np.tile(dlt, (len(labels), 1))
    l0, l1 = w * loss_values(loss, 0.0, labels), w * loss_values(loss, 1.0, labels)
    head = query.ws[:-1] * loss_values(loss, 0.0, query.ys[:-1])
    dlt[:, len(query.xs) - 1] = l1 - l0
    return (np.cumsum(head)[-1] + l0 if head.size else l0), np.tile(pos, (len(labels), 1)), dlt


class ThresholdClass(HypothesisClass):
    """Indicators 1{x >= a} over scalar features, parameter a in [0,1]."""

    is_binary = True

    def evaluate(self, handle, x: Feature) -> float:
        return 1.0 if float(x) >= handle else 0.0

    def solve(self, query: MixedErmQuery) -> ErmResult:
        base, pos, dlt = _flip_deltas(query)
        handles, objectives = self.solve_rows(np.array([base]), pos[None, :], dlt[None, :])
        return ErmResult(float(handles[0]), float(objectives[0]))

    def solve_rows(self, base: np.ndarray, pos: np.ndarray, dlt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve B flip-delta rows at once: `base` (B,), `pos` and `dlt` (B, n).

        Row b is the query whose fire-nowhere objective is base[b] and whose
        term k adds dlt[b, k] wherever the threshold fires at pos[b, k], as
        `_flip_deltas` produces them. Returns the (B,) handles and objectives,
        each equal to `solve` on that row's query; counts B solve calls.
        """
        rows, n = pos.shape
        self.solve_calls += rows
        if n == 0:
            return np.zeros(rows), np.zeros(rows)

        # Objective is constant on threshold cells between sorted distinct
        # positions; evaluate obj(a) = base + sum_{pos >= a} delta(pos) by
        # suffix sums over all positions.
        order = pos.argsort(axis=1, kind="stable")
        r = np.arange(rows)
        pos, dlt = pos[r[:, None], order], dlt[r[:, None], order]
        # suffix[:, i] = sum of deltas at positions >= pos[:, i]
        objectives = base[:, None] + dlt[:, ::-1].cumsum(axis=1)[:, ::-1]
        # a = each distinct position; the leftmost minimizer is the smallest a
        objectives[:, 1:][pos[:, 1:] == pos[:, :-1]] = np.inf
        best = objectives.argmin(axis=1)
        best_obj = objectives[r, best]
        # a = 0 fires everywhere, as a = pos[:, 0] does, and is the smaller a
        handles = np.where(best == 0, 0.0, pos[r, best])
        nowhere = (pos[:, -1] < 1.0) & (base < best_obj)
        if nowhere.any():
            handles[nowhere] = (pos[nowhere, -1] + 1.0) / 2.0
            best_obj[nowhere] = base[nowhere]
        return handles, best_obj

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
        base, pos, dlt = _flip_deltas(query)
        handles, objectives = self.solve_rows(np.array([base]), pos[None, :], dlt[None, :])
        return ErmResult(handles[0], float(objectives[0]))

    def solve_rows(self, base: np.ndarray, pos: np.ndarray, dlt: np.ndarray) -> tuple[list, np.ndarray]:
        """`solve` of B flip-delta rows in one pass, as `ThresholdClass.solve_rows`,
        with the handles as a list of (a, b); every temporary is (B, n) or (B, 2n).

        Exact in O(n log n) per row: an interval covers a contiguous run of the
        sorted distinct positions, so the best run ending at each position is a
        prefix-sum difference against a running maximum over the left ends that
        still leave float length gamma_len inside [0,1].
        """
        g, (rows, n) = self.gamma_len, pos.shape
        self.solve_calls += rows
        if n == 0:
            return [(0.0, g)] * rows, np.array(base, dtype=float)
        r, rr = np.arange(rows)[:, None], np.arange(rows)
        # No interval reaches positions outside [0,1]; as +inf they sort last
        # and take the distinct index k, after a row's k distinct positions p.
        # Equal positions (0.0 and -0.0 too) share an index and the same float
        # ends, so the sort need not be stable.
        inside = (pos >= 0.0) & (pos <= 1.0)
        key = np.where(inside, pos, np.inf)
        order = key.argsort(axis=1)
        srt = key[r, order]
        new = np.ones((rows, n), dtype=bool)
        new[:, 1:] = srt[:, 1:] != srt[:, :-1]
        seq = new.cumsum(axis=1) - 1  # distinct index of each sorted term
        k = seq[:, -1] + np.isfinite(srt[:, -1])
        idx = np.empty_like(seq)
        idx[r, order] = seq
        # bincount adds each position's deltas in term order, row after row
        sums = np.bincount((r * n + idx)[inside], weights=dlt[inside], minlength=rows * n)
        prefix = np.zeros((rows, n + 1))
        np.cumsum(sums.reshape(rows, n), axis=1, out=prefix[:, 1:])
        p = np.full((rows, n + 1), np.inf)
        p[r, seq] = srt
        # Gap m runs from p[m-1] to p[m], open at both ends, except that gap 0
        # starts at 0 and gap k ends at 1, closed; a_min[m] and b_max[m] are
        # the float ends of gap m nearest to each other. A run p[i..j] is
        # covered exactly by [a, b] with a_min[i] <= a <= p[i] and
        # p[j] <= b <= b_max[j+1], so it is coverable iff the float length
        # b_max[j+1] - a_min[i] reaches g; gap m alike with a_min[m], b_max[m].
        # Past k, a_min is +inf and b_max the largest float: both rise along
        # the whole row, and no gap past k has length g. A row with k = 0 has
        # the one gap [0, g], the leftmost shortest interval.
        a_min = np.zeros((rows, n + 1))
        a_min[:, 1:] = np.nextafter(p[:, :n], np.inf)
        b_max = np.nextafter(p, -np.inf)
        b_max[rr, k] = np.where(k > 0, 1.0, g)
        # For each j the admissible left ends are a prefix i < n_left[j], as
        # the float length falls while a_min grows. Counting the a_min <=
        # b - g + 2^-50 over-counts only the ends within rounding of the
        # bound, and those are dropped one step at a time. The count is target
        # j's rank in one stable sort of a row's a_min and its rising targets,
        # less the j targets before it; a tie counts, as in searchsorted(side="right").
        b_run = b_max[:, 1:]
        ranked = np.concatenate([a_min[:, :n], b_run - g + 2.0**-50], axis=1).argsort(axis=1, kind="stable")
        n_left = np.minimum(np.nonzero(ranked >= n)[1].reshape(rows, n) - np.arange(n), np.arange(1, n + 1))
        run = np.arange(n) < k[:, None]
        while True:
            drop = run & (n_left > 0) & (b_run - a_min[r, n_left - 1] < g)
            if not drop.any():
                break
            n_left -= drop
        run_max = np.maximum.accumulate(prefix[:, :n], axis=1)
        objs = np.where(run & (n_left > 0), base[:, None] + (prefix[:, 1:] - run_max[r, n_left - 1]), np.inf)
        j = objs.argmin(axis=1)
        best = objs[rr, j]
        # an interval covering nothing fits in a gap; the handle is always
        # the widest interval covering what it claims to
        gaps = b_max - a_min >= g
        in_gap = gaps.any(axis=1) & (base <= best)
        m = gaps.argmax(axis=1)
        i = np.where(np.arange(n) < n_left[rr, j][:, None], prefix[:, :n], -np.inf).argmax(axis=1)
        a = np.where(in_gap, a_min[rr, m], a_min[rr, i]).tolist()
        b = np.where(in_gap, b_max[rr, m], b_max[rr, j + 1]).tolist()
        return list(zip(a, b)), np.where(in_gap, base, best)

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
        objs = objective_values(self, range(len(self.table)), query)
        best = lowest_argmin(objs)
        return ErmResult(best, float(objs[best]))

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
    handles = cls.grid_handles(grid_step)
    objs = objective_values(cls, handles, query)
    best = lowest_argmin(objs)
    return ErmResult(handles[best], float(objs[best]))
