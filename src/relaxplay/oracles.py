"""Concrete mixed-ERM oracles: thresholds, bounded-length intervals, finite
tables, 1-Lipschitz functions, plus a brute-force reference oracle for tests.

All solvers are exact. Ties are broken toward the smallest parameter /
lowest index so solves are deterministic.

The two {0,1}-valued classes on scalar features, thresholds and intervals,
solve a batch of flip-delta rows (see `_flip_deltas`) in one row-vectorized
numpy pass, `solve_rows`; their `solve` is its one-row case.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

from .core import (
    ConfigError,
    ErmResult,
    Feature,
    HypothesisClass,
    MixedErmQuery,
    UnsupportedClassError,
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
    l0 = loss_values(query.loss, 0.0, query.ys)
    l1 = loss_values(query.loss, 1.0, query.ys)
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
    """All 1-Lipschitz functions [0,1] -> [0,1] on scalar features.

    Exact. On the sorted queried points only neighbours constrain each other,
    |v_i - v_{i+1}| <= gap_i, so the best values are a chain DP over convex
    piecewise-linear functions (`_chain_values`). The handle is (points,
    values); elsewhere it evaluates the smallest 1-Lipschitz extension of the
    values, clipped into [0,1]. Absolute loss only.
    """

    def evaluate(self, handle, x: Feature) -> float:
        points, values = handle
        return float(np.clip(np.max(values - np.abs(points - float(x))), 0.0, 1.0))

    def solve(self, query: MixedErmQuery) -> ErmResult:
        self.solve_calls += 1
        if query.loss.kind != "absolute":
            raise UnsupportedClassError("LipschitzClass supports the absolute loss only")
        points = np.concatenate([scalar_rows(query.xs), scalar_rows(query.signed_xs)])
        if not points.size:
            return ErmResult((np.zeros(1), np.zeros(1)), 0.0)
        # per point: label, pair weight (1 for a pair) and signed coefficient, zero where a term has none
        n, pad = len(query.ys), np.zeros(len(query.signs))
        order = points.argsort(kind="stable")
        terms = ((query.ys, pad), (np.ones(n), pad), (np.zeros(n), query.coefficient * query.signs))
        ys, ws, cs = (np.concatenate(parts)[order] for parts in terms)
        values = _chain_values(points[order], ys, ws, cs)
        return ErmResult((points[order], values), float(np.sum(ws * np.abs(values - ys)) + np.sum(cs * values)))


def _chain_values(points: np.ndarray, ys: np.ndarray, ws: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Values v in [0,1] at sorted `points`, 1-Lipschitz between neighbours,
    minimizing sum_i ws_i*|v_i - ys_i| + cs_i*v_i exactly.

    Slope trick: F_i(v), the best cost of the first i points with v_i = v, is
    convex piecewise linear, kept as weighted breakpoints left of its minimum
    (a max-heap) and right of it (a min-heap). F_i min-convolved with the box
    [-gap_i, gap_i] shifts the left ones down and the right ones up by gap_i,
    lazily. Ramps of weight w_i + |c_i| + 1 at 0 and 1 keep v in [0,1]
    exactly: clamping keeps values 1-Lipschitz and lowers the penalty by more
    than it raises the cost. Each v_i is the argmin of F_i clamped to the box
    around v_{i+1}.
    """
    heaps, sgn, shift = ([], []), (-1.0, 1.0), [0.0, 0.0]  # 0: left side, 1: right side

    def push(side, pos, w):
        if w > 0.0:
            heapq.heappush(heaps[side], (sgn[side] * (pos - shift[side]), w))

    def move(side, need):
        # moves slope weight `need` from the innermost breakpoints of `side` to the other side
        heap = heaps[side]
        while need > 0.0:
            key, w = heapq.heappop(heap)
            if w > need:
                heapq.heappush(heap, (key, w - need))
                w = need
            push(1 - side, sgn[side] * key + shift[side], w)
            need -= w

    def ramp(side, pos, w):
        # adds w*max(0, pos - v) for side 0 and w*max(0, v - pos) for side 1
        push(1 - side, pos, w)
        move(1 - side, w)

    pts, values = points.tolist(), []  # values holds each F_i's smallest argmin until the backward pass
    for i, (y, w, c) in enumerate(zip(ys.tolist(), ws.tolist(), cs.tolist())):
        if i:
            shift[0] -= pts[i] - pts[i - 1]
            shift[1] += pts[i] - pts[i - 1]
        ramp(0, 0.0, w + abs(c) + 1.0)
        ramp(1, 1.0, w + abs(c) + 1.0)
        ramp(0, y, w)
        ramp(1, y, w)
        move(0 if c > 0.0 else 1, abs(c))
        values.append(-heaps[0][0][0] + shift[0])
    for i in range(len(pts) - 2, -1, -1):
        gap = pts[i + 1] - pts[i]
        values[i] = min(max(values[i], values[i + 1] - gap), values[i + 1] + gap)
    return np.clip(values, 0.0, 1.0)


def reference_solve(cls: HypothesisClass, query: MixedErmQuery, grid_step: float) -> ErmResult:
    """Brute force over `cls.grid_handles(grid_step)`; the test-side oracle."""
    handles = cls.grid_handles(grid_step)
    objs = objective_values(cls, handles, query)
    best = lowest_argmin(objs)
    return ErmResult(handles[best], float(objs[best]))
