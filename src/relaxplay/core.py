"""Shared domain types: losses, weighted samples, and the mixed-ERM oracle contract.

A feature is a scalar in [0,1] or a 1-d numpy vector with entries in [0,1].
Hypothesis classes map features to [0,1] and expose a single `solve` entry
point that minimizes a weighted empirical loss plus signed linear terms.

A `MixedErmQuery` holds its terms as float64 arrays: pair features `xs`
(shape (n,) for scalar features, (n, d) for d-vectors), labels `ys` and
weights `ws`, signed-term features `signed_xs` and signs `signs`. It is built
either from those arrays (used as given, not copied) or from sequences of
`LabeledPair` / `SignedTerm` (converted once), and it is validated once, when
built: non-finite features, labels outside [0,1], non-finite or negative
weights, signs other than +-1 and a non-finite or negative coefficient raise
`InputDomainError`. `with_last_label(y)` derives the same query with another
last label and checks only that label, so a grid of probe labels over one
history is checked once. Solvers read the arrays and never re-check them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

Feature = Union[float, np.ndarray]


class InputDomainError(ValueError):
    """An argument fell outside its declared domain (e.g. a label outside [0,1])."""


class ConfigError(ValueError):
    """A configuration value is inconsistent or out of range."""


class UnsupportedClassError(TypeError):
    """A solver was invoked on a query shape it does not handle."""


class PoolExhaustedError(RuntimeError):
    """More hallucinated samples were requested than the side pool holds."""


class AdversaryFault(RuntimeError):
    """An adversary emitted a label outside [0,1], or outside {0,1} after declaring binary labels."""


def check_unit(value: float, name: str) -> float:
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise InputDomainError(f"{name} must lie in [0,1], got {value!r}")
    return v


def _check_integer(value, name: str, minimum: int, kind: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ConfigError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def check_seed(seed, name: str = "seed") -> int:
    """`seed` as an int if it is a non-negative integer (Python or numpy, not bool); else ConfigError."""
    return _check_integer(seed, name, 0, "non-negative")


def check_count(value, name: str) -> int:
    """`value` as an int if it is a positive integer (Python or numpy, not bool); else ConfigError."""
    return _check_integer(value, name, 1, "positive")


def feature_as_array(x: Feature) -> np.ndarray:
    """View a feature as a 1-d array (scalars become length-1 arrays)."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return arr


def feature_rows(features) -> np.ndarray:
    """Stack features into one float64 array: (n,) for scalars, (n, d) for d-vectors."""
    try:
        arr = np.asarray(features, dtype=float)
    except ValueError as e:
        raise InputDomainError("features must be all scalars or all vectors of one length") from e
    if arr.ndim > 2:
        raise InputDomainError(f"features must be scalars or 1-d vectors, got shape {arr.shape[1:]}")
    return arr


def feature_list(xs: np.ndarray) -> list:
    """One Python object per feature (floats, or row vectors) for per-feature callables."""
    return xs.tolist() if xs.ndim == 1 else list(xs)


def lowest_argmin(values: Sequence[float]) -> int:
    """Index of a minimum of `values`, ties within 1e-15 to the lowest index.

    Scans in order and moves only on an improvement by more than 1e-15, so
    the value at the returned index exceeds the true minimum by at most
    1e-15. When no value lies below +inf (all inf or NaN) the answer is 0.
    """
    best, best_value = 0, math.inf
    for i, v in enumerate(values):
        if v < best_value - 1e-15:
            best, best_value = i, v
    return best


@dataclass(frozen=True)
class LossFn:
    """A loss on [0,1]^2, convex in the prediction and Lipschitz in both arguments.

    `kind` is "absolute" for |prediction - label| (lipschitz 1) or "custom",
    in which case `evaluator` and `lipschitz` must be supplied by the caller;
    the engine never estimates the Lipschitz constant.
    """

    kind: str = "absolute"
    lipschitz: float = 1.0
    evaluator: Optional[Callable[[float, float], float]] = None

    def __post_init__(self):
        if self.kind not in ("absolute", "custom"):
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if not 0 < self.lipschitz < math.inf:  # NaN fails too
            raise ConfigError(f"lipschitz constant must be finite and positive, got {self.lipschitz!r}")
        if self.kind == "custom" and self.evaluator is None:
            raise ConfigError("custom loss requires an evaluator")
        if self.kind == "absolute" and self.lipschitz != 1.0:
            raise ConfigError("absolute loss has lipschitz constant 1")


ABSOLUTE_LOSS = LossFn()


def loss_eval(loss: LossFn, prediction: float, label: float) -> float:
    """Evaluate the loss; both arguments must lie in [0,1]."""
    p = check_unit(prediction, "prediction")
    y = check_unit(label, "label")
    if loss.kind == "absolute":
        return abs(p - y)
    return float(loss.evaluator(p, y))


def loss_values(loss: LossFn, prediction: float, labels: np.ndarray) -> np.ndarray:
    """loss(prediction, y) for each entry of a validated label array."""
    p = check_unit(prediction, "prediction")
    if loss.kind == "absolute":
        return np.abs(p - labels)
    return np.array([float(loss.evaluator(p, y)) for y in labels.tolist()])


@dataclass(frozen=True)
class LabeledPair:
    x: Feature
    y: float
    weight: float = 1.0

    def __post_init__(self):
        check_unit(self.y, "label")
        if not (0.0 <= self.weight < math.inf):
            raise InputDomainError(f"weight must be finite and nonnegative, got {self.weight!r}")


@dataclass(frozen=True)
class SignedTerm:
    sign: int
    x: Feature

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise InputDomainError(f"sign must be -1 or +1, got {self.sign!r}")


class _Terms(SequenceABC):
    """Read-only per-term view of a query's arrays; len() is the term count."""

    __slots__ = ("_term", "_n")

    def __init__(self, term: Callable[[int], object], n: int):
        self._term, self._n = term, n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._term(k) for k in range(self._n)[i])
        return self._term(range(self._n)[i])


def _term_arrays(xs, values, name: str, what: str) -> tuple[np.ndarray, np.ndarray]:
    xs = feature_rows(xs)
    values = np.asarray(values, dtype=float)
    if values.shape != (len(xs),):
        raise InputDomainError(f"{name} need one {what} per feature, got shapes {values.shape} and {xs.shape}")
    if not np.logical_and.reduce(np.isfinite(xs), axis=None):
        raise InputDomainError(f"{name} features must be finite")
    return xs, values


class MixedErmQuery:
    """The oracle task: minimize sum_i w_i*loss(h(x_i), y_i) + C*sum_j eps_j*h(x~_j).

    Give the pair terms either as `pairs` (LabeledPair sequence) or as arrays
    `xs`, `ys` and optionally `ws` (default all 1), and the signed terms
    either as `signed` (SignedTerm sequence) or as arrays `signed_xs` and
    `signs`. `pairs` and `signed` stay readable as sequences of term objects.
    """

    __slots__ = ("xs", "ys", "ws", "signed_xs", "signs", "coefficient", "loss")

    def __init__(
        self,
        pairs: Sequence[LabeledPair] = (),
        signed: Sequence[SignedTerm] = (),
        coefficient: float = 0.0,
        loss: LossFn = ABSOLUTE_LOSS,
        *,
        xs=None,
        ys=None,
        ws=None,
        signed_xs=None,
        signs=None,
    ):
        if xs is None and ys is None and ws is None:
            pairs = tuple(pairs)
            xs = [p.x for p in pairs]
            ys = [p.y for p in pairs]
            ws = [p.weight for p in pairs]
        elif len(pairs) or xs is None:
            raise InputDomainError("give the pairs either as LabeledPair terms or as arrays xs, ys (, ws)")
        if signed_xs is None and signs is None:
            signed = tuple(signed)
            signed_xs = [s.x for s in signed]
            signs = [s.sign for s in signed]
        elif len(signed) or signed_xs is None:
            raise InputDomainError("give the signed terms either as SignedTerm terms or as arrays signed_xs, signs")

        xs, ys = _term_arrays(xs, ys, "pairs", "label")
        # y * (y - 1) <= 0 exactly for y in [0,1]; it is positive or NaN otherwise
        if ys.size and not np.maximum.reduce(ys * (ys - 1.0)) <= 0.0:
            raise InputDomainError("labels must lie in [0,1]")
        if ws is None:
            ws = np.full(len(xs), 1.0)
        else:
            ws = np.asarray(ws, dtype=float)
            if ws.shape != ys.shape:
                raise InputDomainError(f"pairs need one weight per label, got shapes {ws.shape} and {ys.shape}")
            if ws.size and not (ws.min() >= 0.0 and ws.max() < math.inf):
                raise InputDomainError("weights must be finite and nonnegative")
        signed_xs, signs = _term_arrays(signed_xs, signs, "signed terms", "sign")
        if not np.logical_and.reduce(np.abs(signs) == 1.0):
            raise InputDomainError("signs must be -1 or +1")
        coefficient = float(coefficient)
        if not (0.0 <= coefficient < math.inf):
            raise InputDomainError(f"coefficient C must be finite and nonnegative, got {coefficient!r}")

        self.xs, self.ys, self.ws = xs, ys, ws
        self.signed_xs, self.signs = signed_xs, signs
        self.coefficient, self.loss = coefficient, loss

    def with_last_label(self, y: float) -> "MixedErmQuery":
        """This query with its last pair's label set to `y`; only `y` is checked."""
        ys = self.ys.copy()
        ys[-1] = check_unit(y, "label")
        other = object.__new__(MixedErmQuery)
        other.xs, other.ys, other.ws = self.xs, ys, self.ws
        other.signed_xs, other.signs = self.signed_xs, self.signs
        other.coefficient, other.loss = self.coefficient, self.loss
        return other

    @property
    def pairs(self) -> Sequence[LabeledPair]:
        return _Terms(
            lambda i: LabeledPair(_feature_at(self.xs, i), float(self.ys[i]), float(self.ws[i])),
            len(self.xs),
        )

    @property
    def signed(self) -> Sequence[SignedTerm]:
        return _Terms(
            lambda i: SignedTerm(int(self.signs[i]), _feature_at(self.signed_xs, i)),
            len(self.signed_xs),
        )


def _feature_at(xs: np.ndarray, i: int) -> Feature:
    return float(xs[i]) if xs.ndim == 1 else xs[i]


@dataclass(frozen=True)
class ErmResult:
    hypothesis: object
    objective: float


class HypothesisClass:
    """Base contract for hypothesis classes served by a mixed-ERM oracle.

    Subclasses implement `evaluate` (handle, feature) -> [0,1] and `solve`.
    Solvers are exact and deterministic; each instance keeps a solve-call
    counter (per worker; use `clone()` for an independent counter).
    """

    is_binary: bool = False
    # Binary classes on scalar features may also solve many flip-delta rows
    # at once, `solve_rows(base, pos, dlt) -> (handles, objectives)`; see
    # ThresholdClass.solve_rows. The fast path batches through it when set.
    solve_rows = None

    def __init__(self):
        self.solve_calls = 0

    def evaluate(self, handle, x: Feature) -> float:
        raise NotImplementedError

    def solve(self, query: MixedErmQuery) -> ErmResult:
        raise NotImplementedError

    def grid_handles(self, step: float) -> Sequence:
        """Candidate handles for brute-force probing; used by the reference oracle."""
        raise NotImplementedError

    def clone(self) -> "HypothesisClass":
        """A fresh instance with its own call counter (classes are stateless otherwise)."""
        import copy

        other = copy.copy(self)
        other.solve_calls = 0
        return other


def objective_values(cls: HypothesisClass, handles: Sequence, query: MixedErmQuery) -> list[float]:
    """The mixed objective of `query` at each hypothesis of `handles`.

    Each hypothesis is evaluated once per term; its values at the pairs must
    lie in [0,1]. Its terms (pairs, then signed terms) are added in order
    from 0.0, as a running sum adds them.
    """
    pairs = list(zip(feature_list(query.xs), query.ys.tolist(), query.ws.tolist()))
    signed = list(zip(feature_list(query.signed_xs), (query.coefficient * query.signs).tolist()))
    evaluate = cls.evaluate
    evaluator = None if query.loss.kind == "absolute" else query.loss.evaluator
    out = []
    for h in handles:
        total = 0.0
        for x, y, w in pairs:
            v = evaluate(h, x)
            if not 0.0 <= v <= 1.0:
                raise InputDomainError(f"hypothesis values must lie in [0,1], got {v!r}")
            total += w * (abs(v - y) if evaluator is None else float(evaluator(v, y)))
        for x, cs in signed:
            total += cs * evaluate(h, x)
        out.append(total)
    return out


def query_objective(cls: HypothesisClass, handle, query: MixedErmQuery) -> float:
    """The mixed objective of `query` evaluated at a fixed hypothesis."""
    return objective_values(cls, [handle], query)[0]


def best_in_hindsight(cls: HypothesisClass, xs, ys, loss: LossFn = ABSOLUTE_LOSS) -> tuple[object, float]:
    """Class minimizer of the cumulative loss over the sample (xs, ys) (the regret comparator)."""
    query = MixedErmQuery(loss=loss, xs=xs, ys=ys)
    if len(query.ys) == 0:
        raise InputDomainError("best_in_hindsight requires a nonempty sample")
    res = cls.solve(query)
    return res.hypothesis, res.objective
