"""Fixed-size `solve` timings for each hypothesis class.

A query of size n holds n labeled pairs and n signed terms with coefficient
2, the shape of the predictor's inner-sup queries. Sizes follow ROADMAP's
n in {16, 64, 256, 1024}; a class stops where one solve already takes
seconds (IntervalClass(0.1) takes about 13 s and LipschitzClass about 3 s
at n=256).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from relaxplay.core import LabeledPair, MixedErmQuery, SignedTerm
from relaxplay.oracles import FiniteClass, IntervalClass, LipschitzClass, ThresholdClass

CLASSES = (
    ("ThresholdClass", ThresholdClass, (16, 64, 256, 1024)),
    ("IntervalClass", lambda: IntervalClass(gamma_len=0.1), (16, 64)),
    ("LipschitzClass", LipschitzClass, (16, 64)),
    (
        "FiniteClass",
        lambda: FiniteClass([(lambda a: lambda x: float(x >= a))(a) for a in np.linspace(0.1, 0.8, 8)], binary=True),
        (16, 64, 256, 1024),
    ),
)
MIN_REPEATS = 3
MIN_SECONDS = 0.1


def make_query(n: int, rng: np.random.Generator) -> MixedErmQuery:
    xs, ys = rng.random(n), rng.integers(0, 2, n)
    xt, signs = rng.random(n), rng.integers(0, 2, n) * 2 - 1
    return MixedErmQuery(
        pairs=tuple(LabeledPair(float(x), float(y)) for x, y in zip(xs, ys)),
        signed=tuple(SignedTerm(int(s), float(x)) for s, x in zip(signs, xt)),
        coefficient=2.0,
    )


def solve_timings(seed: int) -> dict:
    """Median milliseconds of one solve, keyed `oracles.<Class>.solve_ms.n<size>`."""
    out = {}
    for name, make, sizes in CLASSES:
        cls = make()
        for n in sizes:
            query = make_query(n, np.random.default_rng([seed, n]))
            times = []
            while len(times) < MIN_REPEATS or sum(times) < MIN_SECONDS:
                start = time.perf_counter()
                cls.solve(query)
                times.append(time.perf_counter() - start)
            out[f"oracles.{name}.solve_ms.n{n}"] = 1000.0 * statistics.median(times)
    return out
