import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxplay import (
    ConfigError,
    ErmResult,
    FiniteClass,
    IntervalClass,
    LabeledPair,
    LipschitzClass,
    LossFn,
    MixedErmQuery,
    SignedTerm,
    ThresholdClass,
    UnsupportedClassError,
    loss_eval,
    reference_solve,
)
from relaxplay.core import objective_values
from relaxplay.oracles import _flip_deltas
from relaxplay.predictor import MAX_BATCH_ELEMENTS


def random_query(rng, n_pairs=3, n_signed=2, coefficient=2.0, lattice=None):
    # `lattice` snaps feature positions to multiples of that spacing, so a
    # reference grid finer than half the spacing realizes every objective cell
    def feat(x):
        return float(round(x / lattice) * lattice) if lattice else float(x)

    pairs = tuple(
        LabeledPair(feat(x), float(y))
        for x, y in zip(rng.random(n_pairs), rng.random(n_pairs))
    )
    signed = tuple(
        SignedTerm(int(s), feat(x))
        for s, x in zip(rng.integers(0, 2, n_signed) * 2 - 1, rng.random(n_signed))
    )
    return MixedErmQuery(pairs=pairs, signed=signed, coefficient=coefficient)


class TestThresholdSolve:
    def test_realizable_pairs(self):
        cls = ThresholdClass()
        res = cls.solve(MixedErmQuery(pairs=(LabeledPair(0.2, 0.0), LabeledPair(0.8, 1.0))))
        assert res.objective == pytest.approx(0.0)
        assert 0.2 < res.hypothesis <= 0.8

    def test_signed_only(self):
        cls = ThresholdClass()
        res = cls.solve(MixedErmQuery(signed=(SignedTerm(-1, 0.5),), coefficient=1.0))
        assert res.objective == pytest.approx(-1.0)
        assert res.hypothesis == pytest.approx(0.0)  # leftmost minimizer

    def test_mixed_three_cells(self):
        # cells: a <= 0.5 -> 0 - 2 = -2; a in (0.5, 0.7] -> 1 - 2 = -1; a > 0.7 -> 1
        cls = ThresholdClass()
        res = cls.solve(
            MixedErmQuery(
                pairs=(LabeledPair(0.5, 1.0),),
                signed=(SignedTerm(-1, 0.7),),
                coefficient=2.0,
            )
        )
        assert res.objective == pytest.approx(-2.0)
        assert res.hypothesis == pytest.approx(0.0)

    def test_rejects_vector_features(self):
        cls = ThresholdClass()
        with pytest.raises(UnsupportedClassError):
            cls.solve(MixedErmQuery(pairs=(LabeledPair(np.array([0.1, 0.2]), 0.0),)))


class TestIntervalSolve:
    def test_single_point_covered(self):
        cls = IntervalClass(gamma_len=0.1)
        res = cls.solve(MixedErmQuery(pairs=(LabeledPair(0.5, 1.0),)))
        assert res.objective == pytest.approx(0.0)
        a, b = res.hypothesis
        assert a <= 0.5 <= b and b - a >= 0.1 - 1e-12

    def test_long_interval_constraint(self):
        cls = IntervalClass(gamma_len=0.9)
        res = cls.solve(MixedErmQuery(pairs=(LabeledPair(0.05, 0.0), LabeledPair(0.5, 1.0))))
        assert res.objective == pytest.approx(0.0)

    def test_degenerate_full_interval(self):
        cls = IntervalClass(gamma_len=1.0)
        query = MixedErmQuery(
            pairs=(LabeledPair(0.3, 0.0), LabeledPair(0.9, 1.0)),
            signed=(SignedTerm(1, 0.5),),
            coefficient=2.0,
        )
        res = cls.solve(query)
        # the only hypothesis is 1{x in [0,1]}: |1-0| + |1-1| + 2*1 = 3
        assert res.objective == pytest.approx(3.0)

    def test_bad_gamma_rejected(self):
        with pytest.raises(ConfigError):
            IntervalClass(gamma_len=0.0)


class TestFiniteSolve:
    def test_constant_pair(self):
        cls = FiniteClass.from_constants([0.0, 1.0])
        res = cls.solve(MixedErmQuery(pairs=(LabeledPair(0.5, 1.0),)))
        assert res.hypothesis == 1
        assert res.objective == pytest.approx(0.0)

    def test_signed_only(self):
        cls = FiniteClass.from_constants([0.0, 1.0])
        res = cls.solve(MixedErmQuery(signed=(SignedTerm(1, 0.5),), coefficient=3.0))
        assert res.hypothesis == 0
        assert res.objective == pytest.approx(0.0)

    def test_lowest_index_tie_break(self):
        cls = FiniteClass.from_constants([0.5, 0.5])
        res = cls.solve(MixedErmQuery(pairs=(LabeledPair(0.1, 0.5),)))
        assert res.hypothesis == 0

    def test_random_table_matches_reference(self):
        rng = np.random.default_rng(3)
        consts = [float(c) for c in rng.random(8)]
        cls = FiniteClass.from_constants(consts)
        for _ in range(50):
            query = random_query(rng)
            assert cls.solve(query).objective == pytest.approx(
                reference_solve(cls, query, 1.0).objective, abs=1e-12
            )


class TestLipschitzSolve:
    def test_single_pair_exact(self):
        cls = LipschitzClass()
        res = cls.solve(MixedErmQuery(pairs=(LabeledPair(0.3, 0.5),)))
        assert res.objective == pytest.approx(0.0, abs=1e-9)

    def test_feasible_identity(self):
        cls = LipschitzClass()
        res = cls.solve(MixedErmQuery(pairs=(LabeledPair(0.0, 0.0), LabeledPair(1.0, 1.0))))
        assert res.objective == pytest.approx(0.0, abs=1e-9)

    def test_binding_constraint(self):
        # labels 1 and 0 at distance 0.2: the values can differ by 0.2 at most
        cls = LipschitzClass()
        res = cls.solve(MixedErmQuery(pairs=(LabeledPair(0.0, 1.0), LabeledPair(0.2, 0.0))))
        assert res.objective == pytest.approx(0.8, abs=1e-12)
        points, values = res.hypothesis
        assert values[0] - values[1] == pytest.approx(0.2, abs=1e-12)

    def test_output_always_feasible(self):
        rng = np.random.default_rng(11)
        cls = LipschitzClass()
        for _ in range(20):
            query = MixedErmQuery(
                xs=rng.random(3), ys=rng.random(3),
                signed_xs=rng.random(2), signs=rng.integers(0, 2, 2) * 2 - 1.0, coefficient=1.5,
            )
            points, values = cls.solve(query).hypothesis
            assert_lipschitz_values(points, values)
            assert [cls.evaluate((points, values), x) for x in points.tolist()] == pytest.approx(values, abs=1e-12)

    def test_rejects_custom_loss(self):
        from relaxplay import LossFn

        loss = LossFn(kind="custom", lipschitz=1.0, evaluator=lambda p, y: (p - y) ** 2)
        with pytest.raises(UnsupportedClassError):
            LipschitzClass().solve(MixedErmQuery(pairs=(LabeledPair(0.1, 0.2),), loss=loss))

    def test_empty_query(self):
        res = LipschitzClass().solve(MixedErmQuery())
        assert res.objective == 0.0
        assert LipschitzClass().evaluate(res.hypothesis, 0.7) == 0.0


def assert_lipschitz_values(points, values):
    """Sorted points, values in [0,1], and 1-Lipschitz between neighbours."""
    assert np.all(np.diff(points) >= 0.0)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.abs(np.diff(values)) <= np.diff(points) + 1e-12)


def lipschitz_lp(query):
    """Exact reference for LipschitzClass: the LP over the values v at the
    queried points and slacks t_k >= |v_k - y_k| of the pairs, with
    |v_i - v_j| <= x_j - x_i for neighbours i, j in sorted order and
    0 <= v <= 1 (scipy HiGHS)."""
    from scipy.optimize import linprog

    points = np.concatenate([query.xs, query.signed_xs])
    n, m = len(points), len(query.xs)
    if n == 0:
        return 0.0
    cost = np.concatenate([np.zeros(m), query.coefficient * query.signs, np.ones(m)])
    rows, bounds = [], []
    for k, y in enumerate(query.ys.tolist()):
        for s in (1.0, -1.0):  # s*(v_k - y) <= t_k
            row = np.zeros(n + m)
            row[k], row[n + k] = s, -1.0
            rows.append(row)
            bounds.append(s * y)
    order = points.argsort(kind="stable")
    for i, j in zip(order[:-1].tolist(), order[1:].tolist()):
        for s in (1.0, -1.0):
            row = np.zeros(n + m)
            row[i], row[j] = s, -s
            rows.append(row)
            bounds.append(points[j] - points[i])
    res = linprog(
        cost, A_ub=np.array(rows) if rows else None, b_ub=np.array(bounds) if rows else None,
        bounds=[(0.0, 1.0)] * n + [(0.0, None)] * m, method="highs",
        # HiGHS's default tolerances of 1e-7 let it report optima off by more
        # than the 1e-9 the tests ask of the DP when a cost is near 1e-7
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return float(res.fun)


class TestLipschitzAgainstLp:
    """The chain DP against the exact LP, to 1e-9, with feasible values."""

    def _check(self, query):
        res = LipschitzClass().solve(query)
        assert res.objective == pytest.approx(lipschitz_lp(query), abs=1e-9)
        points, values = res.hypothesis
        assert_lipschitz_values(points, values)

    def test_500_random_queries(self):
        rng = np.random.default_rng(25)
        for i in range(500):
            n_pairs, n_signed = (int(n) for n in rng.integers(0, 30, 2))
            if i % 5 == 1:
                n_signed = 0  # pairs only
            elif i % 5 == 2:
                n_pairs = 0  # signed terms only
            if n_pairs + n_signed == 0:
                n_pairs = 1
            if i % 3 == 0:  # duplicate points on a coarse lattice
                lattice = int(rng.integers(2, 8))
                xs = rng.integers(0, lattice + 1, n_pairs) / lattice
                signed_xs = rng.integers(0, lattice + 1, n_signed) / lattice
            else:
                xs, signed_xs = rng.random(n_pairs), rng.random(n_signed)
            ys = rng.integers(0, 2, n_pairs).astype(float) if i % 2 else rng.random(n_pairs)
            C = 0.0 if i % 7 == 0 else float(rng.uniform(0.0, 4.0))
            self._check(MixedErmQuery(
                xs=xs, ys=ys, signed_xs=signed_xs, signs=rng.integers(0, 2, n_signed) * 2 - 1.0, coefficient=C,
            ))

    feature = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 1.0))

    @settings(max_examples=100, deadline=None)
    @given(
        pairs=st.lists(st.tuples(feature, st.floats(0.0, 1.0)), max_size=8),
        signed=st.lists(st.tuples(feature, st.sampled_from((-1.0, 1.0))), max_size=8),
        coefficient=st.floats(0.0, 3.0),
    )
    def test_property(self, pairs, signed, coefficient):
        self._check(MixedErmQuery(
            xs=[p[0] for p in pairs], ys=[p[1] for p in pairs],
            signed_xs=[s[0] for s in signed], signs=[s[1] for s in signed], coefficient=coefficient,
        ))


class TestReferenceCrossChecks:
    """Exact oracles against the brute-force reference on random queries."""

    def _check(self, cls, rng, queries, grid_step, lattice=None):
        for _ in range(queries):
            n_pairs = int(rng.integers(0, 5))
            n_signed = int(rng.integers(0, 4))
            if n_pairs == 0 and n_signed == 0:
                n_pairs = 1
            C = float(rng.uniform(0, 3))
            query = random_query(rng, n_pairs, n_signed, C, lattice=lattice)
            exact = cls.solve(query).objective
            ref = reference_solve(cls, query, grid_step).objective
            tol = grid_step * query.loss.lipschitz * (n_pairs + C * n_signed)
            assert exact <= ref + 1e-9
            assert ref <= exact + tol + 1e-9

    def test_threshold_500_random_queries(self):
        self._check(ThresholdClass(), np.random.default_rng(21), 500, 0.002)

    def test_interval_500_random_queries(self):
        self._check(IntervalClass(gamma_len=0.2), np.random.default_rng(22), 500, 0.025, lattice=0.1)

    def test_finite_500_random_queries(self):
        cls = FiniteClass.from_constants([float(c) for c in np.random.default_rng(1).random(6)])
        self._check(cls, np.random.default_rng(23), 500, 1.0)

    def test_solve_determinism(self):
        rng = np.random.default_rng(24)
        query = random_query(rng)
        for cls in (ThresholdClass(), IntervalClass(0.1), FiniteClass.from_constants([0.2, 0.9])):
            r1, r2 = cls.solve(query), cls.solve(query)
            assert r1.hypothesis == r2.hypothesis and r1.objective == r2.objective

    def test_call_counter_increments(self):
        cls = ThresholdClass()
        assert cls.solve_calls == 0
        cls.solve(MixedErmQuery(pairs=(LabeledPair(0.5, 1.0),)))
        assert cls.solve_calls == 1
        clone = cls.clone()
        assert clone.solve_calls == 0 and cls.solve_calls == 1


def enumerate_interval_solve(gamma, query):
    """Exact reference for IntervalClass: the package's earlier solver, which
    scores every candidate interval.

    The objective is constant on cells whose boundaries are an endpoint
    crossing a queried feature, or the binding length constraint b = a + gamma
    crossing one (a at value - gamma). Critical coordinates plus the midpoints
    of adjacent critical pairs give one representative per cell; every
    candidate left end is paired with every candidate right end.
    """
    xs, xt = query.xs, query.signed_xs
    allx = np.concatenate([xs, xt])
    g = gamma
    if allx.size == 0:
        return (0.0, g), 0.0
    base = 0.0
    deltas = []
    for y in query.ys.tolist():
        base += loss_eval(query.loss, 0.0, y)
        deltas.append(loss_eval(query.loss, 1.0, y) - loss_eval(query.loss, 0.0, y))
    deltas += [query.coefficient * s for s in query.signs.tolist()]
    dlt = np.asarray(deltas)

    cand = {0.0, 1.0, g, 1.0 - g}
    for v in np.unique(allx):
        cand.update((v, v - g, v + g))
    crit = np.array(sorted(c for c in cand if -g <= c <= 1.0 + g))
    cand.update((crit[:-1] + crit[1:]) / 2.0)
    cand = np.array(sorted(c for c in cand if 0.0 <= c <= 1.0))

    best_obj, best_handle, tol = np.inf, None, 1e-12
    for a in cand:
        if a > 1.0 - g + tol:
            continue
        bs = np.union1d(cand[cand >= a + g - tol], [min(1.0, a + g)])
        covered = (allx[None, :] >= a) & (allx[None, :] <= bs[:, None])
        objs = base + covered @ dlt
        i = int(np.argmin(objs))
        if objs[i] < best_obj - tol:
            best_obj, best_handle = float(objs[i]), (float(a), float(bs[i]))
    return best_handle, best_obj


def sweep_interval_solve(gamma, base, pos, dlt):
    """Reference for IntervalClass.solve_rows: the package's earlier
    one-row sweep, which solves one flip-delta row at a time.

    Exact in O(n log n): an interval covers a contiguous run of the sorted
    distinct positions, so the best run ending at each position is a
    prefix-sum difference against a running maximum over the left ends that
    still leave float length gamma inside [0,1].
    """
    g = gamma
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


def widest_interval_solve(gamma, query):
    """Float-exact reference for IntervalClass, by brute force over handles.

    Widening [a, b] up to the nearest feature on either side keeps what it
    covers and only adds float length, so every coverable set of features is
    covered by some a in {0, the floats just above features} and b in {1, the
    floats just below features} with float length b - a >= gamma. Scores all
    such pairs with objective_values.
    """
    cls = IntervalClass(gamma)
    allx = np.concatenate([query.xs, query.signed_xs])
    allx = allx[(allx >= 0.0) & (allx <= 1.0)]
    lefts = np.append(np.nextafter(allx, np.inf), 0.0)
    rights = np.append(np.nextafter(allx, -np.inf), 1.0)
    return min(
        (objective_values(cls, [(float(a), float(b))], query)[0], (float(a), float(b)))
        for a in lefts
        for b in rights
        if a >= 0.0 and b <= 1.0 and b - a >= gamma
    )[::-1]


def feature_query(rng, n_pairs, n_signed, feat):
    return MixedErmQuery(
        xs=[feat() for _ in range(n_pairs)],
        ys=rng.random(n_pairs),
        signed_xs=[feat() for _ in range(n_signed)],
        signs=rng.integers(0, 2, n_signed) * 2.0 - 1.0,
        coefficient=float(rng.uniform(0.0, 3.0)),
    )


class TestIntervalAgainstEnumeration:
    """The O(n log n) sweep against the exact references."""

    GAMMAS = (0.1, 0.25, 0.5)

    def _check(self, rng, feat, reference=enumerate_interval_solve):
        for k in range(500):
            gamma = self.GAMMAS[k % 3]
            cls = IntervalClass(gamma)
            query = feature_query(rng, int(rng.integers(0, 7)), int(rng.integers(0, 6)), feat)
            res = cls.solve(query)
            _, ref = reference(gamma, query)
            assert res.objective == pytest.approx(ref, abs=1e-9)
            assert objective_values(cls, [res.hypothesis], query)[0] == pytest.approx(res.objective, abs=1e-9)
            a, b = res.hypothesis
            assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and b - a >= gamma

    def test_500_off_lattice_queries(self):
        rng = np.random.default_rng(51)
        self._check(rng, lambda: float(rng.random()))

    def test_500_dyadic_lattice_queries(self):
        # gaps of exactly 0.25 or 0.5 put the open and closed interval ends on features
        rng = np.random.default_rng(52)
        self._check(rng, lambda: float(rng.integers(0, 9)) / 8.0)

    def test_500_decimal_lattice_queries(self):
        # multiples of 0.1 summed in floats sit an ulp or so off the decimal
        # lattice, so gaps land within rounding of gamma. The enumeration
        # reference admits lengths up to 1e-12 short of gamma, so these are
        # checked against the float-exact brute force instead.
        rng = np.random.default_rng(53)
        steps = [sum([0.1] * k) for k in range(11)]
        self._check(rng, lambda: steps[int(rng.integers(0, 11))], widest_interval_solve)

    def test_float_reference_agrees_off_lattice(self):
        rng = np.random.default_rng(54)
        for k in range(200):
            gamma = self.GAMMAS[k % 3]
            query = feature_query(rng, int(rng.integers(0, 7)), int(rng.integers(0, 6)), rng.random)
            _, ref = enumerate_interval_solve(gamma, query)
            assert widest_interval_solve(gamma, query)[1] == pytest.approx(ref, abs=1e-9)

    def test_gap_within_rounding_of_gamma(self):
        # (0.2, 0.1 + 0.2) passes the float test 0.2 < (0.1 + 0.2) - 0.1, but
        # no float interval of length 0.1 fits strictly inside it
        cls = IntervalClass(0.1)
        query = MixedErmQuery(xs=[0.1, 0.2, 0.1 + 0.2], ys=[0.0, 0.0, 0.0])
        res = cls.solve(query)
        assert res.objective == 0.0
        assert objective_values(cls, [res.hypothesis], query)[0] == res.objective
        a, b = res.hypothesis
        assert b - a >= 0.1 and not any(a <= x <= b for x in query.xs)

    def test_exact_gap_is_not_an_interval(self):
        # gaps like (0.25, 0.5) are open at both ends, so no length-0.25
        # interval fits between the features: each one covers at least one
        cls = IntervalClass(0.25)
        query = MixedErmQuery(xs=[0.0, 0.25, 0.5, 0.75, 1.0], ys=[0.0] * 5)
        assert cls.solve(query).objective == 1.0
        query = MixedErmQuery(xs=[0.25], ys=[0.0])
        res = cls.solve(query)
        assert res.objective == 0.0  # [0.5, 0.75] or [0, 0.25) avoid it
        a, b = res.hypothesis
        assert not a <= 0.25 <= b

    def test_out_of_range_positions_are_never_covered(self):
        cls = IntervalClass(0.25)
        query = MixedErmQuery(signed_xs=[-0.5, 1.5, 0.5], signs=[-1.0, -1.0, -1.0], coefficient=1.0)
        assert cls.solve(query).objective == pytest.approx(-1.0)


class TestArrayAndTermQueriesAgree:
    """A query built from arrays solves exactly like the same query built from terms."""

    terms = st.lists(
        st.tuples(
            st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from((-1, 1))
        ),
        max_size=5,
    )

    @pytest.mark.parametrize(
        "make",
        [
            ThresholdClass,
            lambda: IntervalClass(0.25),
            lambda: FiniteClass.from_constants([0.0, 0.3, 1.0]),
            LipschitzClass,
        ],
        ids=["threshold", "interval", "finite", "lipschitz"],
    )
    @settings(max_examples=25, deadline=None)
    @given(pair_terms=terms, signed_terms=terms, coefficient=st.floats(0.0, 3.0))
    def test_identical_solve(self, make, pair_terms, signed_terms, coefficient):
        from_terms = MixedErmQuery(
            pairs=[LabeledPair(x, y) for x, y, _ in pair_terms],
            signed=[SignedTerm(s, x) for x, _, s in signed_terms],
            coefficient=coefficient,
        )
        from_arrays = MixedErmQuery(
            xs=np.array([t[0] for t in pair_terms]),
            ys=np.array([t[1] for t in pair_terms]),
            signed_xs=np.array([t[0] for t in signed_terms]),
            signs=np.array([t[2] for t in signed_terms], dtype=float),
            coefficient=coefficient,
        )
        r1, r2 = make().solve(from_terms), make().solve(from_arrays)
        assert r1.objective == r2.objective
        h1, h2 = r1.hypothesis, r2.hypothesis
        if isinstance(h1, tuple) and isinstance(h1[0], np.ndarray):
            assert all(np.array_equal(u, v) for u, v in zip(h1, h2))
        else:
            assert h1 == h2


class TestScalarOraclesRejectVectors:
    @pytest.mark.parametrize("cls", [ThresholdClass(), IntervalClass(0.1), LipschitzClass()])
    def test_array_built_vector_features(self, cls):
        with pytest.raises(UnsupportedClassError):
            cls.solve(MixedErmQuery(xs=np.array([[0.1, 0.2]]), ys=[0.0]))
        with pytest.raises(UnsupportedClassError):
            cls.solve(MixedErmQuery(signed_xs=np.array([[0.1, 0.2]]), signs=[1.0], coefficient=1.0))

    def test_length_one_vectors_count_as_scalars(self):
        res = ThresholdClass().solve(MixedErmQuery(pairs=(LabeledPair(np.array([0.5]), 1.0),)))
        assert res.objective == 0.0


class TestSolveRows:
    """The row-batched solve over flip-delta rows equals `solve` on each row's query."""

    feature = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 1.0))
    label = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
    query = st.builds(
        lambda pairs, signed, coefficient: MixedErmQuery(
            pairs=[LabeledPair(x, y) for x, y in pairs],
            signed=[SignedTerm(s, x) for x, s in signed],
            coefficient=coefficient,
        ),
        st.lists(st.tuples(feature, label), max_size=5),
        st.lists(st.tuples(feature, st.sampled_from((-1, 1))), max_size=5),
        st.sampled_from((2.0, 1.0, 0.0)),
    )

    @staticmethod
    def solve_grouped(cls, queries):
        """solve_rows on each group of queries with one row length, in query order."""
        rows = [_flip_deltas(q) for q in queries]
        out = [None] * len(queries)
        for n in sorted({len(pos) for _, pos, _ in rows}):
            group = [i for i, (_, pos, _) in enumerate(rows) if len(pos) == n]
            handles, objectives = cls.solve_rows(
                np.array([rows[i][0] for i in group]),
                np.array([rows[i][1] for i in group]).reshape(len(group), n),
                np.array([rows[i][2] for i in group]).reshape(len(group), n),
            )
            for k, i in enumerate(group):
                out[i] = (handles[k], objectives[k])
        return out

    @pytest.mark.parametrize("make", [ThresholdClass, lambda: IntervalClass(0.25)], ids=["threshold", "interval"])
    @settings(max_examples=150, deadline=None)
    @given(queries=st.lists(query, min_size=1, max_size=8))
    def test_equals_per_query_solve(self, make, queries):
        cls = make()
        batched = self.solve_grouped(cls, queries)
        assert cls.solve_calls == len(queries)
        for q, (handle, objective) in zip(queries, batched):
            res = make().solve(q)
            assert objective == res.objective
            assert handle == res.hypothesis

    def test_duplicates_bounds_and_signed_only_rows(self):
        # duplicate positions, positions at exactly 0 and 1, and a row with no pair terms
        queries = [
            MixedErmQuery(pairs=(LabeledPair(0.5, 1.0), LabeledPair(0.5, 0.0), LabeledPair(1.0, 1.0))),
            MixedErmQuery(pairs=(LabeledPair(0.0, 0.0),), signed=(SignedTerm(1, 0.0), SignedTerm(-1, 1.0)), coefficient=2.0),
            MixedErmQuery(signed=(SignedTerm(-1, 0.3), SignedTerm(-1, 0.3), SignedTerm(1, 1.0)), coefficient=2.0),
            MixedErmQuery(pairs=(LabeledPair(1.0, 0.0), LabeledPair(1.0, 0.0), LabeledPair(1.0, 1.0))),
        ]
        cls = ThresholdClass()
        for q, (handle, objective) in zip(queries, self.solve_grouped(cls, queries)):
            res = ThresholdClass().solve(q)
            assert (handle, objective) == (res.hypothesis, res.objective)

    def test_no_terms(self):
        cls = ThresholdClass()
        handles, objectives = cls.solve_rows(np.zeros(3), np.empty((3, 0)), np.empty((3, 0)))
        assert handles.tolist() == objectives.tolist() == [0.0, 0.0, 0.0]
        assert cls.solve_calls == 3
        assert ThresholdClass().solve(MixedErmQuery()) == ErmResult(0.0, 0.0)


@st.composite
def flip_delta_batches(draw):
    """(gamma, base, pos, dlt) of a batch of flip-delta rows: duplicate
    positions, positions at 0 and 1, just off the decimal lattice and
    outside [0,1], with float and +-1/+-2 deltas."""
    rows, n = draw(st.integers(1, 8)), draw(st.integers(0, 10))
    position = st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, 0.25, 0.5, 0.75, 0.1, 0.1 + 0.2, 0.6, -0.5, 1.5)),
        st.floats(-0.5, 1.5),
    )
    # sums of 0.1, 0.2 and 0.3 depend on the order they are added in
    delta = st.one_of(st.sampled_from((-2.0, -1.0, 1.0, 2.0, 0.1, 0.2, 0.3)), st.floats(-3.0, 3.0))

    def cells(strategy, size):
        return np.array(draw(st.lists(strategy, min_size=size, max_size=size)), dtype=float)

    return (
        draw(st.sampled_from((0.1, 0.25, 0.5, 1.0))),
        cells(st.floats(-5.0, 5.0), rows),
        cells(position, rows * n).reshape(rows, n),
        cells(delta, rows * n).reshape(rows, n),
    )


class TestIntervalSolveRows:
    """The row-vectorized interval sweep equals the one-row reference sweep
    on every row, handle and objective, bit for bit."""

    @staticmethod
    def check(gamma, base, pos, dlt):
        cls = IntervalClass(gamma)
        handles, objectives = cls.solve_rows(base, pos, dlt)
        assert cls.solve_calls == len(base)
        assert len(handles) == len(objectives) == len(base)
        for b in range(len(base)):
            ref = sweep_interval_solve(gamma, float(base[b]), pos[b], dlt[b])
            assert handles[b] == ref.hypothesis
            assert objectives[b] == ref.objective
        return handles, objectives

    @settings(max_examples=300, deadline=None)
    @given(batch=flip_delta_batches())
    def test_equals_reference_sweep(self, batch):
        self.check(*batch)

    def test_no_position_in_range(self):
        # k = 0: the leftmost shortest interval, not the full gap [0, 1]
        pos = np.array([[-0.5, 1.5, 2.0], [-1e-9, 1.0 + 1e-9, -3.0]])
        handles, objectives = self.check(0.25, np.array([1.5, -2.0]), pos, np.array([[-1.0, -2.0, 0.5]] * 2))
        assert handles == [(0.0, 0.25), (0.0, 0.25)]
        assert objectives.tolist() == [1.5, -2.0]

    def test_mixed_empty_and_covered_rows(self):
        # a position's deltas add in term order: (-0.1 - 0.2) - 0.3 != (-0.3 - 0.2) - 0.1
        pos = np.array([[-0.5, 1.5, 2.0], [0.5, 0.5, 0.5], [1.5, 0.2, 0.2]])
        dlt = np.array([[-1.0, -1.0, -1.0], [-0.1, -0.2, -0.3], [-1.0, -1.0, -0.5]])
        handles, objectives = self.check(0.25, np.zeros(3), pos, dlt)
        assert handles[0] == (0.0, 0.25)
        assert objectives.tolist() == [0.0, -0.1 - 0.2 - 0.3, -1.5]

    def test_no_terms(self):
        cls = IntervalClass(0.25)
        handles, objectives = cls.solve_rows(np.array([1.5, -2.0]), np.empty((2, 0)), np.empty((2, 0)))
        assert handles == [(0.0, 0.25), (0.0, 0.25)]
        assert objectives.tolist() == [1.5, -2.0]
        assert cls.solve_calls == 2
        assert IntervalClass(0.25).solve(MixedErmQuery()) == ErmResult((0.0, 0.25), 0.0)

    def test_batch_at_element_cap(self):
        # the fast path's largest batch: rows of 16 terms, MAX_BATCH_ELEMENTS in all
        rng = np.random.default_rng(61)
        n = 16
        rows = 2 * (MAX_BATCH_ELEMENTS // (2 * n))
        steps = np.array([sum([0.1] * k) for k in range(11)])
        pos = np.where(rng.random((rows, n)) < 0.5, steps[rng.integers(0, 11, (rows, n))], rng.uniform(-0.1, 1.1, (rows, n)))
        dlt = np.where(rng.random((rows, n)) < 0.5, rng.normal(size=(rows, n)), rng.choice([-2.0, -1.0, 1.0, 2.0], (rows, n)))
        assert rows * n == MAX_BATCH_ELEMENTS
        self.check(0.25, rng.normal(size=rows), pos, dlt)

    def test_counts_one_call_per_row(self):
        cls = IntervalClass(0.1)
        rng = np.random.default_rng(62)
        cls.solve_rows(np.zeros(3), rng.random((3, 4)), rng.normal(size=(3, 4)))
        cls.solve_rows(np.zeros(5), rng.random((5, 2)), rng.normal(size=(5, 2)))
        assert cls.solve_calls == 8
        cls.solve(MixedErmQuery(xs=[0.5], ys=[1.0]))
        assert cls.solve_calls == 9
