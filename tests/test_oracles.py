import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxplay import (
    ConfigError,
    FiniteClass,
    IntervalClass,
    LabeledPair,
    LipschitzClass,
    MixedErmQuery,
    SignedTerm,
    ThresholdClass,
    UnsupportedClassError,
    loss_eval,
    query_objective,
    reference_solve,
)


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
        cls = LipschitzClass()
        res = cls.solve(MixedErmQuery(pairs=(LabeledPair(0.0, 1.0), LabeledPair(0.2, 0.0))))
        assert res.objective == pytest.approx(0.8, abs=cls.solve_tolerance)

    def test_output_always_feasible(self):
        rng = np.random.default_rng(11)
        cls = LipschitzClass(dimension=2)
        for _ in range(20):
            pairs = tuple(
                LabeledPair(rng.random(2), float(y)) for y in rng.random(3)
            )
            signed = tuple(
                SignedTerm(int(s), rng.random(2)) for s in rng.integers(0, 2, 2) * 2 - 1
            )
            points, values = cls.solve(
                MixedErmQuery(pairs=pairs, signed=signed, coefficient=1.5)
            ).hypothesis
            dist = np.max(np.abs(points[:, None, :] - points[None, :, :]), axis=2)
            diff = np.abs(values[:, None] - values[None, :])
            assert np.all(diff <= dist + 1e-9)
            assert np.all((values >= -1e-12) & (values <= 1 + 1e-12))

    def test_rejects_custom_loss(self):
        from relaxplay import LossFn

        loss = LossFn(kind="custom", lipschitz=1.0, evaluator=lambda p, y: (p - y) ** 2)
        with pytest.raises(UnsupportedClassError):
            LipschitzClass().solve(MixedErmQuery(pairs=(LabeledPair(0.1, 0.2),), loss=loss))


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
    for y, w in zip(query.ys.tolist(), query.ws.tolist()):
        base += w * loss_eval(query.loss, 0.0, y)
        deltas.append(w * (loss_eval(query.loss, 1.0, y) - loss_eval(query.loss, 0.0, y)))
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


def widest_interval_solve(gamma, query):
    """Float-exact reference for IntervalClass, by brute force over handles.

    Widening [a, b] up to the nearest feature on either side keeps what it
    covers and only adds float length, so every coverable set of features is
    covered by some a in {0, the floats just above features} and b in {1, the
    floats just below features} with float length b - a >= gamma. Scores all
    such pairs with query_objective.
    """
    cls = IntervalClass(gamma)
    allx = np.concatenate([query.xs, query.signed_xs])
    allx = allx[(allx >= 0.0) & (allx <= 1.0)]
    lefts = np.append(np.nextafter(allx, np.inf), 0.0)
    rights = np.append(np.nextafter(allx, -np.inf), 1.0)
    return min(
        (query_objective(cls, (float(a), float(b)), query), (float(a), float(b)))
        for a in lefts
        for b in rights
        if a >= 0.0 and b <= 1.0 and b - a >= gamma
    )[::-1]


def weighted_query(rng, n_pairs, n_signed, feat):
    return MixedErmQuery(
        xs=[feat() for _ in range(n_pairs)],
        ys=rng.random(n_pairs),
        ws=rng.uniform(0.0, 2.0, n_pairs),
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
            query = weighted_query(rng, int(rng.integers(0, 7)), int(rng.integers(0, 6)), feat)
            res = cls.solve(query)
            _, ref = reference(gamma, query)
            assert res.objective == pytest.approx(ref, abs=1e-9)
            assert query_objective(cls, res.hypothesis, query) == pytest.approx(res.objective, abs=1e-9)
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
            query = weighted_query(rng, int(rng.integers(0, 7)), int(rng.integers(0, 6)), rng.random)
            _, ref = enumerate_interval_solve(gamma, query)
            assert widest_interval_solve(gamma, query)[1] == pytest.approx(ref, abs=1e-9)

    def test_gap_within_rounding_of_gamma(self):
        # (0.2, 0.1 + 0.2) passes the float test 0.2 < (0.1 + 0.2) - 0.1, but
        # no float interval of length 0.1 fits strictly inside it
        cls = IntervalClass(0.1)
        query = MixedErmQuery(xs=[0.1, 0.2, 0.1 + 0.2], ys=[0.0, 0.0, 0.0])
        res = cls.solve(query)
        assert res.objective == 0.0
        assert query_objective(cls, res.hypothesis, query) == res.objective
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
            st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 3.0), st.sampled_from((-1, 1))
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
            pairs=[LabeledPair(x, y, w) for x, y, w, _ in pair_terms],
            signed=[SignedTerm(s, x) for x, _, _, s in signed_terms],
            coefficient=coefficient,
        )
        from_arrays = MixedErmQuery(
            xs=np.array([t[0] for t in pair_terms]),
            ys=np.array([t[1] for t in pair_terms]),
            ws=np.array([t[2] for t in pair_terms]),
            signed_xs=np.array([t[0] for t in signed_terms]),
            signs=np.array([t[3] for t in signed_terms], dtype=float),
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
    @pytest.mark.parametrize("cls", [ThresholdClass(), IntervalClass(0.1)])
    def test_array_built_vector_features(self, cls):
        with pytest.raises(UnsupportedClassError):
            cls.solve(MixedErmQuery(xs=np.array([[0.1, 0.2]]), ys=[0.0]))
        with pytest.raises(UnsupportedClassError):
            cls.solve(MixedErmQuery(signed_xs=np.array([[0.1, 0.2]]), signs=[1.0], coefficient=1.0))

    def test_length_one_vectors_count_as_scalars(self):
        res = ThresholdClass().solve(MixedErmQuery(pairs=(LabeledPair(np.array([0.5]), 1.0),)))
        assert res.objective == 0.0
