import numpy as np
import pytest

from relaxplay import (
    ABSOLUTE_LOSS,
    ConfigError,
    FiniteClass,
    InputDomainError,
    LabeledPair,
    LossFn,
    MixedErmQuery,
    SignedTerm,
    ThresholdClass,
    best_in_hindsight,
    loss_eval,
    query_objective,
    signed_to_absolute,
)


class TestLossEval:
    def test_identity_point(self):
        assert loss_eval(ABSOLUTE_LOSS, 0.3, 0.3) == 0.0

    def test_extreme_points(self):
        assert loss_eval(ABSOLUTE_LOSS, 0.0, 1.0) == 1.0

    def test_direct_evaluation(self):
        assert loss_eval(ABSOLUTE_LOSS, 0.25, 0.75) == 0.5

    @pytest.mark.parametrize("p,y", [(-0.1, 0.5), (0.5, 1.2), (2.0, 0.0)])
    def test_out_of_domain(self, p, y):
        with pytest.raises(InputDomainError):
            loss_eval(ABSOLUTE_LOSS, p, y)

    def test_lipschitz_on_grid(self):
        grid = np.arange(0.0, 1.0001, 0.01)
        for y in grid:
            vals = np.abs(grid - y)
            assert np.all(np.abs(np.diff(vals)) <= 0.01 + 1e-12)
        for p in grid:
            vals = np.abs(p - grid)
            assert np.all(np.abs(np.diff(vals)) <= 0.01 + 1e-12)

    def test_custom_loss_requires_evaluator(self):
        with pytest.raises(ConfigError):
            LossFn(kind="custom", lipschitz=2.0)

    def test_absolute_loss_pins_lipschitz(self):
        with pytest.raises(ConfigError):
            LossFn(kind="absolute", lipschitz=2.0)


class TestSignedToAbsolute:
    def test_plus_one(self):
        assert signed_to_absolute(+1) == (0.0, 0.0)

    def test_minus_one(self):
        assert signed_to_absolute(-1) == (1.0, -1.0)

    def test_round_trip_example(self):
        pseudo, offset = signed_to_absolute(-1)
        assert abs(0.4 - pseudo) + offset == pytest.approx(-0.4)

    def test_identity_on_grid(self):
        for sign in (-1, 1):
            pseudo, offset = signed_to_absolute(sign)
            for v in np.arange(0.0, 1.0001, 0.01):
                assert abs(v - pseudo) + offset == pytest.approx(sign * v, abs=1e-12)

    def test_rejects_other_signs(self):
        with pytest.raises(InputDomainError):
            signed_to_absolute(0)


class TestDomainTypes:
    def test_label_range_enforced(self):
        with pytest.raises(InputDomainError):
            LabeledPair(0.5, 1.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(InputDomainError):
            LabeledPair(0.5, 0.5, weight=-1.0)

    def test_signed_term_sign(self):
        with pytest.raises(InputDomainError):
            SignedTerm(2, 0.5)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(InputDomainError):
            MixedErmQuery(coefficient=-1.0)


class TestBestInHindsight:
    def test_realizable_threshold_sample(self):
        cls = ThresholdClass()
        pairs = [LabeledPair(0.2, 0.0), LabeledPair(0.8, 1.0)]
        _, obj = best_in_hindsight(cls, pairs)
        assert obj == pytest.approx(0.0)

    def test_unrealizable_threshold_sample(self):
        cls = ThresholdClass()
        pairs = [LabeledPair(0.2, 1.0), LabeledPair(0.8, 0.0)]
        _, obj = best_in_hindsight(cls, pairs)
        assert obj == pytest.approx(1.0)

    def test_symmetric_finite_sample(self):
        cls = FiniteClass.from_constants([0.0, 1.0])
        _, obj = best_in_hindsight(cls, [LabeledPair(0.4, 0.5)])
        assert obj == pytest.approx(0.5)

    def test_empty_pairs_rejected(self):
        with pytest.raises(InputDomainError):
            best_in_hindsight(ThresholdClass(), [])


class TestQueryObjective:
    def test_matches_hand_computation(self):
        cls = FiniteClass.from_constants([0.3])
        query = MixedErmQuery(
            pairs=(LabeledPair(0.1, 1.0, weight=2.0),),
            signed=(SignedTerm(-1, 0.9),),
            coefficient=3.0,
        )
        # 2*|0.3-1| + 3*(-1)*0.3 = 1.4 - 0.9
        assert query_objective(cls, 0, query) == pytest.approx(0.5)

    def test_solve_result_consistent_with_objective(self):
        rng = np.random.default_rng(7)
        cls = ThresholdClass()
        for _ in range(50):
            pairs = tuple(
                LabeledPair(float(x), float(y))
                for x, y in zip(rng.random(4), rng.integers(0, 2, 4))
            )
            signed = tuple(
                SignedTerm(int(s), float(x))
                for s, x in zip(rng.integers(0, 2, 3) * 2 - 1, rng.random(3))
            )
            query = MixedErmQuery(pairs=pairs, signed=signed, coefficient=2.0)
            res = cls.solve(query)
            assert res.objective == pytest.approx(
                query_objective(cls, res.hypothesis, query), abs=1e-12
            )


class TestQueryArrays:
    def test_terms_become_arrays(self):
        query = MixedErmQuery(
            pairs=(LabeledPair(0.1, 1.0, weight=2.0), LabeledPair(0.4, 0.0)),
            signed=(SignedTerm(-1, 0.9),),
            coefficient=3.0,
        )
        assert query.xs.dtype == np.float64 and query.xs.tolist() == [0.1, 0.4]
        assert query.ys.tolist() == [1.0, 0.0] and query.ws.tolist() == [2.0, 1.0]
        assert query.signed_xs.tolist() == [0.9] and query.signs.tolist() == [-1.0]
        assert len(query.pairs) == 2 and len(query.signed) == 1
        assert query.pairs[0] == LabeledPair(0.1, 1.0, weight=2.0)
        assert list(query.pairs) == list(query.pairs[:])
        assert query.signed[-1] == SignedTerm(-1, 0.9)

    def test_array_form_defaults_weights(self):
        query = MixedErmQuery(xs=[0.2, 0.7], ys=[0.0, 1.0])
        assert query.ws.tolist() == [1.0, 1.0]
        assert len(query.signed) == 0

    def test_vector_features_are_rows(self):
        query = MixedErmQuery(pairs=(LabeledPair(np.array([0.1, 0.2]), 0.5),))
        assert query.xs.shape == (1, 2)
        assert np.array_equal(query.pairs[0].x, [0.1, 0.2])

    def test_with_last_label(self):
        query = MixedErmQuery(xs=[0.2, 0.7], ys=[0.0, 1.0], signed_xs=[0.5], signs=[-1.0], coefficient=2.0)
        other = query.with_last_label(0.25)
        assert other.ys.tolist() == [0.0, 0.25] and query.ys.tolist() == [0.0, 1.0]
        assert other.xs is query.xs and other.signs is query.signs and other.coefficient == 2.0
        for y in (-0.1, 1.5, float("nan")):
            with pytest.raises(InputDomainError):
                query.with_last_label(y)

    def test_both_forms_rejected(self):
        with pytest.raises(InputDomainError):
            MixedErmQuery(pairs=(LabeledPair(0.1, 1.0),), xs=[0.1], ys=[1.0])
        with pytest.raises(InputDomainError):
            MixedErmQuery(signed=(SignedTerm(1, 0.1),), signed_xs=[0.1], signs=[1.0])
        with pytest.raises(InputDomainError):
            MixedErmQuery(ys=[1.0])
        with pytest.raises(InputDomainError):
            MixedErmQuery(signs=[1.0], coefficient=1.0)


class TestQueryValidation:
    """Bad terms fail when the query is built, before any solver sees them."""

    nan, inf = float("nan"), float("inf")

    def test_nan_weight_rejected(self):
        with pytest.raises(InputDomainError):
            LabeledPair(0.3, 1.0, weight=self.nan)
        with pytest.raises(InputDomainError):
            MixedErmQuery(xs=[0.3], ys=[1.0], ws=[self.nan])

    @pytest.mark.parametrize("w", [-1.0, float("inf")])
    def test_bad_array_weight_rejected(self, w):
        with pytest.raises(InputDomainError):
            MixedErmQuery(xs=[0.3, 0.5], ys=[1.0, 0.0], ws=[1.0, w])

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_features_rejected(self, x):
        with pytest.raises(InputDomainError):
            MixedErmQuery(pairs=(LabeledPair(x, 1.0),))
        with pytest.raises(InputDomainError):
            MixedErmQuery(signed=(SignedTerm(1, x),), coefficient=1.0)
        with pytest.raises(InputDomainError):
            MixedErmQuery(xs=[0.5, x], ys=[1.0, 0.0])
        with pytest.raises(InputDomainError):
            MixedErmQuery(signed_xs=[np.array([0.5, x])], signs=[1.0])

    @pytest.mark.parametrize("y", [-0.1, 1.5, float("nan")])
    def test_labels_outside_unit_interval_rejected(self, y):
        with pytest.raises(InputDomainError):
            MixedErmQuery(xs=[0.1, 0.2], ys=[0.5, y])

    @pytest.mark.parametrize("s", [0.0, 2.0, 0.5, float("nan")])
    def test_bad_signs_rejected(self, s):
        with pytest.raises(InputDomainError):
            MixedErmQuery(signed_xs=[0.1, 0.2], signs=[1.0, s], coefficient=1.0)

    @pytest.mark.parametrize("c", [-1.0, float("nan"), float("inf")])
    def test_bad_coefficient_rejected(self, c):
        with pytest.raises(InputDomainError):
            MixedErmQuery(coefficient=c)

    def test_shape_mismatches_rejected(self):
        with pytest.raises(InputDomainError):
            MixedErmQuery(xs=[0.1, 0.2], ys=[1.0])
        with pytest.raises(InputDomainError):
            MixedErmQuery(xs=[0.1, 0.2], ys=[1.0, 0.0], ws=[1.0])
        with pytest.raises(InputDomainError):
            MixedErmQuery(signed_xs=[0.1], signs=[1.0, -1.0])
        with pytest.raises(InputDomainError):
            MixedErmQuery(pairs=(LabeledPair(0.1, 1.0), LabeledPair(np.array([0.1, 0.2]), 0.0)))

    def test_nan_feature_no_longer_solves_to_zero(self):
        # a NaN feature used to fall outside every threshold cell silently
        with pytest.raises(InputDomainError):
            ThresholdClass().solve(MixedErmQuery(pairs=(LabeledPair(self.nan, 1.0),)))
