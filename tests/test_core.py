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
    estimate_rademacher,
    loss_eval,
    lowest_argmin,
)
from relaxplay.core import objective_values


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

    @pytest.mark.parametrize("lipschitz", [float("nan"), float("inf"), 0.0, -1.0])
    def test_lipschitz_must_be_finite_and_positive(self, lipschitz):
        with pytest.raises(ConfigError, match="lipschitz constant must be finite and positive"):
            LossFn(kind="custom", lipschitz=lipschitz, evaluator=lambda p, y: abs(p - y))


class TestLowestArgmin:
    def test_plain_minimum(self):
        assert lowest_argmin([3.0, 1.0, 2.0]) == 1

    def test_ties_within_tolerance_go_to_lowest_index(self):
        assert lowest_argmin([1.0, 1.0 - 5e-16, 1.0]) == 0
        assert lowest_argmin([1.0, 1.0 - 1e-12]) == 1

    def test_no_value_below_infinity(self):
        assert lowest_argmin([np.inf, np.nan]) == 0
        assert lowest_argmin([np.nan, 2.0]) == 1


class TestDomainTypes:
    def test_label_range_enforced(self):
        with pytest.raises(InputDomainError):
            LabeledPair(0.5, 1.5)

    def test_signed_term_sign(self):
        with pytest.raises(InputDomainError):
            SignedTerm(2, 0.5)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(InputDomainError):
            MixedErmQuery(coefficient=-1.0)


class TestBestInHindsight:
    def test_realizable_threshold_sample(self):
        cls = ThresholdClass()
        _, obj = best_in_hindsight(cls, np.array([0.2, 0.8]), np.array([0.0, 1.0]))
        assert obj == pytest.approx(0.0)

    def test_unrealizable_threshold_sample(self):
        cls = ThresholdClass()
        _, obj = best_in_hindsight(cls, np.array([0.2, 0.8]), np.array([1.0, 0.0]))
        assert obj == pytest.approx(1.0)

    def test_symmetric_finite_sample(self):
        cls = FiniteClass.from_constants([0.0, 1.0])
        _, obj = best_in_hindsight(cls, np.array([0.4]), np.array([0.5]))
        assert obj == pytest.approx(0.5)

    def test_empty_pairs_rejected(self):
        with pytest.raises(InputDomainError):
            best_in_hindsight(ThresholdClass(), np.empty(0), np.empty(0))


class TestQueryObjective:
    def test_matches_hand_computation(self):
        cls = FiniteClass.from_constants([0.3])
        query = MixedErmQuery(
            pairs=(LabeledPair(0.1, 1.0),),
            signed=(SignedTerm(-1, 0.9),),
            coefficient=3.0,
        )
        # |0.3-1| + 3*(-1)*0.3 = 0.7 - 0.9
        assert objective_values(cls, [0], query)[0] == pytest.approx(-0.2)

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
                objective_values(cls, [res.hypothesis], query)[0], abs=1e-12
            )


def running_objective(cls, handle, query):
    """The objective as one running sum over the terms, each loss through loss_eval."""
    total = 0.0
    for x, y in zip(query.xs.tolist(), query.ys.tolist()):
        total += loss_eval(query.loss, cls.evaluate(handle, x), y)
    for x, s in zip(query.signed_xs.tolist(), query.signs.tolist()):
        total += query.coefficient * s * cls.evaluate(handle, x)
    return total


class TestObjectiveValues:
    @pytest.mark.parametrize(
        "loss", [ABSOLUTE_LOSS, LossFn("custom", lipschitz=2.0, evaluator=lambda p, y: (p - y) ** 2)],
        ids=["absolute", "squared"],
    )
    def test_bit_equal_to_running_sum(self, loss):
        rng = np.random.default_rng(17)
        cls = FiniteClass([lambda x: 0.3, lambda x: x, lambda x: 1.0 - x * x, lambda x: float(x >= 0.5)])
        for _ in range(200):
            n, k = int(rng.integers(0, 9)), int(rng.integers(0, 9))
            query = MixedErmQuery(
                xs=rng.random(n), ys=rng.random(n), signed_xs=rng.random(k),
                signs=rng.choice([-1.0, 1.0], k), coefficient=float(rng.random() * 4), loss=loss,
            )
            values = objective_values(cls, range(len(cls)), query)
            assert values == [running_objective(cls, h, query) for h in range(len(cls))]
            assert objective_values(cls, [2], query)[0] == values[2]

    def test_values_outside_unit_interval_raise(self):
        cls = FiniteClass([lambda x: 0.5, lambda x: 1.5])
        query = MixedErmQuery(pairs=(LabeledPair(0.2, 1.0),))
        assert objective_values(cls, [0], query) == [0.5]
        with pytest.raises(InputDomainError):
            objective_values(cls, [0, 1], query)
        with pytest.raises(InputDomainError):
            cls.solve(query)
        # values at signed terms are checked too
        step = FiniteClass([lambda x: 0.5 if x < 0.5 else 7.0])
        signed_only = MixedErmQuery(signed_xs=[0.9], signs=[-1.0], coefficient=1.0)
        with pytest.raises(InputDomainError):
            objective_values(step, [0], signed_only)
        with pytest.raises(InputDomainError):
            step.solve(MixedErmQuery(xs=[0.1], ys=[1.0], signed_xs=[0.9], signs=[-1.0], coefficient=1.0))
        with pytest.raises(InputDomainError):
            estimate_rademacher(step, [0.9, 0.9], 0, np.random.default_rng(0), exhaustive=True)
        with pytest.raises(InputDomainError):
            estimate_rademacher(step, [0.9, 0.9], 8, np.random.default_rng(0))


class TestQueryArrays:
    def test_terms_become_arrays(self):
        query = MixedErmQuery(
            pairs=(LabeledPair(0.1, 1.0), LabeledPair(0.4, 0.0)),
            signed=(SignedTerm(-1, 0.9),),
            coefficient=3.0,
        )
        assert query.xs.dtype == np.float64 and query.xs.tolist() == [0.1, 0.4]
        assert query.ys.tolist() == [1.0, 0.0]
        assert query.signed_xs.tolist() == [0.9] and query.signs.tolist() == [-1.0]
        assert len(query.pairs) == 2 and len(query.signed) == 1
        assert query.pairs[0] == LabeledPair(0.1, 1.0)
        assert list(query.pairs) == list(query.pairs[:])
        assert query.signed[-1] == SignedTerm(-1, 0.9)

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
            MixedErmQuery(signed_xs=[0.1], signs=[1.0, -1.0])
        with pytest.raises(InputDomainError):
            MixedErmQuery(pairs=(LabeledPair(0.1, 1.0), LabeledPair(np.array([0.1, 0.2]), 0.0)))

    @pytest.mark.parametrize(
        "pair_x, signed_x",
        [([0.1, 0.2], 0.5), (0.5, [0.1, 0.2]), ([0.1, 0.2], [0.3, 0.4, 0.5]), ([0.1], 0.5)],
        ids=["d2-scalar", "scalar-d2", "d2-d3", "d1-scalar"],
    )
    def test_pair_and_signed_features_share_one_shape(self, pair_x, signed_x):
        with pytest.raises(InputDomainError, match="one shape"):
            MixedErmQuery(xs=[pair_x, pair_x], ys=[0.0, 1.0], signed_xs=[signed_x], signs=[1.0], coefficient=1.0)
        with pytest.raises(InputDomainError, match="one shape"):
            MixedErmQuery(
                pairs=(LabeledPair(np.array(pair_x), 0.0),), signed=(SignedTerm(1, np.array(signed_x)),), coefficient=1.0
            )

    def test_one_shape_needs_both_term_lists(self):
        # an empty term list has no feature shape to disagree with
        assert MixedErmQuery(xs=[[0.1, 0.2]], ys=[1.0], coefficient=1.0).xs.shape == (1, 2)
        assert MixedErmQuery(signed_xs=[[0.1, 0.2, 0.3]], signs=[1.0], coefficient=1.0).signed_xs.shape == (1, 3)
        both = MixedErmQuery(xs=[[0.1, 0.2]], ys=[1.0], signed_xs=[[0.3, 0.4]], signs=[-1.0], coefficient=1.0)
        assert both.xs.shape == both.signed_xs.shape == (1, 2)

    def test_nan_feature_no_longer_solves_to_zero(self):
        # a NaN feature used to fall outside every threshold cell silently
        with pytest.raises(InputDomainError):
            ThresholdClass().solve(MixedErmQuery(pairs=(LabeledPair(self.nan, 1.0),)))
