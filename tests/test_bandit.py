import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxplay import (
    ArmCosts,
    BanditConfig,
    ConfigError,
    FeatureDistribution,
    InputDomainError,
    PolicyClass,
    bandit_epoch_schedule,
    draw_bandit,
    epoch_length,
    estimate_cost,
    gamma_default,
    mix_q,
    phi_values,
    play_arm,
    policy_erm,
    run_bandit,
    waterfill_q,
)
from relaxplay import bandit
from relaxplay.bandit import vector_sum
from relaxplay.core import feature_list
from relaxplay.environment import sample_feature
from relaxplay.epochs import EpochClock
from relaxplay.traces import BANDIT_COLUMNS, RegretTrace
from references import locate


def two_arm_class():
    return PolicyClass(
        [
            lambda x: 0,
            lambda x: 1,
            lambda x: int(x >= 0.5),
            lambda x: int(x < 0.5),
        ],
        num_arms=2,
    )


def epoch_sums(cls, est):
    """Each policy's summed cost over an estimated history of (feature, cost vector)."""
    sums = np.zeros(len(cls))
    for x, w in est:
        sums += np.asarray(w, dtype=float)[cls.arms([x])[:, 0]]
    return sums


def x_arms(cls, x):
    return cls.arms([x])[:, 0]


# Per-item references: the enumeration that the array code replaced.


def arm(cls, h, x):
    """Policy h's arm at feature x, from the policy itself."""
    return int(cls.policies[h](x))


def arm_costs(cls, items):
    """(feature, cost vector) items as a policy ERM's `ArmCosts`."""
    costs = np.array([w for _, w in items], dtype=float).reshape(len(items), cls.num_arms)
    return ArmCosts(cls.arms([x for x, _ in items]), costs)


def enumerate_policy_erm(cls, items):
    best_idx, best_obj = 0, math.inf
    for h in range(len(cls)):
        obj = 0.0
        for x, w in items:
            obj += float(w[arm(cls, h, x)])
        if obj < best_obj - 1e-15:
            best_idx, best_obj = h, obj
    return best_idx, best_obj


def enumerate_phi_values(est, pool, x_j, draw, cls, gamma):
    K = cls.num_arms
    base = [(x, w) for x, w in est if np.any(w)]
    for x, eps, z in zip(feature_list(pool[draw.indices]), draw.signs, draw.zs):
        if z != 0.0:
            base.append((x, 2.0 * z * np.asarray(eps, dtype=float)))
    out = [enumerate_policy_erm(cls, base + [(x_j, np.zeros(K))])[1]]
    for k in range(K):
        e = np.zeros(K)
        e[k] = 1.0 / gamma
        out.append(enumerate_policy_erm(cls, base + [(x_j, e)])[1])
    return np.array(out)


def slot_loop_draw(pool, count, K, gamma, rng):
    """(indices, signs, zs) drawn one slot at a time."""
    if count == 0:
        return np.arange(0), np.empty((0, K), dtype=int), np.empty(0)
    idx = rng.permutation(len(pool))[:count]
    signs = [np.where(rng.random(K) < 0.5, -1.0, 1.0) for _ in range(count)]
    zs = [(1.0 / gamma) if rng.random() < gamma * K else 0.0 for _ in range(count)]
    return idx, np.array(signs), np.array(zs)


# The K-arm step on numpy K-vectors, which the Python-float helpers replaced.


def numpy_waterfill_q(b):
    b = np.asarray(b, dtype=float)
    bp = np.maximum(b, 0.0)
    s = float(bp.sum())
    if s >= 1.0:
        return bp / s, 0.0
    return bp + (1.0 - s) / b.size, 1.0 - s


def numpy_mix_q(q_hat, gamma, K):
    if gamma * K > 1.0 + 1e-12:
        raise ConfigError("need gamma*K <= 1")
    return (1.0 - gamma * K) * np.asarray(q_hat, dtype=float) + gamma


def numpy_play_arm(q, rng):
    cdf = np.cumsum(q / q.sum())
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def numpy_estimate_cost(arm, observed, q, gamma, rng):
    if q[arm] < gamma - 1e-12:
        raise AssertionError("mixing floor violated: q[arm] < gamma")
    p = gamma * observed / q[arm]
    chat = np.zeros(len(q))
    if rng.random() < p:
        chat[arm] = 1.0 / gamma
    return chat


# The per-round bandit loop that the epoch-batched `run_bandit` replaced:
# each round runs the policies on its own context, makes K+1 separate policy
# ERMs, draws its arm with `Generator.choice` and builds its trace row.


def per_round_phi_values(pool_arms, sums, x_arms, draw, cls, gamma):
    K = cls.num_arms
    used = np.flatnonzero(draw.zs)
    arms = np.concatenate((pool_arms[:, draw.indices[used]], x_arms[:, None]), axis=1)
    slot_weights = (2.0 * draw.zs[used])[:, None] * draw.signs[used]
    out = np.empty(K + 1)
    for k in range(K + 1):
        current = np.zeros((1, K))
        if k:
            current[0, k - 1] = 1.0 / gamma
        _, out[k] = policy_erm(cls, ArmCosts(arms, np.concatenate((slot_weights, current))), sums)
    return out


def per_round_bandit_reference(policy_class, env, cost_adversary, T, config):
    K = policy_class.num_arms
    gamma = config.gamma if config.gamma is not None else gamma_default(len(policy_class), K, T)
    if gamma * K > 1.0:
        gamma = 1.0 / K
    clock = EpochClock(bandit_epoch_schedule())
    trace = RegretTrace(columns=BANDIT_COLUMNS)
    arm_matrix = np.empty((len(policy_class), T), dtype=np.intp)
    costs = np.empty((T, K))
    xs, qs, arms, epochs = [], [], [], []
    features, draws, plays = (np.random.default_rng([config.seed, stream]) for stream in (1, 2, 5))
    for t in range(1, T + 1):
        if clock.tick():
            pool_arms = arm_matrix[:, : clock.start]
            sums = np.zeros(len(policy_class))
        x_t = sample_feature(env, t, features)
        x_arms = arm_matrix[:, t - 1] = policy_class.arms([x_t])[:, 0]
        draw = draw_bandit(clock.start, clock.count, K, gamma, draws)
        phis = per_round_phi_values(pool_arms, sums, x_arms, draw, policy_class, gamma)
        q = numpy_mix_q(numpy_waterfill_q(gamma * (phis[1:] - phis[0]))[0], gamma, K)
        arm = int(plays.choice(K, p=q / q.sum()))
        history = (np.array(xs, dtype=float), np.array(arms, dtype=np.intp), costs[: t - 1])
        c_t = np.asarray(cost_adversary(t, x_t, history), dtype=float)
        chat = numpy_estimate_cost(arm, float(c_t[arm]), q, gamma, plays)
        sums += chat[x_arms]
        xs.append(x_t)
        costs[t - 1] = c_t
        qs.append(q)
        arms.append(arm)
        epochs.append(clock.n)
    h_star, _ = policy_erm(policy_class.clone(), ArmCosts(arm_matrix, costs))
    comp_costs = costs[np.arange(T), arm_matrix[h_star]].tolist()
    cum_exp = cum_comp = 0.0
    for t in range(1, T + 1):
        c_t, q = costs[t - 1], qs[t - 1]
        cum_exp += float(q @ c_t)
        cum_comp += comp_costs[t - 1]
        trace.rows.append(
            (t, epochs[t - 1], arms[t - 1], float(q.min()), float(q @ c_t), float(c_t[arms[t - 1]]), cum_exp - cum_comp)
        )
    trace.metadata.update(
        seed=config.seed, T=T, gamma=gamma, K=K, comparator=h_star, halluc_shortfall=clock.shortfall,
    )
    return trace


def mixed_table(K):
    """Constant, threshold and repeated policies, so several policies tie on every context."""
    policies = [lambda x: 0, lambda x: K - 1, lambda x: 0]
    for a in (0.0, 0.3, 0.5, 0.5, 0.8):
        policies.append((lambda a: (lambda x: (K - 1) * int(x >= a)))(a))
    policies.append(lambda x: min(int(x * K), K - 1))
    return PolicyClass(policies, num_arms=K)


def feature_costs(K):
    """Costs in [0, 1] that depend on the context and the round; ties between arms occur."""

    def costs(t, x, history):
        side = int(x >= 0.5)
        return np.array([((k + side + t % 3) % K) / (K - 1) for k in range(K)])

    return costs


def generator_with_next_random(u):
    """A PCG64 generator whose next `random()` is exactly `u` (a multiple of 2**-53)."""
    bits = np.random.PCG64(0)
    state = bits.state
    # a state with high word 0 outputs its low word unrotated; step back once to land on it
    state["state"]["state"] = int(u * 2**53) << 11
    state["has_uint32"] = 0
    bits.state = state
    bits.advance(-1)
    return np.random.Generator(bits)


class TestGammaDefault:
    def test_example(self):
        # (ln 100 / (2*5000))^{1/3}
        expect = (math.log(100) / 10_000) ** (1.0 / 3.0)
        assert gamma_default(100, 2, 5000) == pytest.approx(expect)

    def test_clip_at_inverse_k(self):
        assert gamma_default(1000, 2, 1) == pytest.approx(0.5)

    def test_monotone_in_horizon(self):
        gs = [gamma_default(16, 2, M) for M in (10, 100, 1000, 10_000)]
        assert all(a >= b for a, b in zip(gs, gs[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            gamma_default(1, 2, 10)
        with pytest.raises(ConfigError):
            gamma_default(4, 1, 10)


class TestPolicyErm:
    def test_hand_example(self):
        cls = two_arm_class()
        items = [(0.2, np.array([1.0, 0.0])), (0.8, np.array([1.0, 0.0]))]
        idx, obj = policy_erm(cls, arm_costs(cls, items))
        assert (idx, obj) == (1, 0.0)

    def test_tie_breaks_to_lowest_index(self):
        cls = two_arm_class()
        idx, obj = policy_erm(cls, arm_costs(cls, [(0.5, np.array([0.3, 0.3]))]))
        assert (idx, obj) == (0, pytest.approx(0.3))

    def test_empty_items(self):
        cls = two_arm_class()
        idx, obj = policy_erm(cls, arm_costs(cls, []))
        assert (idx, obj) == (0, 0.0)

    def test_threshold_policy_picks_cheap_side(self):
        cls = two_arm_class()
        # arm 0 cheap below 0.5, arm 1 cheap above: the threshold policy wins
        items = [
            (0.2, np.array([0.0, 1.0])),
            (0.3, np.array([0.0, 1.0])),
            (0.7, np.array([1.0, 0.0])),
        ]
        idx, obj = policy_erm(cls, arm_costs(cls, items))
        assert (idx, obj) == (2, 0.0)

    def test_counts_calls(self):
        cls = two_arm_class()
        policy_erm(cls, arm_costs(cls, []))
        policy_erm(cls, arm_costs(cls, []))
        assert cls.solve_calls == 2
        assert cls.clone().solve_calls == 0

    def test_base_is_added_first(self):
        cls = two_arm_class()
        items = arm_costs(cls, [(0.7, np.array([1.0, 0.0]))])
        # without a base policy 1 (always arm 1) is free; with one, policy 2 has
        # the least base plus item cost (objectives 3, 2, 0.25, 1)
        assert policy_erm(cls, items) == (1, 0.0)
        assert policy_erm(cls, items, np.array([2.0, 2.0, 0.25, 0.0])) == (2, 0.25)


class TestPolicyClass:
    @pytest.mark.parametrize("num_arms", [2.5, math.nan, True, "2", None, 1, 0])
    def test_num_arms_must_be_an_integer_of_at_least_2(self, num_arms):
        with pytest.raises(ConfigError, match="num_arms|2 arms"):
            PolicyClass([lambda x: 0], num_arms=num_arms)

    def test_num_arms_accepts_numpy_integers(self):
        cls = PolicyClass([lambda x: 0], num_arms=np.int64(3))
        assert cls.num_arms == 3 and type(cls.num_arms) is int


class TestArmMatrix:
    def test_shape_and_entries(self):
        cls = two_arm_class()
        xs = [0.2, 0.5, 0.9]
        arms = cls.arms(xs)
        assert arms.shape == (4, 3)
        assert arms.tolist() == [[arm(cls, h, x) for x in xs] for h in range(4)]
        assert cls.arms([]).shape == (4, 0)

    def test_each_policy_runs_once_per_context(self):
        seen = []

        def policy(x):
            seen.append(x)
            return 0

        PolicyClass([policy, lambda x: 1], num_arms=2).arms([0.1, 0.3])
        assert seen == [0.1, 0.3]

    # an arm that is not a whole number is not truncated to the arm below it
    @pytest.mark.parametrize("arm", [-1, 2, 0.5, 1.9, math.nan])
    def test_range_checked(self, arm):
        cls = PolicyClass([lambda x: 0, lambda x: arm], num_arms=2)
        with pytest.raises(InputDomainError, match=f"arm {arm} outside"):
            cls.arms([0.4])

    def test_integer_and_bool_arms_pass(self):
        cls = PolicyClass([lambda x: np.int64(1), lambda x: x >= 0.5, lambda x: 1.0], num_arms=2)
        arms = cls.arms([0.2, 0.7])
        assert arms.dtype == np.intp and arms.tolist() == [[1, 1], [0, 1], [1, 1]]


class TestDrawBandit:
    def test_shapes_and_ranges(self):
        pool = np.array([0.1, 0.2, 0.3, 0.4])
        gamma = 0.25
        d = draw_bandit(len(pool), 3, 2, gamma, np.random.default_rng(0))
        assert len(d.indices) == len(d.signs) == len(d.zs) == 3
        assert len(set(d.indices.tolist())) == 3 and set(d.indices.tolist()) <= set(range(4))
        for eps, z in zip(d.signs, d.zs):
            assert set(np.unique(eps)) <= {-1, 1} and len(eps) == 2
            assert z in (0.0, 1.0 / gamma)

    def test_z_frequency(self):
        pool = np.array([0.5, 0.6])
        gamma, K = 0.1, 2
        rng = np.random.default_rng(1)
        n = 20_000
        hits = sum(draw_bandit(len(pool), 1, K, gamma, rng).zs[0] > 0 for _ in range(n))
        p = gamma * K
        assert abs(hits - p * n) <= 3 * math.sqrt(n * p * (1 - p))

    @pytest.mark.parametrize("K", [2, 3])
    def test_matches_slot_loops(self, K):
        pool = np.linspace(0.0, 1.0, 40)
        gamma = 0.3 / K
        for seed in range(12):
            for count in range(0, 38):
                r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
                d = draw_bandit(len(pool), count, K, gamma, r1)
                idx, signs, zs = slot_loop_draw(pool, count, K, gamma, r2)
                assert np.array_equal(d.indices, idx)
                assert np.array_equal(d.signs, signs) and d.signs.shape == (count, K)
                assert np.array_equal(d.zs, zs)
                assert r1.bit_generator.state == r2.bit_generator.state


class TestPhiValues:
    def test_all_zero_weights_give_erm_floor(self):
        cls = two_arm_class()
        gamma = 0.2
        est = [(0.3, np.zeros(2)), (0.7, np.zeros(2))]
        pool = np.empty(0)
        d = draw_bandit(len(pool), 0, 2, gamma, np.random.default_rng(0))
        phis = phi_values(cls.arms(pool), epoch_sums(cls, est), x_arms(cls, 0.4), d, cls, gamma)
        assert phis[0] == pytest.approx(0.0)
        # Phi_k places cost 1/gamma on arm k at x=0.4; some policy avoids it
        assert phis[1] == pytest.approx(0.0)
        assert phis[2] == pytest.approx(0.0)

    def test_singleton_difference_is_indicator(self):
        # one policy: Phi_k - Phi_0 = (1/gamma) 1{h(x)=k}
        gamma = 0.25
        cls = PolicyClass([lambda x: int(x >= 0.5)], num_arms=2)
        pool = np.empty(0)
        d = draw_bandit(len(pool), 0, 2, gamma, np.random.default_rng(0))
        phis = phi_values(cls.arms(pool), epoch_sums(cls, []), x_arms(cls, 0.8), d, cls, gamma)
        assert phis[1] - phis[0] == pytest.approx(0.0)
        assert phis[2] - phis[0] == pytest.approx(1.0 / gamma)

    def test_exactly_k_plus_one_calls(self):
        cls = two_arm_class()
        pool = np.array([0.1])
        d = draw_bandit(len(pool), 1, 2, 0.3, np.random.default_rng(2))
        sums = epoch_sums(cls, [(0.2, np.array([1.0, 2.0]))])
        before = cls.solve_calls
        phi_values(cls.arms(pool), sums, x_arms(cls, 0.6), d, cls, 0.3)
        assert cls.solve_calls - before == 3

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        gamma = 0.2
        cls = two_arm_class()
        for _ in range(20):
            est = [
                (float(rng.random()), rng.choice([0.0, 1.0 / gamma], size=2))
                for _ in range(4)
            ]
            pool = rng.random(3)
            d = draw_bandit(len(pool), 2, 2, gamma, rng)
            x_j = float(rng.random())
            phis = phi_values(cls.arms(pool), epoch_sums(cls, est), x_arms(cls, x_j), d, cls, gamma)

            def brute(extra_w):
                best = math.inf
                for h in range(len(cls.policies)):
                    obj = sum(float(w[arm(cls, h, x)]) for x, w in est)
                    obj += sum(
                        2.0 * z * float(eps[arm(cls, h, x)])
                        for x, eps, z in zip(pool[d.indices], d.signs, d.zs)
                    )
                    obj += float(extra_w[arm(cls, h, x_j)])
                    best = min(best, obj)
                return best

            assert phis[0] == pytest.approx(brute(np.zeros(2)))
            for k in range(2):
                e = np.zeros(2)
                e[k] = 1.0 / gamma
                assert phis[k + 1] == pytest.approx(brute(e))

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_equals_per_round_calls(self, K):
        # large draws, so many Z != 0 slots add into each policy's sum
        rng = np.random.default_rng(K)
        mine, theirs = mixed_table(K), mixed_table(K)
        for _ in range(200):
            gamma = float(rng.uniform(0.05, 1.0)) / K
            pool = rng.random(int(rng.integers(1, 150)))
            pool_arms = mine.arms(pool)
            sums = (rng.random((int(rng.integers(0, 40)), len(mine))) < 0.3).sum(axis=0) / gamma
            d = draw_bandit(len(pool), int(rng.integers(0, len(pool) + 1)), K, gamma, rng)
            xa = x_arms(mine, float(rng.random()))
            got = phi_values(pool_arms, sums, xa, d, mine, gamma)
            assert np.array_equal(got, per_round_phi_values(pool_arms, sums, xa, d, theirs, gamma))
        assert mine.solve_calls == theirs.solve_calls == 200 * (K + 1)

    features = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 1.0])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_enumeration_exactly(self, data):
        K = data.draw(st.integers(2, 4), label="K")
        # policies from a small menu, so duplicates and ties occur
        menu = st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.9]), st.integers(0, K - 1), st.integers(0, K - 1))
        specs = data.draw(st.lists(menu, min_size=1, max_size=8), label="policies")
        cls = PolicyClass(
            [(lambda a, lo, hi: (lambda x: hi if x >= a else lo))(*spec) for spec in specs], num_arms=K
        )
        gamma = data.draw(st.floats(0.02, 1.0 / K), label="gamma")
        weight = st.one_of(st.just(0.0), st.just(1.0 / gamma), st.floats(0.0, 20.0))
        est = data.draw(
            st.lists(st.tuples(self.features, st.lists(weight, min_size=K, max_size=K)), max_size=12),
            label="estimated history",
        )
        pool = np.array(data.draw(st.lists(self.features, max_size=12), label="pool"))
        count = data.draw(st.integers(0, len(pool)), label="count")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        x_j = data.draw(self.features, label="x_j")
        d = draw_bandit(len(pool), count, K, gamma, np.random.default_rng(seed))

        phis = phi_values(cls.arms(pool), epoch_sums(cls, est), x_arms(cls, x_j), d, cls, gamma)
        assert np.array_equal(phis, enumerate_phi_values(est, pool, x_j, d, cls, gamma))
        assert policy_erm(cls, arm_costs(cls, est)) == enumerate_policy_erm(cls, est)


class TestPlayArm:
    def test_matches_choice_and_its_rng_use(self):
        rng = np.random.default_rng(11)
        for i in range(2000):
            # K = 9 sums q pairwise in numpy
            K = 9 if i % 4 == 0 else int(rng.integers(2, 6))
            gamma = float(rng.uniform(0.01, 1.0 / K))
            # negative b's put their arms at the gamma floor
            q = mix_q(waterfill_q(rng.uniform(-1.0, 1.0, size=K).tolist())[0], gamma, K)
            if i % 5 == 0:
                q = [1.0 / K] * K
            mine = np.random.default_rng([7, i])
            theirs = np.random.default_rng([7, i])
            p = np.array(q)
            assert play_arm(q, mine) == int(theirs.choice(K, p=p / p.sum()))
            assert mine.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize(
        "q, u", [([0.5, 0.5], 0.5), ([0.25, 0.25, 0.5], 0.25), ([0.25, 0.25, 0.5], 0.5), ([0.5, 0.5], 0.0)]
    )
    def test_uniform_on_a_cdf_step(self, q, u):
        # a uniform equal to a cdf value takes the arm to its right, as choice does
        mine, theirs = generator_with_next_random(u), generator_with_next_random(u)
        assert generator_with_next_random(u).random() == u
        p = np.array(q)
        assert play_arm(q, mine) == int(theirs.choice(len(q), p=p / p.sum()))


def k_vectors(rng, K):
    """Vectors of K floats of mixed signs and magnitudes, some with ties and zeros."""
    v = rng.uniform(-1.0, 2.0, size=K) * 10.0 ** rng.integers(-6, 3, size=K)
    v[rng.random(K) < 0.2] = 0.0
    if rng.random() < 0.2:
        v[:] = v[0]
    return v


class TestNumpyReferences:
    """The Python-float K-arm step against the numpy bodies it replaced, bit for bit."""

    KS = [2, 3, 4, 5, 7, 8, 9, 16, 17, 130]

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 300])
    def test_vector_sum(self, n):
        rng = np.random.default_rng(n)
        for _ in range(200):
            v = k_vectors(rng, n) if n else np.empty(0)
            assert repr(vector_sum(v.tolist())) == repr(float(v.sum()))
        assert repr(vector_sum([-0.0] * n)) == repr(float((-np.zeros(n)).sum()))

    @pytest.mark.parametrize("K", KS)
    def test_waterfill_mix_play_and_estimate(self, K):
        rng = np.random.default_rng(K)
        for i in range(300):
            b = k_vectors(rng, K)
            q_hat, g = waterfill_q(b.tolist())
            want_q_hat, want_g = numpy_waterfill_q(b)
            assert q_hat == want_q_hat.tolist() and g == want_g
            gamma = float(rng.uniform(0.001, 1.0 / K))
            q = mix_q(q_hat, gamma, K)
            want_q = numpy_mix_q(want_q_hat, gamma, K)
            assert q == want_q.tolist()
            mine, theirs = np.random.default_rng([K, i]), np.random.default_rng([K, i])
            arm = play_arm(q, mine)
            assert arm == numpy_play_arm(want_q, theirs)
            observed = float(rng.choice([0.0, 1.0, rng.random()]))
            chat = estimate_cost(arm, observed, q, gamma, mine)
            want_chat = numpy_estimate_cost(arm, observed, want_q, gamma, theirs)
            assert [chat if k == arm else 0.0 for k in range(K)] == want_chat.tolist()
            assert mine.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("K", [2, 3, 9])
    def test_nan_in_any_position(self, K):
        for k in range(K):
            b = [0.5] * K
            b[k] = math.nan
            q, _ = waterfill_q(b)
            assert np.array_equal(q, numpy_waterfill_q(np.array(b))[0], equal_nan=True)
            assert all(math.isnan(v) for v in mix_q(q, 0.5 / K, K))
            q = [1.0 / K] * K
            q[k] = math.nan
            with pytest.raises(AssertionError, match="mixing floor"):
                estimate_cost(k, 0.5, q, 0.5 / K, np.random.default_rng(0))


class TestWaterfill:
    def test_interior_example(self):
        q, g = waterfill_q([0.3, 0.2])
        assert q == pytest.approx([0.55, 0.45])
        assert g == pytest.approx(0.5)

    def test_saturated_example(self):
        q, g = waterfill_q([1.5, 0.5])
        assert q == pytest.approx([0.75, 0.25])
        assert g == pytest.approx(0.0)

    def test_all_nonpositive(self):
        q, g = waterfill_q([0.0, -0.4])
        assert q == pytest.approx([0.5, 0.5])
        assert g == pytest.approx(1.0)

    def test_matches_grid_search(self):
        def g_of(q, b):
            return float(np.sum(np.maximum(0.0, q - np.maximum(b, 0.0))))

        rng = np.random.default_rng(4)
        grid = np.arange(0.0, 1.0 + 1e-12, 0.001)
        for _ in range(50):
            b = rng.uniform(-1, 2, size=2)
            q, g = waterfill_q(b.tolist())
            q = np.array(q)
            assert np.all(q >= -1e-12) and q.sum() == pytest.approx(1.0)
            assert g == pytest.approx(g_of(q, b), abs=1e-12)
            best = min(g_of(np.array([a, 1 - a]), b) for a in grid)
            assert g <= best + 1e-9

    def test_constant_shift_changes_nothing_in_argmin_structure(self):
        # adding a constant to all Phi values leaves b and hence q unchanged
        phis = np.array([1.0, 2.5, 1.4])
        gamma = 0.2
        b1 = gamma * (phis[1:] - phis[0])
        b2 = gamma * ((phis[1:] + 7.0) - (phis[0] + 7.0))
        q1, _ = waterfill_q(b1.tolist())
        q2, _ = waterfill_q(b2.tolist())
        assert q1 == pytest.approx(q2)


class TestMixAndEstimate:
    def test_mix_examples(self):
        q = mix_q([1.0, 0.0], 0.1, 2)
        assert q == pytest.approx([0.9, 0.1])
        assert min(mix_q([0.0, 1.0], 0.25, 2)) >= 0.25 - 1e-12
        with pytest.raises(ConfigError):
            mix_q([0.5, 0.5], 0.6, 2)

    def test_zero_cost_gives_zero_estimate(self):
        rng = np.random.default_rng(0)
        assert estimate_cost(0, 0.0, [0.5, 0.5], 0.1, rng) == 0.0

    def test_floor_assertion(self):
        with pytest.raises(AssertionError):
            estimate_cost(0, 0.5, [0.05, 0.95], 0.1, np.random.default_rng(0))

    def test_unbiasedness(self):
        rng = np.random.default_rng(5)
        q = [0.3, 0.7]
        gamma, arm, c = 0.1, 0, 0.6
        n = 100_000
        total = 0.0
        for _ in range(n):
            total += estimate_cost(arm, c, q, gamma, rng)
        # E chat[arm] = c / q[arm]; one sample has variance p(1-p)/gamma^2
        p = gamma * c / q[arm]
        mean, target = total / n, c / q[arm]
        sigma = math.sqrt(p * (1 - p)) / gamma / math.sqrt(n)
        assert abs(mean - target) <= 3 * sigma


class TestRunBandit:
    def _costs(self, t, x, history):
        return np.array([0.1, 0.9])

    def test_floor_holds_every_round(self):
        cls = two_arm_class()
        env = FeatureDistribution.uniform()
        trace = run_bandit(cls, env, self._costs, 64, BanditConfig(seed=0))
        gamma = trace.metadata["gamma"]
        assert all(qm >= gamma - 1e-12 for qm in trace.column("q_min"))

    def test_learns_constant_gap(self):
        cls = two_arm_class()
        env = FeatureDistribution.uniform()
        trace = run_bandit(cls, env, self._costs, 400, BanditConfig(seed=1))
        # uniform play would accumulate (0.5 - 0.1) * 400 = 160 regret
        assert trace.final_regret < 0.95 * 160

    def test_determinism_and_trace_shape(self):
        cls = two_arm_class()
        env = FeatureDistribution.uniform()
        a = run_bandit(cls, env, self._costs, 50, BanditConfig(seed=2))
        b = run_bandit(cls, env, self._costs, 50, BanditConfig(seed=2))
        assert a.rows == b.rows
        assert len(a.rows) == 50

    def test_cost_validation(self):
        cls = two_arm_class()
        env = FeatureDistribution.uniform()
        with pytest.raises(InputDomainError):
            run_bandit(cls, env, lambda t, x, h: np.array([0.1, 1.4]), 5, BanditConfig())
        with pytest.raises(InputDomainError):
            run_bandit(cls, env, lambda t, x, h: np.array([0.1, math.nan]), 5, BanditConfig())
        with pytest.raises(ConfigError):
            run_bandit(cls, env, self._costs, 0, BanditConfig())
        with pytest.raises(ConfigError):
            BanditConfig(gamma=math.nan)

    @pytest.mark.parametrize("K", [2, 3, 9])
    def test_nan_fails_each_check_in_any_position(self, K, monkeypatch):
        cls, env = mixed_table(K), FeatureDistribution.uniform()
        for k in range(K):
            def nan_at_k(t, x, history):
                c = np.full(K, 0.5)
                c[k] = math.nan
                return c

            with pytest.raises(InputDomainError, match="cost vector"):
                run_bandit(cls, env, nan_at_k, 5, BanditConfig(seed=1))
            with monkeypatch.context() as m:
                # a probability vector with one NaN entry, as the mixing step would hand on
                m.setattr(bandit, "mix_q", lambda q_hat, gamma, K: [math.nan if i == k else 1.0 / K for i in range(K)])
                with pytest.raises(AssertionError, match="mixing floor"):
                    run_bandit(cls, env, feature_costs(K), 5, BanditConfig(seed=1))

    @pytest.mark.parametrize("T", [2.5, True, 0, -1, "8", None])
    def test_T_must_be_a_positive_integer(self, T):
        with pytest.raises(ConfigError, match="T must be a positive integer"):
            run_bandit(two_arm_class(), FeatureDistribution.uniform(), self._costs, T, BanditConfig())

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, True, False, 0.0, -0.1, "0.1"])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ConfigError, match="gamma"):
            BanditConfig(gamma=gamma)

    def test_gamma_above_inverse_k_is_clamped(self):
        env = FeatureDistribution.uniform()
        for gamma, played in [(0.9, 0.5), (np.float64(0.75), 0.5), (1, 0.5), (0.25, 0.25)]:
            trace = run_bandit(two_arm_class(), env, self._costs, 20, BanditConfig(gamma=gamma))
            assert trace.metadata["gamma"] == played
        assert run_bandit(mixed_table(3), env, feature_costs(3), 20, BanditConfig(gamma=0.5)).metadata["gamma"] == 1 / 3

    def test_each_round_calls_the_module_draw_and_phi_values_once(self, monkeypatch):
        # the benchmark's tracer wraps both by name and reads each draw's zs
        draws, phi_calls = [], []
        draw_bandit, phi_values = bandit.draw_bandit, bandit.phi_values

        def counted_draw(*args, **kwargs):
            draws.append(draw_bandit(*args, **kwargs))
            return draws[-1]

        def counted_phi_values(*args, **kwargs):
            phi_calls.append(args[3])
            return phi_values(*args, **kwargs)

        monkeypatch.setattr(bandit, "draw_bandit", counted_draw)
        monkeypatch.setattr(bandit, "phi_values", counted_phi_values)
        T = 150
        run_bandit(mixed_table(3), FeatureDistribution.uniform(), feature_costs(3), T, BanditConfig(seed=5))
        assert len(draws) == len(phi_calls) == T
        assert all(draw is seen for draw, seen in zip(draws, phi_calls))
        assert all(isinstance(d.zs, np.ndarray) and d.zs.shape == d.indices.shape for d in draws)
        assert sum(d.zs.size for d in draws) > 0 and any(np.any(d.zs) for d in draws)

    def test_halluc_shortfall(self, tmp_path):
        sched = bandit_epoch_schedule()
        T = 40
        expected = 0
        for t in range(1, T + 1):
            idx = locate(sched, t)
            # the pool holds every context of the epochs before
            expected += idx.start < epoch_length(sched, idx.n) - idx.j
        trace = run_bandit(two_arm_class(), FeatureDistribution.uniform(), self._costs, T, BanditConfig(seed=0))
        # only round 2 falls short: epoch 2 wants 2 hallucinations from a pool of 1
        assert trace.metadata["halluc_shortfall"] == expected == 1
        trace.to_csv(tmp_path / "t.csv")
        assert "shortfall" not in (tmp_path / "t.csv").read_text()

    @pytest.mark.parametrize("K", [2, 3, 4, 9])
    @pytest.mark.parametrize("gamma", [None, "fixed"])
    # 85 and 144 end epochs 8 and 10; 100 and 150 end mid-epoch
    @pytest.mark.parametrize("T", [1, 2, 85, 100, 144, 150])
    def test_equals_per_round_reference(self, K, gamma, T):
        env = FeatureDistribution.uniform()
        for seed in range(3):
            config = BanditConfig(gamma=None if gamma is None else 0.6 / K, seed=seed)
            mine, theirs = mixed_table(K), mixed_table(K)
            got = run_bandit(mine, env, feature_costs(K), T, config)
            want = per_round_bandit_reference(theirs, env, feature_costs(K), T, config)
            assert got.rows == want.rows
            assert got.metadata == want.metadata
            assert mine.solve_calls == theirs.solve_calls == (K + 1) * T

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_per_round_reference_property(self, data):
        K = data.draw(st.sampled_from([2, 3, 4, 5, 8, 9]), label="K")
        # policies from a small menu, so duplicates and ties occur
        menu = st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.9]), st.integers(0, K - 1), st.integers(0, K - 1))
        specs = data.draw(st.lists(menu, min_size=2, max_size=10), label="policies")  # gamma_default needs |H| >= 2

        def table():
            return PolicyClass([(lambda a, lo, hi: (lambda x: hi if x >= a else lo))(*spec) for spec in specs], K)

        gamma = data.draw(st.one_of(st.none(), st.floats(1e-3, 1.5 / K)), label="gamma")
        T = data.draw(st.integers(1, 120), label="T")
        config = BanditConfig(gamma=gamma, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
        menu_costs = data.draw(
            st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 0.3]), min_size=K, max_size=K), min_size=1, max_size=5),
            label="cost vectors",
        )

        def costs(t, x, history):
            return np.array(menu_costs[(t + int(x >= 0.5)) % len(menu_costs)])

        env = FeatureDistribution.uniform()
        mine, theirs = table(), table()
        got = run_bandit(mine, env, costs, T, config)
        want = per_round_bandit_reference(theirs, env, costs, T, config)
        assert got.rows == want.rows
        assert got.metadata == want.metadata
        assert mine.solve_calls == theirs.solve_calls == (K + 1) * T

    def test_reference_horizons_end_on_and_inside_epochs(self):
        sched = bandit_epoch_schedule()
        assert [locate(sched, t).j for t in (85, 86, 144, 145)] == [23, 1, 32, 1]
        assert locate(sched, 100).j not in (1, epoch_length(sched, locate(sched, 100).n))

    @pytest.mark.parametrize("features", ["scalar", "vector"])
    def test_cost_adversary_reads_read_only_views_of_the_game(self, features):
        # round t's history holds the t-1 contexts, arms and cost vectors played, and no write goes through
        uniform = FeatureDistribution.uniform()
        if features == "scalar":
            cls, env = two_arm_class(), uniform
        else:
            cls = PolicyClass([lambda x: 0, lambda x: 1, lambda x: int(x[0] >= 0.5), lambda x: int(x[1] < 0.5)], 2)
            env = FeatureDistribution.product([uniform, uniform])
        contexts, seen, played = [], [], []

        def costs(t, x, history):
            if np.ndim(x):
                assert not x.flags.writeable
            contexts.append(np.copy(x))
            seen.append(tuple(view.copy() for view in history))
            for view in history:
                with pytest.raises(ValueError, match="read-only"):
                    view[...] = 0
            played.append(np.array([(t % 3) / 2, 1.0 - (t % 2)]))
            return played[-1]

        T = 30
        trace = run_bandit(cls, env, costs, T, BanditConfig(seed=4))
        for t, (xs, arms, cost_vectors) in enumerate(seen, 1):
            assert xs.dtype == cost_vectors.dtype == np.float64 and arms.dtype == np.intp
            assert np.array_equal(xs, np.array(contexts[: t - 1]).reshape(t - 1, *np.shape(contexts[0])))
            assert arms.tolist() == trace.column("arm")[: t - 1]
            assert np.array_equal(cost_vectors, np.array(played[: t - 1]).reshape(t - 1, 2))

    @pytest.mark.parametrize(
        "later,match",
        [(np.array([0.5, 0.5]), "all scalars or all vectors"), (float("nan"), "finite"), (float("inf"), "finite")],
        ids=["shape", "nan", "inf"],
    )
    def test_bad_contexts_raise_before_round_1(self, later, match):
        # every context is sampled and checked before the cost adversary or any policy runs
        class GoodThenBad:
            drawn = 0

            def sample(self, rng):
                self.drawn += 1
                return 0.5 if self.drawn == 1 else later  # epoch 1 is round 1 alone

        env, seen = GoodThenBad(), []
        cls = PolicyClass([lambda x: seen.append(x) or 0, lambda x: 1], num_arms=2)
        with pytest.raises(InputDomainError, match=match):
            run_bandit(cls, env, lambda t, x, history: seen.append(t) or self._costs(t, x, history), 4, BanditConfig())
        assert env.drawn == 4 and seen == []

    def test_bad_arm_raises_before_round_1(self):
        # the first policy's 8th call is on round 8's context, in epoch 3 (rounds 5..9)
        calls, seen = [], []

        def policy(x):
            calls.append(x)
            return 5 if len(calls) == 8 else 0

        def costs(t, x, history):
            seen.append(t)
            return np.array([0.1, 0.9])

        cls = PolicyClass([policy, lambda x: 1], num_arms=2)
        with pytest.raises(InputDomainError, match="arm 5 outside"):
            run_bandit(cls, FeatureDistribution.uniform(), costs, 20, BanditConfig(seed=0))
        assert seen == []

    def test_epoch_schedule(self):
        sched = bandit_epoch_schedule()
        from relaxplay import epoch_length

        assert [epoch_length(sched, n) for n in (1, 2, 3)] == [1, 3, 5]

    def test_policy_class_validation(self):
        with pytest.raises(ConfigError):
            PolicyClass([], 2)
        with pytest.raises(ConfigError):
            PolicyClass([lambda x: 0], 1)
        bad = PolicyClass([lambda x: 5], 2)
        with pytest.raises(InputDomainError):
            bad.arms([0.5])
