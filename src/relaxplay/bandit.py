"""Contextual K-arm bandit with hallucinated contexts: relaxation with Z
variables, a closed-form water-filling inner minimax, exploration mixing,
and inverse-propensity cost estimation, wrapped in n^{3/2} epochs.

Arms are 0-based internally. The inner minimax over the adversary's
estimated-cost distributions reduces, for fixed q, to putting mass gamma on
every profitable 1/gamma atom; minimizing the resulting piecewise-linear
g(q) over the simplex has the water-filling closed form below, which the
test suite checks against simplex grid search.

Every policy runs once on each context, filling one (|H|, T) arm matrix
before round 1; a hallucinated context is a column index into it. Each
policy's estimated cost over the epoch so far is kept as a running sum, so a
policy ERM only gathers the costs of its items from a cost matrix by arm and
adds them, in item order, to those sums. A round's K+1 ERMs differ only in
the current context's cost, so they share one gather and one such sum.

The rest of a round's K-arm step (the K+1 minima, water-filling, mixing,
the arm draw and the cost estimate) works on lists of Python floats, since
numpy's per-call cost outweighs the arithmetic on K floats; each operation
rounds as its numpy form did, sums over K terms included (`vector_sum`).
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ConfigError,
    Feature,
    InputDomainError,
    check_count,
    check_seed,
    feature_list,
    feature_rows,
    lowest_argmin,
)
from .epochs import EpochClock, EpochSchedule, game_features, game_streams
from .predictor import PoolExhaustedError, draw_slots
from .traces import BANDIT_COLUMNS, RegretTrace, running_total


class PolicyClass:
    """A finite table of policies mapping features to arms in {0..K-1}."""

    def __init__(self, policies: Sequence[Callable[[Feature], int]], num_arms: int):
        if not policies:
            raise ConfigError("policy table must be nonempty")
        self.num_arms = check_count(num_arms, "num_arms")
        if self.num_arms < 2:
            raise ConfigError("need at least 2 arms")
        self.policies = list(policies)
        self.solve_calls = 0

    def __len__(self) -> int:
        return len(self.policies)

    def arms(self, xs) -> np.ndarray:
        """The (|H|, n) arm matrix of the features `xs`: entry [h, i] is h(x_i).

        Each policy runs once per feature; that every arm is a whole number
        with 0 <= arm < K is checked once for the whole matrix.
        """
        feats = feature_list(feature_rows(xs))
        arms = np.array(
            [[policy(x) for x in feats] for policy in self.policies], dtype=float
        ).reshape(len(self.policies), len(feats))
        # written so that NaN fails too
        ok = (arms >= 0) & (arms < self.num_arms) & (arms == np.floor(arms))
        if not ok.all():
            bad = arms[~ok][0]
            raise InputDomainError(f"policy emitted arm {bad:g} outside the whole numbers in [0,{self.num_arms})")
        return arms.astype(np.intp)

    def clone(self) -> "PolicyClass":
        other = PolicyClass(self.policies, self.num_arms)
        return other


def gamma_default(class_size: int, K: int, M: int) -> float:
    """Exploration rate (ln|H|/(K*M))^{1/3}, clipped into (0, 1/K]."""
    if class_size < 2 or K < 2 or M < 1:
        raise ConfigError("need |H| >= 2, K >= 2, M >= 1")
    raw = (math.log(class_size) / (K * M)) ** (1.0 / 3.0)
    return float(min(raw, 1.0 / K))


@dataclass(frozen=True, eq=False)
class ArmCosts:
    """Items of a policy ERM as arrays: `arms[h, i]` is policy h's arm at
    item i and `weights[i]` is item i's cost vector, shape (n, K). The
    arrays are used as given, not copied or checked; `PolicyClass.arms`
    builds a checked arm matrix.
    """

    arms: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.weights)


def policy_erm(policy_class: PolicyClass, items: ArmCosts, base: Optional[np.ndarray] = None) -> tuple[int, float]:
    """inf_h base[h] + sum_i w_i[h(x_i)] over the table; lowest index wins ties.

    `items` holds each policy's arms at the items and the items' cost
    vectors; `base` (default 0) is each policy's cost from items summed
    earlier. Each policy's terms add one at a time in item order, after its base.
    """
    policy_class.solve_calls += 1
    objs = np.zeros(len(policy_class)) if base is None else base
    if len(items):
        terms = items.weights[np.arange(len(items)), items.arms]
        terms[:, 0] += objs
        # cumsum adds left to right, as a running sum does; np.sum would pair terms
        objs = np.cumsum(terms, axis=1)[:, -1]
    best = lowest_argmin(objs.tolist())
    return best, float(objs[best])


@dataclass(frozen=True, eq=False)
class BanditDraw:
    """Hallucinated contexts as distinct pool slots `indices`, one sign vector
    in {-1,+1}^K per slot (rows of `signs`), and Z in {0, 1/gamma} per slot
    with Pr[Z = 1/gamma] = gamma*K."""

    indices: np.ndarray
    signs: np.ndarray
    zs: np.ndarray


def draw_bandit(
    pool_size: int, count: int, K: int, gamma: float, rng: np.random.Generator
) -> BanditDraw:
    """`count` distinct slots of a pool of `pool_size` contexts, with their
    signs and Z's.

    `rng` gives the slots and their sign rows as `draw_slots` draws them,
    then one uniform per slot for its Z.
    """
    if count > pool_size:
        raise PoolExhaustedError(f"requested {count} hallucinations from a pool of {pool_size}")
    idx, signs = draw_slots(pool_size, count, rng, (K,))
    zs = np.where(rng.random(count) < gamma * K, 1.0 / gamma, 0.0)
    return BanditDraw(idx, signs, zs)


def phi_values(
    pool_arms: np.ndarray,
    sums: np.ndarray,
    x_arms: Sequence[int],
    draw: BanditDraw,
    policy_class: PolicyClass,
    gamma: float,
) -> list:
    """Phi_0..Phi_K: the K+1 policy ERMs of a round, from one gather-cumsum.

    `pool_arms` is the arm matrix of the pool's contexts, so the draw's
    `indices` pick its columns; `sums[h]` is policy h's estimated cost over
    the epoch so far. Phi_0 places zero estimated cost at the current
    context, whose arms are `x_arms`; Phi_k places (1/gamma) e_k there.
    Hallucinated slots with Z_i != 0 enter with weights 2*Z_i*eps_i (the
    others cannot move any objective).

    The K+1 objectives share everything but the current context's term, so
    each policy's partial sum is formed once, adding `sums` and then the
    slot terms left to right as `policy_erm` does, and the current term goes
    last in every objective. The calls count as K+1 policy ERMs. The minima
    are taken over Python floats, `lowest_argmin`'s ties included.
    """
    K = policy_class.num_arms
    policy_class.solve_calls += K + 1
    (used,) = draw.zs.nonzero()
    partial = sums
    if used.size:
        # terms[h, i] = 2 Z eps[a] of slot used[i] at policy h's arm a there; `take` reads `signs` flat
        flat = pool_arms.take(draw.indices.take(used), axis=1) + used * K
        terms = draw.signs.take(flat) * (2.0 * draw.zs.take(used))
        terms[:, 0] += sums
        # cumsum (add.accumulate) adds left to right whatever the layout; np.sum pairs terms along a row
        partial = np.add.accumulate(terms, axis=1)[:, -1]
    partial, bump = partial.tolist(), 1.0 / gamma
    # Phi_{k+1} adds 1/gamma to each policy that plays arm k here and 0.0 to the rest; no arm is -1, so k = -1 is Phi_0
    objs = [[p + (bump if a == k else 0.0) for p, a in zip(partial, x_arms)] for k in range(-1, K)]
    return [obj[lowest_argmin(obj)] for obj in objs]


def vector_sum(values: Sequence[float]) -> float:
    """`np.sum` of the float64 vector `values`, bit for bit: numpy adds left
    to right below 8 terms and pairwise from 8 terms on."""
    if len(values) >= 8:
        return float(np.sum(values))
    total = 0.0
    for v in values:
        total += v
    return total


def waterfill_q(b: Sequence[float]) -> tuple[list, float]:
    """Minimize g(q) = sum_k max(0, q_k - max(b_k, 0)) over the simplex.

    With s = sum_k max(b_k, 0): if s >= 1 the mass fits under the caps
    (q_k = b_k^+/s, g = 0); otherwise the shortfall 1-s spreads evenly
    (q_k = b_k^+ + (1-s)/K, g = 1-s). A NaN b_k makes every q_k NaN.
    """
    bp = [max(v, 0.0) for v in b]  # keeps a NaN, as np.maximum does
    s = vector_sum(bp)
    if s >= 1.0:
        return [v / s for v in bp], 0.0
    fill = (1.0 - s) / len(bp)
    return [v + fill for v in bp], 1.0 - s


def mix_q(q_hat: Sequence[float], gamma: float, K: int) -> list:
    """q = (1 - gamma*K) q_hat + gamma*1; keeps every arm probability >= gamma."""
    if gamma * K > 1.0 + 1e-12:
        raise ConfigError("need gamma*K <= 1")
    scale = 1.0 - gamma * K
    return [scale * v + gamma for v in q_hat]


def play_arm(q: Sequence[float], rng: np.random.Generator) -> int:
    """The arm `rng.choice(len(q), p=q / q.sum())` draws, and the same use of
    `rng`: one uniform located in the normalized cdf of p.

    `choice` also validates p on every call; the caller checks that q is
    finite and nonnegative instead.
    """
    total = vector_sum(q)
    cdf = list(itertools.accumulate([v / total for v in q]))
    last = cdf[-1]
    return bisect.bisect_right([c / last for c in cdf], rng.random())


def estimate_cost(arm: int, observed: float, q: Sequence[float], gamma: float, rng: np.random.Generator) -> float:
    """The played arm's entry of the unbiased estimate (1/gamma) I e_arm with
    I ~ Bernoulli(gamma*c/q[arm]); every other entry is 0."""
    if not q[arm] >= gamma - 1e-12:  # written so that NaN fails too
        raise AssertionError("mixing floor violated: q[arm] < gamma")
    p = gamma * observed / q[arm]
    return 1.0 / gamma if rng.random() < p else 0.0


@dataclass
class BanditConfig:
    gamma: Optional[float] = None  # None -> gamma_default with M = T
    seed: int = 0

    def __post_init__(self):
        # a finite gamma above 1/K is clamped to 1/K when the game starts (metadata["gamma"])
        gamma = self.gamma
        if gamma is not None and (
            isinstance(gamma, bool) or not isinstance(gamma, numbers.Real) or not 0 < gamma < math.inf
        ):
            raise ConfigError(f"gamma must be a positive finite number, got {gamma!r}")
        check_seed(self.seed)


def bandit_epoch_schedule() -> EpochSchedule:
    """Epoch lengths round(n^{3/2})."""
    return EpochSchedule(kind="polynomial", alpha=1.5)


def run_bandit(
    policy_class: PolicyClass,
    env,
    cost_adversary: Callable[[int, Feature, tuple], np.ndarray],
    T: int,
    config: BanditConfig,
) -> RegretTrace:
    """Play T bandit rounds; estimated-cost prefixes restart every epoch.

    `cost_adversary(t, x_t, history)` returns the round-t cost vector in [0,1]^K,
    reading x_t and history = (xs, arms, costs) of rounds 1..t-1 as read-only
    views of the game's arrays. The trace logs the expected loss <q_t, c_t>,
    the realized cost, and cumulative regret against the best fixed policy in hindsight.

    Every context is sampled before round 1 (`game_features`), and every
    policy runs on all of them in one `PolicyClass.arms` call, whose arms the
    pools and the comparator reuse. So contexts of mixed shapes or with a
    non-finite entry, and an arm outside [0, K), raise `InputDomainError`
    before any round is played.

    The game's streams (`game_streams`) are consumed in round order: stream
    1 samples the contexts, stream 2 draws each round's hallucinations and
    stream 5 plays its arm and then estimates its cost.
    """
    T = check_count(T, "T")
    K = policy_class.num_arms
    gamma = config.gamma if config.gamma is not None else gamma_default(len(policy_class), K, T)
    if gamma * K > 1.0:
        gamma = 1.0 / K
    floor = gamma - 1e-12
    clock = EpochClock(bandit_epoch_schedule())
    features, draws, plays = game_streams(config.seed, 1, 2, 5)

    xs = game_features(env, features, T)
    arm_matrix = policy_class.arms(xs)
    arm_rows = arm_matrix.T.tolist()  # each round's arms, one per policy
    costs = np.empty((T, K))
    arms = np.empty(T, dtype=np.intp)
    qs, epochs = [], []
    seen_arms, seen_costs = arms.view(), costs.view()  # read-only, for the cost adversary
    seen_arms.flags.writeable = seen_costs.flags.writeable = False

    for t in range(1, T + 1):
        if clock.tick():
            # the pool is every context before the epoch; estimated costs are scoped per epoch
            pool_arms = arm_matrix[:, : clock.start]
            sums = np.zeros(len(policy_class))

        draw = draw_bandit(clock.start, clock.count, K, gamma, draws)
        phis = phi_values(pool_arms, sums, arm_rows[t - 1], draw, policy_class, gamma)
        phi0 = phis[0]
        q_hat, _ = waterfill_q([gamma * (phi - phi0) for phi in phis[1:]])
        q = mix_q(q_hat, gamma, K)
        # the validation `choice` made of p: finite, and at the mixing floor or above (NaN fails)
        if not all(floor <= v < math.inf for v in q):
            raise AssertionError(f"mixing floor violated: q={q} at t={t}")

        arm = play_arm(q, plays)
        history = xs[: t - 1], seen_arms[: t - 1], seen_costs[: t - 1]
        c_t = np.asarray(cost_adversary(t, xs[t - 1], history), dtype=float)
        c = c_t.tolist()
        # written so that NaN fails too
        if c_t.shape != (K,) or not all(0.0 <= v <= 1.0 for v in c):
            raise InputDomainError(f"cost vector out of [0,1]^K at t={t}")
        chat = estimate_cost(arm, c[arm], q, gamma, plays)
        if chat:
            # the policies that play `arm` here; the others would add 0.0, which leaves a sum as it is
            sums[arm_matrix[:, t - 1] == arm] += chat

        costs[t - 1] = c_t
        arms[t - 1] = arm
        qs.append(q)
        epochs.append(clock.n)

    qs = np.array(qs)
    # one vector-vector matmul per round, as `q @ c_t` is
    expected = np.matmul(qs[:, None, :], costs[:, :, None])[:, 0, 0]
    comp_class = policy_class.clone()
    h_star, _ = policy_erm(comp_class, ArmCosts(arm_matrix, costs))
    rounds = np.arange(T)
    cum_regret = running_total(expected) - running_total(costs[rounds, arm_matrix[h_star]])
    trace = RegretTrace(
        columns=BANDIT_COLUMNS,
        rows=list(
            zip(
                range(1, T + 1), epochs, arms.tolist(), qs.min(axis=1).tolist(),
                expected.tolist(), costs[rounds, arms].tolist(), cum_regret.tolist(),
            )
        ),
    )
    trace.metadata.update(
        seed=config.seed, T=T, gamma=gamma, K=K, comparator=h_star, halluc_shortfall=clock.shortfall,
    )
    return trace
