"""Contextual K-arm bandit with hallucinated contexts: relaxation with Z
variables, a closed-form water-filling inner minimax, exploration mixing,
and inverse-propensity cost estimation, wrapped in n^{3/2} epochs.

Arms are 0-based internally. The inner minimax over the adversary's
estimated-cost distributions reduces, for fixed q, to putting mass gamma on
every profitable 1/gamma atom; minimizing the resulting piecewise-linear
g(q) over the simplex has the water-filling closed form below, which the
test suite checks against simplex grid search.

Every policy runs once on each context, filling one (|H|, T) arm matrix;
a hallucinated context is a column index into it. Each policy's estimated
cost over the epoch so far is kept as a running sum, so a policy ERM only
gathers the costs of its items from a cost matrix by arm and adds them, in
item order, to those sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import ConfigError, Feature, InputDomainError, feature_list, feature_rows, lowest_argmin
from .environment import sample_feature
from .epochs import EpochSchedule, RoundStreams, check_seed, epoch_length
from .predictor import PoolExhaustedError
from .traces import BANDIT_COLUMNS, RegretTrace


class PolicyClass:
    """A finite table of policies mapping features to arms in {0..K-1}."""

    def __init__(self, policies: Sequence[Callable[[Feature], int]], num_arms: int):
        if not policies:
            raise ConfigError("policy table must be nonempty")
        if num_arms < 2:
            raise ConfigError("need at least 2 arms")
        self.policies = list(policies)
        self.num_arms = int(num_arms)
        self.solve_calls = 0

    def __len__(self) -> int:
        return len(self.policies)

    def arms(self, xs) -> np.ndarray:
        """The (|H|, n) arm matrix of the features `xs`: entry [h, i] is h(x_i).

        Each policy runs once per feature; the range 0 <= arm < K is checked
        once for the whole matrix.
        """
        feats = feature_list(feature_rows(xs))
        arms = np.array(
            [[int(policy(x)) for x in feats] for policy in self.policies], dtype=np.intp
        ).reshape(len(self.policies), len(feats))
        if arms.size and not (arms.min() >= 0 and arms.max() < self.num_arms):
            bad = arms[(arms < 0) | (arms >= self.num_arms)][0]
            raise InputDomainError(f"policy emitted arm {bad} outside [0,{self.num_arms})")
        return arms

    def arm(self, handle: int, x: Feature) -> int:
        a = int(self.policies[handle](x))
        if not (0 <= a < self.num_arms):
            raise InputDomainError(f"policy emitted arm {a} outside [0,{self.num_arms})")
        return a

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
    item i and `weights[i]` is item i's cost vector, shape (n, K).

    Built directly, the arrays are used as given; `from_pairs` converts and
    checks (feature, cost vector) pairs.
    """

    arms: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.weights)

    @classmethod
    def from_pairs(cls, policy_class: PolicyClass, items: Sequence[tuple[Feature, np.ndarray]]) -> "ArmCosts":
        items = list(items)
        K = policy_class.num_arms
        try:
            weights = np.array([np.asarray(w, dtype=float) for _, w in items]).reshape(len(items), K)
        except ValueError as e:
            raise InputDomainError(f"each cost vector needs {K} entries") from e
        if not np.isfinite(weights).all():
            raise InputDomainError("cost weights must be finite")
        return cls(policy_class.arms([x for x, _ in items]), weights)


def policy_erm(
    policy_class: PolicyClass,
    items: ArmCosts | Sequence[tuple[Feature, np.ndarray]],
    base: Optional[np.ndarray] = None,
) -> tuple[int, float]:
    """inf_h base[h] + sum_i w_i[h(x_i)] over the table; lowest index wins ties.

    `items` is an `ArmCosts` or a sequence of (feature, cost vector) pairs;
    `base` (default 0) is each policy's cost from items summed earlier. Each
    policy's terms add one at a time in item order, after its base.
    """
    policy_class.solve_calls += 1
    if not isinstance(items, ArmCosts):
        items = ArmCosts.from_pairs(policy_class, items)
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

    `rng` gives a permutation of the pool, then the signs row by row, then
    one uniform per slot for its Z.
    """
    if count > pool_size:
        raise PoolExhaustedError(f"requested {count} hallucinations from a pool of {pool_size}")
    # a draw of nothing leaves rng untouched
    idx = rng.permutation(pool_size)[:count] if count else np.arange(0)
    signs = rng.integers(0, 2, size=(count, K)) * 2 - 1
    zs = np.where(rng.random(count) < gamma * K, 1.0 / gamma, 0.0)
    return BanditDraw(idx, signs, zs)


def phi_values(
    pool_arms: np.ndarray,
    sums: np.ndarray,
    x_arms: np.ndarray,
    draw: BanditDraw,
    policy_class: PolicyClass,
    gamma: float,
) -> np.ndarray:
    """Phi_0..Phi_K via K+1 policy-ERM calls.

    `pool_arms` is the arm matrix of the pool's contexts, so the draw's
    `indices` pick its columns; `sums[h]` is policy h's estimated cost over
    the epoch so far, and each call starts from it. Phi_0 places zero
    estimated cost at the current context, whose arms are `x_arms`; Phi_k
    places (1/gamma) e_k there. Hallucinated slots with Z_i != 0 enter with
    weights 2*Z_i*eps_i (the others cannot move any objective).
    """
    K = policy_class.num_arms
    used = np.flatnonzero(draw.zs)
    arms = np.concatenate((pool_arms[:, draw.indices[used]], x_arms[:, None]), axis=1)
    slot_weights = (2.0 * draw.zs[used])[:, None] * draw.signs[used]
    out = np.empty(K + 1)
    for k in range(K + 1):
        current = np.zeros((1, K))
        if k:
            current[0, k - 1] = 1.0 / gamma
        items = ArmCosts(arms, np.concatenate((slot_weights, current)))
        _, out[k] = policy_erm(policy_class, items, sums)
    return out


def waterfill_q(b: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize g(q) = sum_k max(0, q_k - max(b_k, 0)) over the simplex.

    With s = sum_k max(b_k, 0): if s >= 1 the mass fits under the caps
    (q_k = b_k^+/s, g = 0); otherwise the shortfall 1-s spreads evenly
    (q_k = b_k^+ + (1-s)/K, g = 1-s).
    """
    b = np.asarray(b, dtype=float)
    bp = np.maximum(b, 0.0)
    s = float(bp.sum())
    K = b.size
    if s >= 1.0:
        q = bp / s
        g = 0.0
    else:
        q = bp + (1.0 - s) / K
        g = 1.0 - s
    return q, g


def mix_q(q_hat: np.ndarray, gamma: float, K: int) -> np.ndarray:
    """q = (1 - gamma*K) q_hat + gamma*1; keeps every arm probability >= gamma."""
    if gamma * K > 1.0 + 1e-12:
        raise ConfigError("need gamma*K <= 1")
    return (1.0 - gamma * K) * np.asarray(q_hat, dtype=float) + gamma


def estimate_cost(
    arm: int, observed: float, q: np.ndarray, gamma: float, rng: np.random.Generator
) -> np.ndarray:
    """Unbiased estimate (1/gamma) I e_arm with I ~ Bernoulli(gamma*c/q[arm])."""
    if q[arm] < gamma - 1e-12:
        raise AssertionError("mixing floor violated: q[arm] < gamma")
    p = gamma * observed / q[arm]
    chat = np.zeros(len(q))
    if rng.random() < p:
        chat[arm] = 1.0 / gamma
    return chat


@dataclass
class BanditConfig:
    gamma: Optional[float] = None  # None -> gamma_default with M = T
    seed: int = 0

    def __post_init__(self):
        if self.gamma is not None and not self.gamma > 0:
            raise ConfigError("gamma must be positive")
        check_seed(self.seed)


def bandit_epoch_schedule() -> EpochSchedule:
    """Epoch lengths round(n^{3/2})."""
    return EpochSchedule(kind="polynomial", alpha=1.5)


def run_bandit(
    policy_class: PolicyClass,
    env,
    cost_adversary: Callable[[int, Feature, list], np.ndarray],
    T: int,
    config: BanditConfig,
) -> RegretTrace:
    """Play T bandit rounds; estimated-cost prefixes restart every epoch.

    `cost_adversary(t, x_t, history)` returns the round-t cost vector in
    [0,1]^K. The trace logs the expected loss <q_t, c_t>, the realized cost,
    and cumulative regret against the best fixed policy in hindsight. Each
    policy runs once on each context; an epoch's pool arms and the
    comparator reuse those arms.
    """
    if T < 1:
        raise ConfigError("T must be >= 1")
    K = policy_class.num_arms
    gamma = config.gamma if config.gamma is not None else gamma_default(len(policy_class), K, T)
    if gamma * K > 1.0:
        gamma = 1.0 / K
    schedule = bandit_epoch_schedule()
    streams = RoundStreams(config.seed, T, (1, 2, 5))

    trace = RegretTrace(columns=BANDIT_COLUMNS)
    history: list = []
    arm_matrix = np.empty((len(policy_class), T), dtype=np.intp)
    costs = np.empty((T, K))
    qs: list = []
    arms: list = []
    epochs: list = []

    n, j, start = 1, 0, 0
    m_n = epoch_length(schedule, 1)
    shortfall = 0  # rounds whose own draw the pool cut short

    for t in range(1, T + 1):
        j += 1
        if j > m_n:
            start += m_n
            n += 1
            j = 1
            m_n = epoch_length(schedule, n)
        if j == 1:
            # the pool is every context before the epoch; estimated costs are scoped per epoch
            pool_arms = arm_matrix[:, :start]
            sums = np.zeros(len(policy_class))

        x_t = sample_feature(env, t, streams.rngs(1, t))
        x_arms = arm_matrix[:, t - 1] = policy_class.arms([x_t])[:, 0]
        count = min(m_n - j, start)
        shortfall += count < m_n - j
        draw = draw_bandit(start, count, K, gamma, streams.rngs(2, t))
        phis = phi_values(pool_arms, sums, x_arms, draw, policy_class, gamma)
        b = gamma * (phis[1:] - phis[0])
        q_hat, _ = waterfill_q(b)
        q = mix_q(q_hat, gamma, K)

        rng_play = streams.rngs(5, t)
        arm = int(rng_play.choice(K, p=q / q.sum()))
        c_t = np.asarray(cost_adversary(t, x_t, history), dtype=float)
        # written so that NaN fails too
        if c_t.shape != (K,) or not np.all((c_t >= 0) & (c_t <= 1)):
            raise InputDomainError(f"cost vector out of [0,1]^K at t={t}")
        chat = estimate_cost(arm, float(c_t[arm]), q, gamma, rng_play)
        sums += chat[x_arms]

        history.append((x_t, arm, float(c_t[arm])))
        costs[t - 1] = c_t
        qs.append(q)
        arms.append(arm)
        epochs.append(n)

    comp_class = policy_class.clone()
    h_star, _ = policy_erm(comp_class, ArmCosts(arm_matrix, costs))
    comp_costs = costs[np.arange(T), arm_matrix[h_star]].tolist()
    cum_exp = cum_comp = 0.0
    for t in range(1, T + 1):
        c_t, q = costs[t - 1], qs[t - 1]
        cum_exp += float(q @ c_t)
        cum_comp += comp_costs[t - 1]
        trace.append(
            t=t, epoch=epochs[t - 1], arm=arms[t - 1],
            q_min=float(q.min()),
            expected_loss=float(q @ c_t),
            realized_cost=float(c_t[arms[t - 1]]),
            cum_regret=cum_exp - cum_comp,
        )
    trace.metadata.update(
        seed=config.seed, T=T, gamma=gamma, K=K, comparator=h_star, halluc_shortfall=shortfall,
    )
    return trace
