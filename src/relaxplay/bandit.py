"""Contextual K-arm bandit with hallucinated contexts: relaxation with Z
variables, a closed-form water-filling inner minimax, exploration mixing,
and inverse-propensity cost estimation, wrapped in n^{3/2} epochs.

Arms are 0-based internally. The inner minimax over the adversary's
estimated-cost distributions reduces, for fixed q, to putting mass gamma on
every profitable 1/gamma atom; minimizing the resulting piecewise-linear
g(q) over the simplex has the water-filling closed form below, which the
test suite checks against simplex grid search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import ConfigError, Feature, InputDomainError, feature_list
from .environment import sample_feature
from .epochs import EpochSchedule, epoch_length
from .predictor import SidePool, PoolExhaustedError
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


def policy_erm(
    policy_class: PolicyClass, items: Sequence[tuple[Feature, np.ndarray]]
) -> tuple[int, float]:
    """Enumerate inf_h sum_i w_i[h(x_i)] over the table; lowest index wins ties."""
    policy_class.solve_calls += 1
    best_idx, best_obj = 0, np.inf
    for h in range(len(policy_class)):
        obj = 0.0
        for x, w in items:
            obj += float(w[policy_class.arm(h, x)])
        if obj < best_obj - 1e-15:
            best_idx, best_obj = h, obj
    if not np.isfinite(best_obj):
        best_obj = 0.0
    return best_idx, float(best_obj)


@dataclass(frozen=True)
class BanditDraw:
    """Hallucinated contexts plus per-slot sign vectors in {-1,+1}^K and
    Z in {0, 1/gamma} with Pr[Z = 1/gamma] = gamma*K."""

    halluc: tuple
    signs: tuple  # tuple of length-K int arrays
    zs: tuple


def draw_bandit(
    pool: SidePool, count: int, K: int, gamma: float, rng: np.random.Generator
) -> BanditDraw:
    if count > pool.size:
        raise PoolExhaustedError(f"requested {count} hallucinations from a pool of {pool.size}")
    if count == 0:
        return BanditDraw((), (), ())
    idx = rng.permutation(pool.size)[:count]
    signs = tuple(rng.integers(0, 2, size=K) * 2 - 1 for _ in range(count))
    zs = tuple(
        (1.0 / gamma) if rng.random() < gamma * K else 0.0 for _ in range(count)
    )
    return BanditDraw(tuple(feature_list(pool.features[idx])), signs, zs)


def phi_values(
    estimated_history: Sequence[tuple[Feature, np.ndarray]],
    x_j: Feature,
    draw: BanditDraw,
    policy_class: PolicyClass,
    gamma: float,
) -> np.ndarray:
    """Phi_0..Phi_K via K+1 policy-ERM calls.

    Phi_0 places zero estimated cost at the current context; Phi_k places
    (1/gamma) e_k there. Hallucinated slots enter with weights 2*Z_i*eps_i.
    """
    K = policy_class.num_arms
    # all-zero weight vectors (unexplored rounds, Z_i = 0 slots) cannot move
    # any objective, so they are dropped before enumeration
    base = [(x, w) for x, w in estimated_history if np.any(w)]
    for x, eps, z in zip(draw.halluc, draw.signs, draw.zs):
        if z != 0.0:
            base.append((x, 2.0 * z * np.asarray(eps, dtype=float)))
    out = np.empty(K + 1)
    _, out[0] = policy_erm(policy_class, base + [(x_j, np.zeros(K))])
    for k in range(K):
        e = np.zeros(K)
        e[k] = 1.0 / gamma
        _, out[k + 1] = policy_erm(policy_class, base + [(x_j, e)])
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
        if self.gamma is not None and self.gamma <= 0:
            raise ConfigError("gamma must be positive")


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
    and cumulative regret against the best fixed policy in hindsight.
    """
    if T < 1:
        raise ConfigError("T must be >= 1")
    K = policy_class.num_arms
    gamma = config.gamma if config.gamma is not None else gamma_default(len(policy_class), K, T)
    if gamma * K > 1.0:
        gamma = 1.0 / K
    schedule = bandit_epoch_schedule()

    trace = RegretTrace(columns=BANDIT_COLUMNS)
    history: list = []
    contexts: list = []
    costs: list = []
    qs: list = []
    arms: list = []
    epochs: list = []

    n, j, start = 1, 0, 0
    m_n = epoch_length(schedule, 1)
    pool = SidePool()
    est_history: list = []

    for t in range(1, T + 1):
        j += 1
        if j > m_n:
            start += m_n
            n += 1
            j = 1
            m_n = epoch_length(schedule, n)
        if j == 1:
            pool = SidePool(contexts[:start])
            est_history = []  # estimated costs are scoped per epoch

        rng_feat = np.random.default_rng([config.seed, 1, t])
        rng_draw = np.random.default_rng([config.seed, 2, t])
        rng_play = np.random.default_rng([config.seed, 5, t])

        x_t = sample_feature(env, t, rng_feat)
        count = min(m_n - j, pool.size)
        draw = draw_bandit(pool, count, K, gamma, rng_draw)
        phis = phi_values(est_history, x_t, draw, policy_class, gamma)
        b = gamma * (phis[1:] - phis[0])
        q_hat, _ = waterfill_q(b)
        q = mix_q(q_hat, gamma, K)

        arm = int(rng_play.choice(K, p=q / q.sum()))
        c_t = np.asarray(cost_adversary(t, x_t, history), dtype=float)
        if c_t.shape != (K,) or np.any(c_t < 0) or np.any(c_t > 1):
            raise InputDomainError(f"cost vector out of [0,1]^K at t={t}")
        chat = estimate_cost(arm, float(c_t[arm]), q, gamma, rng_play)
        est_history.append((x_t, chat))

        history.append((x_t, arm, float(c_t[arm])))
        contexts.append(x_t)
        costs.append(c_t)
        qs.append(q)
        arms.append(arm)
        epochs.append(n)

    comp_class = policy_class.clone()
    h_star, _ = policy_erm(comp_class, list(zip(contexts, costs)))
    cum_exp = cum_comp = 0.0
    for t in range(1, T + 1):
        c_t, q = costs[t - 1], qs[t - 1]
        cum_exp += float(q @ c_t)
        cum_comp += float(c_t[comp_class.arm(h_star, contexts[t - 1])])
        trace.append(
            t=t, epoch=epochs[t - 1], arm=arms[t - 1],
            q_min=float(q.min()),
            expected_loss=float(q @ c_t),
            realized_cost=float(costs[t - 1][arms[t - 1]]),
            cum_regret=cum_exp - cum_comp,
        )
    trace.metadata.update(seed=config.seed, T=T, gamma=gamma, K=K, comparator=h_star)
    return trace
