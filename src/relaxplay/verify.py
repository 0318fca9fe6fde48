"""Runtime checks of the guarantees the predictor is built on, at desk scale.

Each check Monte-Carlos or enumerates both sides of one inequality on tiny
fixtures and reports a pass/fail with explicit 3-sigma slack. A Rademacher
estimator and a report-only discrepancy probe round out the suite. Every
check is deterministic given its seed; the negative controls (corrupted
predictor, scaled relaxation) must fail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ABSOLUTE_LOSS,
    ConfigError,
    Feature,
    HypothesisClass,
    LabeledPair,
    LossFn,
    MixedErmQuery,
    best_in_hindsight,
    feature_rows,
    loss_eval,
)
from .environment import FeatureDistribution
from .predictor import (
    GameHistory,
    PredictorConfig,
    SidePool,
    draw_halluc,
    f_eval,
    inner_sups,
    predict_general,
    relaxation_R,
)


@dataclass
class CheckReport:
    """Outcome of one check. `passed` is None for report-only diagnostics."""

    name: str
    instances: int
    passed: Optional[bool]
    worst_margin: float
    stderr: float = 0.0
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "REPORT" if self.passed is None else ("PASS" if self.passed else "FAIL")
        return (
            f"{self.name}: {status} ({self.instances} instances, "
            f"worst margin {self.worst_margin:+.6g}, stderr {self.stderr:.3g})"
        )


# ---------------------------------------------------------------------------
# Rademacher complexity
# ---------------------------------------------------------------------------


def _rademacher_sup(cls: HypothesisClass, signs: Sequence[int], feats: np.ndarray) -> float:
    query = MixedErmQuery(signed_xs=feats, signs=-np.asarray(signs, dtype=float), coefficient=1.0)
    return -cls.solve(query).objective


def estimate_rademacher(
    cls: HypothesisClass,
    features: Sequence[Feature],
    mc_samples: int,
    rng: np.random.Generator,
    exhaustive: bool = False,
) -> tuple[float, float]:
    """(mean, stderr) of E_eps sup_h sum_t eps_t h(x_t) at the given x^T.

    A lower estimate of the worst-case complexity (the sup over feature
    sequences is replaced by the supplied one). `exhaustive` enumerates all
    2^T sign patterns exactly (stderr 0) instead of sampling.
    """
    T = len(features)
    if T < 1:
        raise ConfigError("need at least one feature")
    features = feature_rows(features)
    if exhaustive:
        vals = [
            _rademacher_sup(cls, signs, features)
            for signs in itertools.product((-1, 1), repeat=T)
        ]
        return float(np.mean(vals)), 0.0
    vals = np.empty(mc_samples)
    for k in range(mc_samples):
        signs = rng.integers(0, 2, size=T) * 2 - 1
        vals[k] = _rademacher_sup(cls, signs, features)
    se = float(vals.std(ddof=1) / math.sqrt(mc_samples)) if mc_samples > 1 else 0.0
    return float(vals.mean()), se


# ---------------------------------------------------------------------------
# Admissibility: E_x sup_y E[loss(yhat, y) + R_j] <= Rtilde_{j-1}
# ---------------------------------------------------------------------------


@dataclass
class AdmissibilityScenario:
    """A tiny game slice: discrete feature law, small class, short horizon.

    Each history fixture is a list of realized (x, y) rounds; the check runs
    at slot j = len(fixture) + 1. `predict_offset` corrupts the prediction
    for negative-control runs.
    """

    cls: HypothesisClass
    env: FeatureDistribution
    horizon: int
    pool_features: Sequence[Feature]
    histories: Sequence[Sequence[tuple]] = ((),)
    loss: LossFn = ABSOLUTE_LOSS
    y_step: float = 0.05
    predict_offset: float = 0.0

    def __post_init__(self):
        if self.env.kind != "discrete":
            raise ConfigError("admissibility check needs a finite feature support")
        for fixture in self.histories:
            if len(fixture) + 1 > self.horizon:
                raise ConfigError("history fixture longer than the horizon allows")


def check_admissibility(
    scenario: AdmissibilityScenario, mc_samples: int, rng: np.random.Generator
) -> CheckReport:
    """Per-slot one-step inequality: the played value plus the next relaxation
    never exceeds the previous relaxation (with the true law in the new slot).

    The outer feature expectation is exact over the discrete support; the sup
    over the adversary's label runs on the scenario's y-grid; playout draws
    are Monte-Carlo with per-draw suprema.
    """
    cls, loss = scenario.cls, scenario.loss
    config = PredictorConfig(
        horizon=scenario.horizon,
        loss=loss,
        y_grid_step=scenario.y_step,
        yhat_tolerance=min(scenario.y_step, 1e-2),
    )
    pool = SidePool(scenario.pool_features)
    grid = np.append(np.arange(0.0, 1.0, scenario.y_step), 1.0)

    worst = -np.inf
    worst_se = 0.0
    all_pass = True
    per_fixture = []
    for fixture in scenario.histories:
        j = len(fixture) + 1
        rounds = list(fixture)
        pairs = tuple(LabeledPair(x, y) for x, y in rounds)
        count = scenario.horizon - j

        lhs_mean = 0.0
        lhs_var = 0.0
        for x_j, p_x in zip(scenario.env.points, scenario.env.probs):
            if p_x == 0.0:
                continue
            history = GameHistory.from_rounds(rounds, x_j)
            vals = np.empty(mc_samples)
            for k in range(mc_samples):
                draw = draw_halluc(pool, count, rng)
                yhat = predict_general(history, draw, cls, config)
                yhat = float(np.clip(yhat + scenario.predict_offset, 0.0, 1.0))
                sups = inner_sups(history, draw, grid, cls, config)
                vals[k] = max(loss_eval(loss, yhat, y) + s for y, s in zip(grid.tolist(), sups.tolist()))
            lhs_mean += p_x * float(vals.mean())
            if mc_samples > 1:
                lhs_var += (p_x ** 2) * float(vals.var(ddof=1)) / mc_samples

        rhs, rhs_se = relaxation_R(
            j - 1, pairs, pool, cls, config, mc_samples, rng, true_env=scenario.env
        )
        se = math.sqrt(lhs_var + rhs_se ** 2)
        margin = lhs_mean - rhs
        ok = bool(margin <= 3.0 * se + 1e-9)
        all_pass = all_pass and ok
        per_fixture.append({"j": j, "lhs": lhs_mean, "rhs": rhs, "stderr": se, "pass": ok})
        if margin > worst:
            worst, worst_se = margin, se

    return CheckReport(
        name="admissibility",
        instances=len(per_fixture),
        passed=all_pass,
        worst_margin=float(worst),
        stderr=float(worst_se),
        details={"fixtures": per_fixture},
    )


# ---------------------------------------------------------------------------
# Playout-value sensitivity: 4L spread and j*L label-Lipschitz
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SensitivityInstance:
    cls: HypothesisClass
    history_pairs: tuple
    tail_halluc: tuple
    signs: tuple  # slots j+1..M; len == len(tail_halluc) + 1
    probe_xs: tuple
    perturbed_labels: tuple  # same length as history_pairs
    loss: LossFn = ABSOLUTE_LOSS


def check_sensitivity(
    generator: Callable[[np.random.Generator], SensitivityInstance],
    count: int,
    rng: np.random.Generator,
) -> CheckReport:
    """Two bounds on the playout value as a function of the free slot:

    the spread over probe features is at most 4L, and perturbing the j
    history labels moves it by at most j * L * max-label-change.
    """
    worst = -np.inf
    all_pass = True
    for _ in range(count):
        inst = generator(rng)
        L = inst.loss.lipschitz
        j = len(inst.history_pairs)
        slack = 2.0 * inst.cls.solve_tolerance + 1e-9

        vals = np.array([
            f_eval(inst.history_pairs, inst.tail_halluc, inst.signs, x, inst.cls, inst.loss)
            for x in inst.probe_xs
        ])
        spread_margin = float(vals.max() - vals.min()) - 4.0 * L

        pert_pairs = tuple(
            LabeledPair(p.x, y, p.weight)
            for p, y in zip(inst.history_pairs, inst.perturbed_labels)
        )
        delta = max(
            (abs(p.y - y) for p, y in zip(inst.history_pairs, inst.perturbed_labels)),
            default=0.0,
        )
        pert_vals = np.array([
            f_eval(pert_pairs, inst.tail_halluc, inst.signs, x, inst.cls, inst.loss)
            for x in inst.probe_xs
        ])
        lip_margin = float(np.max(np.abs(vals - pert_vals))) - j * L * delta

        margin = max(spread_margin, lip_margin)
        all_pass = all_pass and margin <= slack
        worst = max(worst, margin)
    return CheckReport(
        name="sensitivity", instances=count, passed=all_pass, worst_margin=float(worst)
    )


def default_sensitivity_generator(max_history: int = 3, max_tail: int = 3):
    """Random finite binary classes with random histories/tails/probes."""
    from .oracles import FiniteClass

    def gen(rng: np.random.Generator) -> SensitivityInstance:
        n_h = int(rng.integers(2, 7))
        thresholds = rng.random(n_h)
        cls = FiniteClass(
            [(lambda a: (lambda x: 1.0 if x >= a else 0.0))(a) for a in thresholds],
            binary=True,
        )
        j = int(rng.integers(0, max_history + 1))
        tail = int(rng.integers(0, max_tail + 1))
        pairs = tuple(
            LabeledPair(float(rng.random()), float(rng.random())) for _ in range(j)
        )
        return SensitivityInstance(
            cls=cls,
            history_pairs=pairs,
            tail_halluc=tuple(float(rng.random()) for _ in range(tail)),
            signs=tuple(int(s) for s in rng.integers(0, 2, size=tail + 1) * 2 - 1),
            probe_xs=tuple(float(rng.random()) for _ in range(8)),
            perturbed_labels=tuple(
                float(np.clip(p.y + rng.uniform(-0.3, 0.3), 0.0, 1.0)) for p in pairs
            ),
        )

    return gen


# ---------------------------------------------------------------------------
# Three-case structural characterization for binary classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryInstance:
    """Binary class, absolute loss, {0,1} labels, probe-slot sign +1."""

    cls: HypothesisClass  # must expose grid_handles/evaluate; finite
    history: tuple  # (x, y) with y in {0,1}
    tail_halluc: tuple
    tail_signs: tuple
    probe_xs: tuple


def check_fact2(
    generator: Callable[[np.random.Generator], BinaryInstance],
    count: int,
    rng: np.random.Generator,
) -> CheckReport:
    """The playout value of a binary class takes exactly three values:
    the best score plus 2, plus 1, or plus 0, decided by whether any
    best (resp. second-best) hypothesis fires at the probe point.

    Direct sup-enumeration is the oracle; mismatches beyond 1e-9 fail.
    """
    worst = 0.0
    all_pass = True
    for _ in range(count):
        inst = generator(rng)
        handles = list(inst.cls.grid_handles(0.0))
        scores = []
        for h in handles:
            s = 2.0 * sum(
                eps * inst.cls.evaluate(h, x)
                for eps, x in zip(inst.tail_signs, inst.tail_halluc)
            )
            s -= sum(abs(inst.cls.evaluate(h, x) - y) for x, y in inst.history)
            scores.append(s)
        fmax = max(scores)
        top = [h for h, s in zip(handles, scores) if abs(s - fmax) < 1e-9]
        second = [h for h, s in zip(handles, scores) if abs(s - (fmax - 1.0)) < 1e-9]

        pairs = tuple(LabeledPair(x, y) for x, y in inst.history)
        signs = (1,) + tuple(inst.tail_signs)
        for x in inst.probe_xs:
            if any(inst.cls.evaluate(h, x) >= 0.5 for h in top):
                predicted = fmax + 2.0
            elif any(inst.cls.evaluate(h, x) >= 0.5 for h in second):
                predicted = fmax + 1.0
            else:
                predicted = fmax
            direct = f_eval(pairs, inst.tail_halluc, signs, x, inst.cls)
            err = abs(direct - predicted)
            worst = max(worst, err)
            all_pass = all_pass and err <= 1e-9
    return CheckReport(
        name="binary-structure", instances=count, passed=all_pass, worst_margin=float(worst)
    )


def default_binary_generator(max_class: int = 8, max_history: int = 4):
    """Random finite {0,1}-valued classes over a small discrete domain."""
    from .oracles import FiniteClass

    def gen(rng: np.random.Generator) -> BinaryInstance:
        domain = [float(v) for v in rng.random(5)]
        n_h = int(rng.integers(2, max_class + 1))
        tables = [
            {x: float(rng.integers(0, 2)) for x in domain} for _ in range(n_h)
        ]
        cls = FiniteClass(
            [(lambda tb: (lambda x: tb[x]))(tb) for tb in tables], binary=True
        )
        j = int(rng.integers(0, max_history + 1))
        tail = int(rng.integers(0, 4))
        pick = lambda: domain[int(rng.integers(0, len(domain)))]
        return BinaryInstance(
            cls=cls,
            history=tuple((pick(), float(rng.integers(0, 2))) for _ in range(j)),
            tail_halluc=tuple(pick() for _ in range(tail)),
            tail_signs=tuple(int(s) for s in rng.integers(0, 2, size=tail) * 2 - 1),
            probe_xs=tuple(domain),
        )

    return gen


# ---------------------------------------------------------------------------
# Regret decomposition
# ---------------------------------------------------------------------------


@dataclass
class DecompositionScenario:
    """Tiny side-information game with a greedy grid-sup label adversary.

    `rtilde_scale` multiplies the initial-relaxation term. The greedy
    adversary realizes only part of that term, so a negative control needs
    a scale that pushes the whole bound below the measured regret
    (e.g. -1.0), not merely below 1.
    """

    cls: HypothesisClass
    env: FeatureDistribution
    horizon: int
    pool_features: Sequence[Feature]
    loss: LossFn = ABSOLUTE_LOSS
    y_step: float = 0.05
    inner_mc: int = 32
    rtilde_scale: float = 1.0


def check_decomposition(
    scenario: DecompositionScenario, mc_samples: int, rng: np.random.Generator
) -> CheckReport:
    """Side-information regret is at most the initial relaxation plus the
    summed per-slot gaps between the true-law and pool-drawn relaxations.

    Both sides are Monte-Carlo over full game playthroughs; the adversary
    greedily realizes each round's per-draw sup over the y-grid.
    """
    cls, loss, M = scenario.cls, scenario.loss, scenario.horizon
    config = PredictorConfig(
        horizon=M,
        loss=loss,
        y_grid_step=scenario.y_step,
        yhat_tolerance=min(scenario.y_step, 1e-2),
    )
    pool = SidePool(scenario.pool_features)
    grid = np.append(np.arange(0.0, 1.0, scenario.y_step), 1.0)

    regrets = np.empty(mc_samples)
    gaps = np.empty(mc_samples)
    gap_ses = np.empty(mc_samples)
    for g in range(mc_samples):
        rounds: list = []
        preds: list = []
        for j in range(1, M + 1):
            x_j = scenario.env.sample(rng)
            history = GameHistory.from_rounds(rounds, x_j)
            draw = draw_halluc(pool, M - j, rng)
            yhat = predict_general(history, draw, cls, config)
            sups = inner_sups(history, draw, grid, cls, config)
            scores = [loss_eval(loss, yhat, y) + s for y, s in zip(grid.tolist(), sups.tolist())]
            y_j = grid[int(np.argmax(scores))]
            rounds.append((x_j, float(y_j)))
            preds.append(yhat)

        pairs = [LabeledPair(x, y) for x, y in rounds]
        _, comp = best_in_hindsight(cls, pairs, loss)
        regrets[g] = sum(loss_eval(loss, yh, y) for (_, y), yh in zip(rounds, preds)) - comp

        r0, se0 = relaxation_R(0, (), pool, cls, config, scenario.inner_mc, rng, true_env=scenario.env)
        total = scenario.rtilde_scale * r0
        var = (scenario.rtilde_scale * se0) ** 2
        for j in range(1, M):
            prefix = tuple(pairs[:j])
            rt, set_ = relaxation_R(
                j, prefix, pool, cls, config, scenario.inner_mc, rng, true_env=scenario.env
            )
            rj, sej = relaxation_R(j, prefix, pool, cls, config, scenario.inner_mc, rng)
            total += rt - rj
            var += set_ ** 2 + sej ** 2
        gaps[g] = total
        gap_ses[g] = math.sqrt(var)

    lhs = float(regrets.mean())
    rhs = float(gaps.mean())
    if mc_samples > 1:
        se = math.sqrt(
            regrets.var(ddof=1) / mc_samples
            + gaps.var(ddof=1) / mc_samples
            + float(np.mean(gap_ses ** 2)) / mc_samples
        )
    else:
        se = float(gap_ses[0])
    margin = lhs - rhs
    return CheckReport(
        name="decomposition",
        instances=mc_samples,
        passed=bool(margin <= 3.0 * se + 1e-9),
        worst_margin=float(margin),
        stderr=float(se),
        details={"regret": lhs, "bound": rhs},
    )


# ---------------------------------------------------------------------------
# Discrepancy probe (report only)
# ---------------------------------------------------------------------------


@dataclass
class DiscrepancyScenario:
    cls: HypothesisClass
    env: FeatureDistribution
    horizon: int
    pool_features: Sequence[Feature]
    loss: LossFn = ABSOLUTE_LOSS
    with_replacement: bool = False


def discrepancy_probe(
    scenario: DiscrepancyScenario, mc_samples: int, rng: np.random.Generator
) -> CheckReport:
    """Measured gap between true-law and pool-drawn relaxations per slot,
    reported against a sqrt(j/N)-shaped reference curve. No pass/fail.

    Histories are sampled from the scenario's law with uniform {0,1} labels.
    """
    cls, loss, M = scenario.cls, scenario.loss, scenario.horizon
    N = len(scenario.pool_features)
    config = PredictorConfig(horizon=M, loss=loss)
    pool = SidePool(scenario.pool_features)
    L = loss.lipschitz

    rows = []
    for j in range(1, M):
        pairs = tuple(
            LabeledPair(scenario.env.sample(rng), float(rng.integers(0, 2)))
            for _ in range(j)
        )
        rt, set_ = relaxation_R(
            j, pairs, pool, cls, config, mc_samples, rng,
            with_replacement=scenario.with_replacement, true_env=scenario.env,
        )
        rj, sej = relaxation_R(
            j, pairs, pool, cls, config, mc_samples, rng,
            with_replacement=scenario.with_replacement,
        )
        ref = L * math.sqrt(j * math.log(max(2.0, j * L * N)) / N)
        rows.append({
            "j": j,
            "discrepancy": rt - rj,
            "stderr": math.sqrt(set_ ** 2 + sej ** 2),
            "reference": ref,
        })
    worst = max((abs(r["discrepancy"]) for r in rows), default=0.0)
    se = max((r["stderr"] for r in rows), default=0.0)
    return CheckReport(
        name="discrepancy",
        instances=len(rows),
        passed=None,
        worst_margin=float(worst),
        stderr=float(se),
        details={"rows": rows},
    )


# ---------------------------------------------------------------------------
# Standard battery for the CLI
# ---------------------------------------------------------------------------


def standard_checks(seed: int, mc_samples: int = 64) -> list:
    """The canned tiny-fixture battery behind the `verify` CLI subcommand."""
    from .oracles import FiniteClass

    reports = []
    rng = np.random.default_rng([seed, 11])
    two = FiniteClass.from_constants([0.0, 1.0])
    env = FeatureDistribution.discrete([0.2, 0.8], [0.5, 0.5])
    reports.append(
        check_admissibility(
            AdmissibilityScenario(
                cls=two,
                env=env,
                horizon=2,
                pool_features=[0.2, 0.8],
                histories=[(), ((0.2, 1.0),)],
            ),
            mc_samples,
            rng,
        )
    )
    rng = np.random.default_rng([seed, 12])
    reports.append(check_sensitivity(default_sensitivity_generator(), 50, rng))
    rng = np.random.default_rng([seed, 13])
    reports.append(check_fact2(default_binary_generator(), 100, rng))
    rng = np.random.default_rng([seed, 14])
    reports.append(
        check_decomposition(
            DecompositionScenario(
                cls=two, env=env, horizon=2, pool_features=[0.2, 0.8],
                inner_mc=max(8, mc_samples // 4),
            ),
            max(8, mc_samples // 4),
            rng,
        )
    )
    rng = np.random.default_rng([seed, 15])
    pool = [float(x) for x in rng.random(16)]
    reports.append(
        discrepancy_probe(
            DiscrepancyScenario(
                cls=two, env=FeatureDistribution.uniform(), horizon=3, pool_features=pool
            ),
            mc_samples,
            rng,
        )
    )
    return reports
