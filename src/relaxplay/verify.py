"""Runtime checks of the guarantees the predictor is built on, at desk scale.

Each check Monte-Carlos or enumerates both sides of one inequality on tiny
fixtures and reports a pass/fail with explicit 3-sigma slack. A Rademacher
estimator and a report-only discrepancy probe round out the suite. The
relaxation checks (admissibility, decomposition, discrepancy) all play one
game type, `TinyGame`; each check takes its own knobs as keyword arguments.
Every check is deterministic given its seed; the negative controls
(corrupted predictor, scaled relaxation) must fail.
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
    LossFn,
    MixedErmQuery,
    best_in_hindsight,
    check_count,
    feature_rows,
    loss_eval,
)
from .environment import FeatureDistribution
from .oracles import FiniteClass
from .predictor import (
    GameHistory,
    PredictorConfig,
    draw_halluc,
    f_eval,
    _y_grid,
    inner_sups,
    minimax_step,
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
    mc_samples = check_count(mc_samples, "mc_samples")
    vals = np.empty(mc_samples)
    for k in range(mc_samples):
        signs = rng.integers(0, 2, size=T) * 2 - 1
        vals[k] = _rademacher_sup(cls, signs, features)
    se = float(vals.std(ddof=1) / math.sqrt(mc_samples)) if mc_samples > 1 else 0.0
    return float(vals.mean()), se


# ---------------------------------------------------------------------------
# Admissibility: E_x sup_y E[loss(yhat, y) + R_j] <= Rtilde_{j-1}
# ---------------------------------------------------------------------------


def _history(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Realized rounds as (xs, ys) float64 arrays."""
    xs, ys = feature_rows(xs), np.asarray(ys, dtype=float)
    if ys.shape != (len(xs),):
        raise ConfigError(f"a history needs one label per feature, got shapes {xs.shape} and {ys.shape}")
    return xs, ys


Y_STEP = 0.05  # a tiny game's adversary label grid step
SENSITIVITY_MAX_ROUNDS = SENSITIVITY_MAX_TAIL = 3  # the sensitivity generator's most realized rounds and tail slots
BINARY_MAX_CLASS, BINARY_MAX_ROUNDS = 8, 4  # the binary generator's most hypotheses and realized rounds


@dataclass(frozen=True)
class TinyGame:
    """A tiny side-information game: small class, short horizon, a side pool
    and an adversary label grid of step Y_STEP (1 included). The checks
    read it and never change it."""

    cls: HypothesisClass
    env: FeatureDistribution
    horizon: int
    pool_features: Sequence[Feature]
    loss: LossFn = ABSOLUTE_LOSS

    def setup(self) -> tuple[PredictorConfig, np.ndarray, np.ndarray]:
        """The predictor config, side pool and adversary label grid."""
        config = PredictorConfig(
            horizon=self.horizon, loss=self.loss,
            y_grid_step=Y_STEP, yhat_tolerance=1e-2,
        )
        return config, feature_rows(self.pool_features), _y_grid(config)


def _grid_round(game, config, pool, grid, history, count, rng, offset=0.0) -> tuple[float, list]:
    """One round at `history` (its last feature the current one): a pool draw
    of `count` slots, the inner sup at each grid label and the minimax
    prediction moved by `offset` and clipped to [0,1]. Returns the prediction
    and, per grid label y, loss(prediction, y) + sup."""
    draw = draw_halluc(pool, count, rng)
    sups = inner_sups(history, draw, grid, game.cls, config)
    yhat = float(np.clip(minimax_step(grid, sups, config) + offset, 0.0, 1.0))
    return yhat, [loss_eval(game.loss, yhat, y) + s for y, s in zip(grid.tolist(), sups.tolist())]


def check_admissibility(
    game: TinyGame,
    mc_samples: int,
    rng: np.random.Generator,
    histories: Sequence[tuple] = (((), ()),),
    predict_offset: float = 0.0,
) -> CheckReport:
    """Per-slot one-step inequality: the played value plus the next relaxation
    never exceeds the previous relaxation (with the true law in the new slot).

    Each history holds the realized rounds as (xs, ys) arrays; the check runs
    at slot j = len(ys) + 1. `predict_offset` corrupts the prediction for
    negative-control runs. The outer feature expectation is exact over the
    law's discrete support; the sup over the adversary's label runs on the
    game's y-grid; playout draws are Monte-Carlo with per-draw suprema.
    """
    if game.env.kind != "discrete":
        raise ConfigError("admissibility check needs a finite feature support")
    histories = [_history(xs, ys) for xs, ys in histories]
    if any(len(ys) + 1 > game.horizon for _, ys in histories):
        raise ConfigError("history fixture longer than the horizon allows")
    mc_samples = check_count(mc_samples, "mc_samples")
    config, pool, grid = game.setup()

    worst, worst_se = -np.inf, 0.0
    all_pass = True
    per_fixture = []
    for xs, ys in histories:
        j = len(ys) + 1
        count = game.horizon - j

        lhs_mean, lhs_var = 0.0, 0.0
        for x_j, p_x in zip(game.env.points, game.env.probs):
            if p_x == 0.0:
                continue
            history = GameHistory(feature_rows([*xs, x_j]), ys)
            vals = np.empty(mc_samples)
            for k in range(mc_samples):
                vals[k] = max(_grid_round(game, config, pool, grid, history, count, rng, predict_offset)[1])
            lhs_mean += p_x * float(vals.mean())
            if mc_samples > 1:
                lhs_var += (p_x ** 2) * float(vals.var(ddof=1)) / mc_samples

        rhs, rhs_se = relaxation_R(j - 1, (xs, ys), pool, game.cls, config, mc_samples, rng, true_env=game.env)
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
    history: tuple  # the j realized rounds as (xs, ys) arrays
    tail_halluc: tuple
    signs: tuple  # slots j+1..M; len == len(tail_halluc) + 1
    probe_xs: tuple
    perturbed_labels: np.ndarray  # one per label of the history
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
        xs, ys = _history(*inst.history)
        _, pert_ys = _history(xs, inst.perturbed_labels)
        j = len(ys)

        vals = np.array([
            f_eval((xs, ys), inst.tail_halluc, inst.signs, x, inst.cls, inst.loss)
            for x in inst.probe_xs
        ])
        spread_margin = float(vals.max() - vals.min()) - 4.0 * L

        delta = max(np.abs(ys - pert_ys).tolist(), default=0.0)
        pert_vals = np.array([
            f_eval((xs, pert_ys), inst.tail_halluc, inst.signs, x, inst.cls, inst.loss)
            for x in inst.probe_xs
        ])
        lip_margin = float(np.max(np.abs(vals - pert_vals))) - j * L * delta

        margin = max(spread_margin, lip_margin)
        all_pass = all_pass and margin <= 1e-9
        worst = max(worst, margin)
    return CheckReport(
        name="sensitivity", instances=count, passed=all_pass, worst_margin=float(worst)
    )


def default_sensitivity_generator():
    """Random finite binary classes with random histories/tails/probes."""
    def gen(rng: np.random.Generator) -> SensitivityInstance:
        n_h = int(rng.integers(2, 7))
        thresholds = rng.random(n_h)
        cls = FiniteClass(
            [(lambda a: (lambda x: 1.0 if x >= a else 0.0))(a) for a in thresholds],
            binary=True,
        )
        j = int(rng.integers(0, SENSITIVITY_MAX_ROUNDS + 1))
        tail = int(rng.integers(0, SENSITIVITY_MAX_TAIL + 1))
        xs, ys = rng.random((j, 2)).T  # x_1, y_1, x_2, ... in draw order
        return SensitivityInstance(
            cls=cls,
            history=(xs, ys),
            tail_halluc=tuple(float(rng.random()) for _ in range(tail)),
            signs=tuple(int(s) for s in rng.integers(0, 2, size=tail + 1) * 2 - 1),
            probe_xs=tuple(float(rng.random()) for _ in range(8)),
            perturbed_labels=np.clip(ys + rng.uniform(-0.3, 0.3, size=j), 0.0, 1.0),
        )

    return gen


# ---------------------------------------------------------------------------
# Three-case structural characterization for binary classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryInstance:
    """Binary class, absolute loss, {0,1} labels, probe-slot sign +1."""

    cls: HypothesisClass  # must expose grid_handles/evaluate; finite
    history: tuple  # the realized rounds as (xs, ys) arrays, ys in {0,1}
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
        xs, ys = _history(*inst.history)
        rounds = list(zip(xs.tolist(), ys.tolist()))
        scores = []
        for h in handles:
            s = 2.0 * sum(
                eps * inst.cls.evaluate(h, x)
                for eps, x in zip(inst.tail_signs, inst.tail_halluc)
            )
            s -= sum(abs(inst.cls.evaluate(h, x) - y) for x, y in rounds)
            scores.append(s)
        fmax = max(scores)
        top = [h for h, s in zip(handles, scores) if abs(s - fmax) < 1e-9]
        second = [h for h, s in zip(handles, scores) if abs(s - (fmax - 1.0)) < 1e-9]

        signs = (1,) + tuple(inst.tail_signs)
        for x in inst.probe_xs:
            if any(inst.cls.evaluate(h, x) >= 0.5 for h in top):
                predicted = fmax + 2.0
            elif any(inst.cls.evaluate(h, x) >= 0.5 for h in second):
                predicted = fmax + 1.0
            else:
                predicted = fmax
            direct = f_eval((xs, ys), inst.tail_halluc, signs, x, inst.cls)
            err = abs(direct - predicted)
            worst = max(worst, err)
            all_pass = all_pass and err <= 1e-9
    return CheckReport(
        name="binary-structure", instances=count, passed=all_pass, worst_margin=float(worst)
    )


def default_binary_generator():
    """Random finite {0,1}-valued classes over a small discrete domain."""
    def gen(rng: np.random.Generator) -> BinaryInstance:
        domain = [float(v) for v in rng.random(5)]
        n_h = int(rng.integers(2, BINARY_MAX_CLASS + 1))
        tables = [
            {x: float(rng.integers(0, 2)) for x in domain} for _ in range(n_h)
        ]
        cls = FiniteClass(
            [(lambda tb: (lambda x: tb[x]))(tb) for tb in tables], binary=True
        )
        j = int(rng.integers(0, BINARY_MAX_ROUNDS + 1))
        tail = int(rng.integers(0, 4))
        pick = lambda: domain[int(rng.integers(0, len(domain)))]
        rounds = [(pick(), float(rng.integers(0, 2))) for _ in range(j)]
        return BinaryInstance(
            cls=cls,
            history=_history([x for x, _ in rounds], [y for _, y in rounds]),
            tail_halluc=tuple(pick() for _ in range(tail)),
            tail_signs=tuple(int(s) for s in rng.integers(0, 2, size=tail) * 2 - 1),
            probe_xs=tuple(domain),
        )

    return gen


# ---------------------------------------------------------------------------
# Regret decomposition
# ---------------------------------------------------------------------------


def check_decomposition(
    game: TinyGame,
    mc_samples: int,
    rng: np.random.Generator,
    inner_mc: int = 32,
    rtilde_scale: float = 1.0,
) -> CheckReport:
    """Side-information regret is at most the initial relaxation plus the
    summed per-slot gaps between the true-law and pool-drawn relaxations.

    Both sides are Monte-Carlo over full game playthroughs; the adversary
    greedily realizes each round's per-draw sup over the y-grid, and each
    relaxation takes `inner_mc` draws. `rtilde_scale` multiplies the
    initial-relaxation term. The greedy adversary realizes only part of that
    term, so a negative control needs a scale that pushes the whole bound
    below the measured regret (e.g. -1.0), not merely below 1.
    """
    cls, loss, M = game.cls, game.loss, game.horizon
    mc_samples = check_count(mc_samples, "mc_samples")
    config, pool, grid = game.setup()

    regrets = np.empty(mc_samples)
    gaps = np.empty(mc_samples)
    gap_ses = np.empty(mc_samples)
    for g in range(mc_samples):
        xs: list = []
        ys: list = []
        preds: list = []
        for j in range(1, M + 1):
            x_j = game.env.sample(rng)
            history = GameHistory(feature_rows(xs + [x_j]), np.array(ys, dtype=float))
            yhat, scores = _grid_round(game, config, pool, grid, history, M - j, rng)
            xs.append(x_j)
            ys.append(float(grid[int(np.argmax(scores))]))
            preds.append(yhat)

        X, Y = _history(xs, ys)
        _, comp = best_in_hindsight(cls, X, Y, loss)
        regrets[g] = sum(loss_eval(loss, yh, y) for y, yh in zip(ys, preds)) - comp

        r0, se0 = relaxation_R(0, (X[:0], Y[:0]), pool, cls, config, inner_mc, rng, true_env=game.env)
        total = rtilde_scale * r0
        var = (rtilde_scale * se0) ** 2
        for j in range(1, M):
            prefix = (X[:j], Y[:j])
            rt, set_ = relaxation_R(j, prefix, pool, cls, config, inner_mc, rng, true_env=game.env)
            rj, sej = relaxation_R(j, prefix, pool, cls, config, inner_mc, rng)
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


def discrepancy_probe(game: TinyGame, mc_samples: int, rng: np.random.Generator) -> CheckReport:
    """Measured gap between true-law and pool-drawn relaxations per slot,
    reported against a sqrt(j/N)-shaped reference curve. No pass/fail.

    Histories are sampled from the game's law with uniform {0,1} labels.
    """
    cls, M = game.cls, game.horizon
    mc_samples = check_count(mc_samples, "mc_samples")
    config, pool, _ = game.setup()
    N = len(pool)
    L = game.loss.lipschitz

    rows = []
    for j in range(1, M):
        rounds = [(game.env.sample(rng), float(rng.integers(0, 2))) for _ in range(j)]
        history = _history([x for x, _ in rounds], [y for _, y in rounds])
        rt, set_ = relaxation_R(j, history, pool, cls, config, mc_samples, rng, true_env=game.env)
        rj, sej = relaxation_R(j, history, pool, cls, config, mc_samples, rng)
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
    reports = []
    rng = np.random.default_rng([seed, 11])
    two = FiniteClass.from_constants([0.0, 1.0])
    game = TinyGame(two, FeatureDistribution.discrete([0.2, 0.8], [0.5, 0.5]), horizon=2, pool_features=[0.2, 0.8])
    reports.append(check_admissibility(game, mc_samples, rng, histories=[([], []), ([0.2], [1.0])]))
    rng = np.random.default_rng([seed, 12])
    reports.append(check_sensitivity(default_sensitivity_generator(), 50, rng))
    rng = np.random.default_rng([seed, 13])
    reports.append(check_fact2(default_binary_generator(), 100, rng))
    rng = np.random.default_rng([seed, 14])
    inner = max(8, mc_samples // 4)
    reports.append(check_decomposition(game, inner, rng, inner_mc=inner))
    rng = np.random.default_rng([seed, 15])
    pool = [float(x) for x in rng.random(16)]
    uniform = TinyGame(two, FeatureDistribution.uniform(), horizon=3, pool_features=pool)
    reports.append(discrepancy_probe(uniform, mc_samples, rng))
    return reports
