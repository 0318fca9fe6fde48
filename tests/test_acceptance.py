"""Acceptance gate: twelve pinned criteria, one PASS/FAIL line each.

Criteria 7, 8, 9, and 11 are multi-seed regret sweeps and dominate the
runtime; they carry the `slow` marker, so `pytest -m "not slow"` skips them
for a quick loop. Everything else finishes in seconds to a couple of minutes.
"""

import math
import time

import numpy as np
import pytest

from relaxplay import (
    ABSOLUTE_LOSS,
    BanditConfig,
    EpochSchedule,
    FeatureDistribution,
    FiniteClass,
    IntervalClass,
    LabeledPair,
    LossFn,
    MixedErmQuery,
    ObliviousAdversary,
    PolicyClass,
    RunConfig,
    ShiftingProcess,
    SignedTerm,
    ThresholdClass,
    TinyGame,
    block_length,
    blocks_straddling_changes,
    check_admissibility,
    check_fact2,
    check_sensitivity,
    default_binary_generator,
    default_sensitivity_generator,
    epoch_length,
    estimate_rademacher,
    fit_exponent,
    mix_q,
    reference_solve,
    run_bandit,
    run_epoch_predictor,
    run_experiment,
    run_shifting,
    waterfill_q,
)
from relaxplay.environment import noisy_target


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name}: {detail}"


def _random_query(rng, n_pairs, n_signed, coefficient, lattice=None):
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


def test_criterion_01_oracle_exactness():
    start = time.time()
    # Features are snapped to a power-of-two lattice aligned with the grid
    # step (and, for intervals, with the interval length) so every breakpoint
    # of the piecewise-constant objective is an exact float on the search
    # grid; with an unaligned lattice, two features closer together than the
    # grid step open a sliver of threshold/interval positions that only the
    # closed-form solver can reach, and the grid-resolution tolerance is
    # unsound there.
    setups = [
        ("threshold", ThresholdClass(), 1.0 / 512, 1.0 / 512),
        ("interval", IntervalClass(gamma_len=0.25), 1.0 / 32, 1.0 / 8),
        (
            "finite",
            FiniteClass.from_constants(
                [float(c) for c in np.random.default_rng(1).random(6)]
            ),
            1.0,
            None,
        ),
    ]
    mismatches = 0
    for idx, (name, cls, grid, lattice) in enumerate(setups):
        rng = np.random.default_rng([31, idx])
        for _ in range(500):
            n_pairs = int(rng.integers(0, 5))
            n_signed = int(rng.integers(0, 4))
            if n_pairs == 0 and n_signed == 0:
                n_pairs = 1
            C = float(rng.uniform(0, 3))
            query = _random_query(rng, n_pairs, n_signed, C, lattice)
            exact = cls.solve(query).objective
            ref = reference_solve(cls, query, grid).objective
            tol = grid * query.loss.lipschitz * (n_pairs + C * n_signed)
            if not (exact <= ref + 1e-9 and ref <= exact + tol + 1e-9):
                mismatches += 1
    elapsed = time.time() - start
    _verdict(
        "criterion 01 (oracle exactness)",
        mismatches == 0 and elapsed < 60.0,
        f"3x500 queries, {mismatches} mismatches, {elapsed:.1f}s",
    )


def _criterion2_run(adversary, loss=ABSOLUTE_LOSS):
    return run_epoch_predictor(
        EpochSchedule("polynomial", alpha=1.0),
        ThresholdClass(),
        loss,
        FeatureDistribution.uniform(),
        adversary,
        512,
        RunConfig(seed=0),
    )


def test_criterion_02_erm_call_budget():
    labels = noisy_target(lambda x: float(x >= 0.5), 0.1)
    # every absolute-loss game takes the 2-call route, a bare adversary's too
    fast_ok = all(
        all(c == 2 for c in _criterion2_run(adversary).column("erm_calls"))
        for adversary in (labels, ObliviousAdversary(labels.fn))
    )

    # a custom loss is the one game route left on predict_general's label grid
    custom = LossFn("custom", lipschitz=1.0, evaluator=lambda p, y: abs(p - y))
    general = _criterion2_run(ObliviousAdversary(labels.fn), custom)
    sched = EpochSchedule("polynomial", alpha=1.0)
    general_ok, excess = True, []
    for n, calls in zip(general.column("epoch"), general.column("erm_calls")):
        budget = math.ceil(math.sqrt(epoch_length(sched, n))) + 2
        excess.append(calls - budget)
        general_ok = general_ok and calls <= budget
    _verdict(
        "criterion 02 (ERM-call budget)",
        fast_ok and general_ok,
        f"2-call route == 2 on all 512 rounds: {fast_ok}; "
        f"grid route within ceil(sqrt(M))+2 ({sum(general.column('erm_calls'))} calls, worst excess {max(excess)})",
    )


def _admissibility_scenarios():
    """(game, histories) pairs of criterion 03's two fixtures."""
    two = TinyGame(
        cls=FiniteClass.from_constants([0.0, 1.0]),
        env=FeatureDistribution.discrete([0.2, 0.8], [0.5, 0.5]),
        horizon=2,
        pool_features=[0.2, 0.8],
    )
    thresholds = [0.1, 0.3, 0.45, 0.6, 0.8, 0.95]
    six = TinyGame(
        cls=FiniteClass(
            [(lambda a: (lambda x: 1.0 if x >= a else 0.0))(a) for a in thresholds],
            binary=True,
        ),
        env=FeatureDistribution.discrete([0.2, 0.4, 0.6, 0.9], [0.25] * 4),
        horizon=3,
        pool_features=[0.2, 0.4, 0.6, 0.9],
    )
    return [
        (two, (([], []), ([0.2], [1.0]))),
        (six, (([], []), ([0.4], [1.0]), ([0.4, 0.9], [1.0, 0.0]))),
    ]


def test_criterion_03_admissibility():
    start = time.time()
    rng = np.random.default_rng(33)
    scenarios = _admissibility_scenarios()
    reports = [
        check_admissibility(game, 2000, rng, histories=h) for game, h in scenarios
    ]
    clean_ok = all(r.passed for r in reports)
    game, histories = scenarios[0]
    corrupted = check_admissibility(game, 2000, rng, histories=histories, predict_offset=0.45)
    elapsed = time.time() - start
    _verdict(
        "criterion 03 (admissibility + negative control)",
        clean_ok and corrupted.passed is False and elapsed < 300.0,
        f"clean fixtures pass: {clean_ok}; corrupted control fails: "
        f"{corrupted.passed is False}; {elapsed:.1f}s",
    )


def test_criterion_04_playout_sensitivity():
    import dataclasses

    base = default_sensitivity_generator()
    probe_grid = tuple(float(v) for v in np.arange(0.0, 1.0001, 0.02))

    def gen(rng):
        return dataclasses.replace(base(rng), probe_xs=probe_grid)

    rep = check_sensitivity(gen, 200, np.random.default_rng(34))
    _verdict(
        "criterion 04 (playout sensitivity bounds)",
        rep.passed is True,
        f"200 instances with full probe grids, worst margin {rep.worst_margin:+.3g}",
    )


def test_criterion_05_binary_playout_structure():
    rep = check_fact2(default_binary_generator(), 1000, np.random.default_rng(35))
    _verdict(
        "criterion 05 (binary playout structure)",
        rep.passed is True,
        f"1000 instances, worst mismatch {rep.worst_margin:.3g}",
    )


def test_criterion_06_rademacher_estimator():
    cls = FiniteClass.from_constants([0.0, 1.0])
    small, _ = estimate_rademacher(
        cls, [0.3, 0.7], 0, np.random.default_rng(0), exhaustive=True
    )
    exact_small = small == pytest.approx(0.5)

    # sup_h sum eps_t h = max(0, S_T);  E max(0, S_T) = (1/2) E|S_T| with
    # S_T = 2B - T, B ~ Binomial(T, 1/2), computed exactly from binomial sums
    T = 100
    e_abs = sum(
        math.comb(T, k) * 0.5**T * abs(2 * k - T) for k in range(T + 1)
    )
    target = 0.5 * e_abs
    mc, se = estimate_rademacher(
        cls, [0.5] * T, 4000, np.random.default_rng(36)
    )
    within = abs(mc - target) <= 3 * se
    _verdict(
        "criterion 06 (Rademacher estimator)",
        exact_small and within,
        f"T=2 exhaustive {small:.3f} (want 0.500); "
        f"T=100 MC {mc:.3f} vs exact {target:.3f} (3 stderr = {3*se:.3f})",
    )


ONLINE_SWEEP = {
    "mode": "online",
    "seeds": list(range(20)),
    "horizons": [512, 1024, 2048, 4096],
    "class": {"kind": "threshold"},
    "env": {"kind": "uniform"},
    "adversary": {"name": "noisy_target", "target_threshold": 0.5, "p": 0.1},
    "schedule": {"kind": "polynomial", "q": 0.5},
}


@pytest.mark.slow
def test_criterion_07_online_regret_growth():
    start = time.time()
    summary = run_experiment(dict(ONLINE_SWEEP))
    means = [(p["T"], p["mean_regret"]) for p in summary["per_horizon"]]
    slope = summary["exponent_fit"]["slope"]
    sublinear = all(
        b / 2 < a for (_, a), (_, b) in zip(means, means[1:])
    )
    elapsed = time.time() - start
    _verdict(
        "criterion 07 (online regret growth)",
        slope <= 0.85 and sublinear and elapsed < 1800.0,
        f"slope {slope:.4f} (gate 0.85), sublinear at every doubling: "
        f"{sublinear}, means {[(T, round(r, 1)) for T, r in means]}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_08_adaptive_adversary():
    cfg = dict(
        ONLINE_SWEEP,
        adversary={"name": "flip_to_far"},
        probe_mc=2,
    )
    summary = run_experiment(cfg)
    slope = summary["exponent_fit"]["slope"]
    note = " (report-only zone 0.85-0.95)" if 0.85 < slope <= 0.95 else ""
    _verdict(
        "criterion 08 (adaptive adversary sanity)",
        slope <= 0.95,
        f"slope {slope:.4f} (gate 0.95){note}",
    )


@pytest.mark.slow
def test_criterion_09_shifting():
    K = 2
    horizons = [1024, 2048, 4096, 8192]
    means = []
    straddle_ok = True
    for T in horizons:
        cps = [int(0.4 * T), int(0.7 * T)]
        proc = ShiftingProcess(
            [
                (FeatureDistribution.point_mass(0.2), 1),
                (FeatureDistribution.point_mass(0.8), cps[0]),
                (FeatureDistribution.point_mass(0.4), cps[1]),
            ]
        )
        B = block_length(T, K)
        straddle_ok = straddle_ok and (
            blocks_straddling_changes(T, B, proc.change_points) <= K
        )
        finals = []
        for seed in range(8):
            trace = run_shifting(
                ThresholdClass(),
                ABSOLUTE_LOSS,
                proc,
                noisy_target(lambda x: float(x >= 0.5), 0.1),
                T,
                K,
                EpochSchedule("polynomial", alpha=1.0),
                RunConfig(seed=seed),
            )
            finals.append(trace.final_regret)
        means.append(float(np.mean(finals)))
    fit = fit_exponent(horizons, means)
    slope = None if fit is None else fit.slope
    _verdict(
        "criterion 09 (shifting blocks)",
        straddle_ok and slope is not None and slope <= 0.95,
        f"straddling blocks <= K: {straddle_ok}; slope "
        f"{'n/a' if slope is None else f'{slope:.4f}'} (gate 0.95), "
        f"means {[round(m, 1) for m in means]}",
    )


def _bandit_policies():
    # the two threshold policies sit near the edge of the feature range so
    # that any policy disagreeing with the comparator at a typical context
    # carries close to the full accumulated estimated cost, keeping the
    # learner's arm-preference signal strong
    return PolicyClass(
        [lambda x: 0, lambda x: 1, lambda x: int(x >= 0.9), lambda x: int(x < 0.9)],
        num_arms=2,
    )


def test_criterion_10_bandit_minimax_pieces():
    rng = np.random.default_rng(40)

    # water-filling vs uniform grid search, K = 2 (1e-6 grid -> 1e-6 agreement)
    grid2 = np.arange(0.0, 1.0 + 1e-12, 1e-6)
    worst2 = 0.0
    for _ in range(200):
        b = rng.uniform(-1.5, 2.0, size=2)
        _, g = waterfill_q(b)
        bp = np.maximum(b, 0.0)
        gg = np.min(np.maximum(0.0, grid2 - bp[0]) + np.maximum(0.0, 1.0 - grid2 - bp[1]))
        worst2 = max(worst2, abs(g - gg))
    k2_ok = worst2 <= 1e-6

    # K = 3: coarse simplex grid then local refinement around the argmin
    def grid_min3(b, centers=None, step=0.005, radius=None):
        # Row a of the grid holds the points np.arange(lo1, hi1[a], step), a
        # prefix of q1; rows are scored 256 at a time to bound memory, and the
        # first minimum in row order wins.
        bp = np.maximum(b, 0.0)
        if centers is None:
            q0 = np.arange(0.0, 1.0 + 1e-12, step)
            lo1, hi1 = 0.0, 1.0 - q0 + 1e-12
        else:
            q0 = np.arange(
                max(0.0, centers[0] - radius), min(1.0, centers[0] + radius) + 1e-12, step
            )
            lo1 = max(0.0, centers[1] - radius)
            hi1 = np.minimum(1.0 - q0, centers[1] + radius) + 1e-12
        counts = np.maximum(np.ceil((hi1 - lo1) / step), 0.0).astype(np.intp)
        q1 = np.arange(lo1, hi1.max(), step)
        t1 = np.maximum(0.0, q1 - bp[1])
        best, arg = np.inf, None
        for s in range(0, q0.size, 256):
            a, n = q0[s : s + 256], counts[s : s + 256]
            w = n.max()
            if w <= 0:
                continue
            vals = np.maximum(0.0, (1.0 - a)[:, None] - q1[:w] - bp[2])
            vals += np.maximum(0.0, a - bp[0])[:, None] + t1[:w]
            vals[np.arange(w) >= n[:, None]] = np.inf
            i, k = np.unravel_index(np.argmin(vals), vals.shape)
            if vals[i, k] < best:
                best, arg = float(vals[i, k]), (float(a[i]), float(q1[k]))
        return best, arg

    worst3 = 0.0
    for _ in range(200):
        b = rng.uniform(-1.5, 2.0, size=3)
        _, g = waterfill_q(b)
        coarse, arg = grid_min3(b)
        fine, _ = grid_min3(b, centers=arg, step=1e-5, radius=0.02)
        worst3 = max(worst3, abs(g - fine))
    k3_ok = worst3 <= 1e-4

    # unbiasedness of the cost estimator, 1e5 replays per arm
    from relaxplay import estimate_cost

    gamma, q = 0.1, np.array([0.35, 0.65])
    unbiased_ok = True
    details = []
    for arm, c in ((0, 0.6), (1, 0.3)):
        n = 100_000
        total = sum(
            estimate_cost(arm, c, q, gamma, rng) for _ in range(n)
        )
        p = gamma * c / q[arm]
        sigma = math.sqrt(p * (1 - p)) / gamma / math.sqrt(n)
        err = abs(total / n - c / q[arm])
        unbiased_ok = unbiased_ok and err <= 3 * sigma
        details.append(f"arm{arm} err {err:.4f} (3 sigma {3*sigma:.4f})")

    # exploration floor q_t >= gamma on every round of a T = 512 run
    trace = run_bandit(
        _bandit_policies(),
        FeatureDistribution.uniform(),
        lambda t, x, h: np.array([0.0, 1.0]),
        512,
        BanditConfig(seed=0),
    )
    gamma_run = trace.metadata["gamma"]
    floor_ok = all(qm >= gamma_run - 1e-12 for qm in trace.column("q_min"))

    _verdict(
        "criterion 10 (bandit minimax pieces)",
        k2_ok and k3_ok and unbiased_ok and floor_ok,
        f"waterfill worst gap K=2 {worst2:.2e} (1e-6), K=3 {worst3:.2e} (1e-4); "
        f"{'; '.join(details)}; floor on 512 rounds: {floor_ok}",
    )


@pytest.mark.slow
def test_criterion_11_bandit_regret_growth():
    horizons = [512, 1024, 2048, 4096]
    env = FeatureDistribution.uniform()
    costs = lambda t, x, h: np.array([0.0, 1.0])
    means = []
    for T in horizons:
        finals = [
            run_bandit(_bandit_policies(), env, costs, T, BanditConfig(seed=s)).final_regret
            for s in range(20)
        ]
        means.append(float(np.mean(finals)))
    fit = fit_exponent(horizons, means)
    slope = fit.slope
    # the uniform-random policy pays 0.5 per round against a 0-cost comparator
    uniform_regret = 0.5 * horizons[-1]
    improvement = 1.0 - means[-1] / uniform_regret
    _verdict(
        "criterion 11 (bandit regret growth)",
        slope <= 0.95 and improvement >= 0.25,
        f"slope {slope:.4f} (gate 0.95); final mean regret {means[-1]:.1f} is "
        f"{improvement:.1%} below uniform ({uniform_regret:.0f}); gate 25%",
    )


def test_criterion_12_determinism(tmp_path):
    configs = [
        dict(ONLINE_SWEEP, seeds=[0], horizons=[64]),
        {
            "mode": "bandit",
            "seeds": [0],
            "horizons": [64],
            "policies": {"kind": "mixed", "K": 2, "arms": [0, 1], "thresholds": [0.5]},
            "env": {"kind": "uniform"},
            "costs": {"name": "constant", "values": [0.0, 1.0]},
        },
    ]
    ok = True
    for i, cfg in enumerate(configs):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        run_experiment(dict(cfg), out_dir=str(a))
        run_experiment(dict(cfg), out_dir=str(b))
        names = sorted(p.name for p in a.glob("*.csv"))
        ok = ok and names == sorted(p.name for p in b.glob("*.csv")) and bool(names)
        for name in names:
            ok = ok and (a / name).read_bytes() == (b / name).read_bytes()
    _verdict(
        "criterion 12 (byte-identical reruns)",
        ok,
        "online and bandit configs re-emit identical CSVs",
    )
