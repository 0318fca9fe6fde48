"""Experiment configuration, seed sweeps, trace serialization, exponent fits.

Configs are plain JSON dicts resolved against small catalogs of classes,
environments, adversaries, and schedules. Every run writes one CSV per
(horizon, seed) plus a JSON summary; reruns of the same config are
byte-identical. Config errors carry the offending field path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import environment as envmod
from .bandit import BanditConfig, PolicyClass, run_bandit
from .core import ABSOLUTE_LOSS, ConfigError, LossFn, check_count, check_seed
from .environment import FeatureDistribution, ShiftingProcess
from .epochs import EpochSchedule, RunConfig, alpha_from_q, epoch_traces
from .oracles import FiniteClass, IntervalClass, LipschitzClass, ThresholdClass
from .shifting import run_shifting
from .traces import RegretTrace
from .verify import estimate_rademacher, standard_checks

MODES = ("online", "shifting", "bandit", "verify", "rademacher")
# trace metadata the summary carries per horizon, one value per seed: rounds
# whose hallucination draw the pool cut short, epoch-length rounding drift,
# and the oracle calls of an adaptive adversary's probes
TRACE_DIAGNOSTICS = ("halluc_shortfall", "rounding_drift", "probe_erm_calls")


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _get(d: dict, key: str, path: str, default=_fail):
    """Field `key` of the object `d` at `path`, or `default`; a missing required
    field, or a `d` that is not an object, is a ConfigError under its path."""
    if not isinstance(d, dict):
        _fail(path, f"must be an object, got {d!r}")
    if key not in d:
        if default is _fail:
            _fail(f"{path}.{key}", "missing required field")
        return default
    return d[key]


def _check_real(value, where: str) -> float:
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and math.isfinite(value)):
        _fail(where, f"must be a finite number, got {value!r}")
    return float(value)


def _real(d: dict, key: str, path: str, default=_fail) -> float:
    """Field `key` as a float if it is a finite number (not a bool or string); else ConfigError under its path."""
    return _check_real(_get(d, key, path, default), f"{path}.{key}")


def _list(d: dict, key: str, path: str, items: str, default=_fail) -> list:
    """Field `key` if it is a list (or tuple) of `items`; else ConfigError under its path."""
    values = _get(d, key, path, default)
    if not isinstance(values, (list, tuple)):
        _fail(f"{path}.{key}", f"must be a list of {items}, got {values!r}")
    return values


def _reals(d: dict, key: str, path: str, default=_fail) -> list[float]:
    """Field `key` as a list of floats, each checked as `_real` checks one, under `path.key[i]`."""
    values = _list(d, key, path, "numbers", default)
    return [_check_real(v, f"{path}.{key}[{i}]") for i, v in enumerate(values)]


def _plain_scalar(value):
    """A numpy scalar as the Python number it holds, for `json.dumps`."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=_plain_scalar)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Catalog resolution
# ---------------------------------------------------------------------------


def build_class(spec: dict, path: str = "class"):
    kind = _get(spec, "kind", path)
    if kind == "threshold":
        return ThresholdClass()
    if kind == "interval":
        return IntervalClass(gamma_len=_real(spec, "gamma_len", path, 0.1))
    if kind == "finite_constants":
        return FiniteClass.from_constants(_reals(spec, "values", path))
    if kind == "finite_thresholds":
        ths = _reals(spec, "thresholds", path)
        return FiniteClass(
            [(lambda a: (lambda x: 1.0 if x >= a else 0.0))(a) for a in ths], binary=True
        )
    if kind == "lipschitz":
        return LipschitzClass()
    _fail(f"{path}.kind", f"unknown class kind {kind!r}")


def build_distribution(spec: dict, path: str) -> FeatureDistribution:
    kind = _get(spec, "kind", path)
    if kind == "uniform":
        return FeatureDistribution.uniform(_real(spec, "low", path, 0.0), _real(spec, "high", path, 1.0))
    if kind == "discrete":
        return FeatureDistribution.discrete(_reals(spec, "points", path), _reals(spec, "probs", path))
    if kind == "point_mass":
        return FeatureDistribution.point_mass(_real(spec, "x", path))
    _fail(f"{path}.kind", f"unknown distribution kind {kind!r}")


def build_env(spec: dict, path: str = "env"):
    if _get(spec, "kind", path) == "shifting":
        segments = []
        for i, seg in enumerate(_list(spec, "segments", path, "segments")):
            where = f"{path}.segments[{i}]"
            segments.append(
                (
                    build_distribution(_get(seg, "dist", where), f"{where}.dist"),
                    check_count(_get(seg, "start", where), f"{where}.start"),
                )
            )
        return ShiftingProcess(segments)
    return build_distribution(spec, path)


def build_adversary(spec: dict, path: str = "adversary"):
    name = _get(spec, "name", path)
    catalog = envmod.builtin_adversaries()
    if not isinstance(name, str) or name not in catalog:
        _fail(f"{path}.name", f"unknown adversary {name!r} (have {sorted(catalog)})")
    if name == "noisy_target":
        a = _real(spec, "target_threshold", path, 0.5)
        return envmod.noisy_target(lambda x: 1.0 if x >= a else 0.0, _real(spec, "p", path, 0.1))
    if name == "flip_to_far":
        return envmod.flip_to_far()
    if name == "comparator_squeeze":
        cls_spec = _get(spec, "class", path)
        return envmod.comparator_squeeze(lambda: build_class(cls_spec, f"{path}.class"))
    if name == "constant":
        return envmod.constant(_real(spec, "value", path))
    values = _reals(spec, "values", path)
    try:
        return envmod.periodic(values)
    except ConfigError as e:
        _fail(f"{path}.values", str(e))


def build_schedule(spec: dict, path: str = "schedule") -> EpochSchedule:
    kind = _get(spec, "kind", path, "polynomial")
    if kind == "polynomial":
        if "q" in spec:
            alpha = alpha_from_q(_real(spec, "q", path))
        else:
            alpha = _real(spec, "alpha", path, 1.0)
        return EpochSchedule(kind="polynomial", alpha=alpha)
    if kind == "geometric":
        return EpochSchedule(kind="geometric", ratio=_real(spec, "ratio", path, 1.5))
    if kind == "fixed":
        return EpochSchedule(kind="fixed", block=check_count(_get(spec, "block", path), f"{path}.block"))
    _fail(f"{path}.kind", f"unknown schedule kind {kind!r}")


def build_loss(spec: Optional[dict], path: str = "loss") -> LossFn:
    if spec is None or _get(spec, "kind", path, "absolute") == "absolute":
        return ABSOLUTE_LOSS
    _fail(f"{path}.kind", "only the absolute loss is available from config files")


def build_policies(spec: dict, path: str = "policies") -> PolicyClass:
    kind = _get(spec, "kind", path)
    K = check_count(_get(spec, "K", path, 2), f"{path}.K")
    if kind == "constant":
        arms = [check_seed(a, f"{path}.arms[{i}]") for i, a in enumerate(_list(spec, "arms", path, "arms"))]
        return PolicyClass([(lambda a: (lambda x: a))(a) for a in arms], K)
    if kind == "threshold_arm":
        ths = _reals(spec, "thresholds", path)
        return PolicyClass(
            [(lambda a: (lambda x: 1 if x >= a else 0))(a) for a in ths], K
        )
    if kind == "mixed":
        policies = []
        for i, a in enumerate(_list(spec, "arms", path, "arms", [])):
            policies.append((lambda c: (lambda x: c))(check_seed(a, f"{path}.arms[{i}]")))
        for a in _reals(spec, "thresholds", path, []):
            policies.append((lambda c: (lambda x: 1 if x >= c else 0))(a))
        return PolicyClass(policies, K)
    _fail(f"{path}.kind", f"unknown policy kind {kind!r}")


def build_costs(spec: dict, path: str = "costs") -> Callable:
    name = _get(spec, "name", path)
    if name == "constant":
        values = np.asarray(_reals(spec, "values", path))
        return lambda t, x, history: values
    if name == "feature_gap":
        # cheaper arm depends on the feature side; keeps a constant gap
        gap = _real(spec, "gap", path, 0.5)
        lo, hi = 0.5 - gap / 2.0, 0.5 + gap / 2.0

        def costs(t, x, history):
            if float(np.atleast_1d(x)[0]) >= 0.5:
                return np.array([hi, lo])
            return np.array([lo, hi])

        return costs
    _fail(f"{path}.name", f"unknown cost adversary {name!r}")


# ---------------------------------------------------------------------------
# Exponent fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    horizons: tuple
    regrets: tuple
    slope: float
    intercept: float
    residual: float


def fit_exponent(horizons: Sequence[int], regrets: Sequence[float]) -> Optional[ExponentFit]:
    """OLS slope of log(regret) against log(T); None (with the reason left to
    the caller's notice) when any regret is nonpositive."""
    horizons = tuple(int(h) for h in horizons)
    if len(horizons) < 3:
        raise ConfigError("exponent fit needs at least 3 horizons")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ConfigError("horizons must be strictly increasing")
    if any(r <= 0 for r in regrets):
        return None
    lx = np.log(np.asarray(horizons, dtype=float))
    ly = np.log(np.asarray(regrets, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return ExponentFit(horizons, tuple(float(r) for r in regrets), float(slope), float(intercept), residual)


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------


def _resolve_common(config: dict):
    mode = _get(config, "mode", "config")
    if mode not in MODES:
        _fail("config.mode", f"unknown mode {mode!r} (have {MODES})")
    seeds = _list(config, "seeds", "config", "seeds", [0])
    seeds = [check_seed(s, f"config.seeds[{i}]") for i, s in enumerate(seeds)]
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            _fail(f"config.seeds[{i}]", f"repeats seed {seed}; each seed plays once")
    if not seeds:
        _fail("config.seeds", "need at least one seed")
    return mode, seeds


def _full_information_game(config: dict, seed: int):
    """The class, loss, env, adversary, schedule and run config of an online
    or shifting config, as fresh instances."""
    cls = build_class(_get(config, "class", "config"))
    loss = build_loss(config.get("loss"))
    env = build_env(_get(config, "env", "config"))
    adversary = build_adversary(_get(config, "adversary", "config"))
    schedule = build_schedule(config.get("schedule", {}))
    rconf = RunConfig(seed=seed, probe_mc=check_count(config.get("probe_mc", 64), "config.probe_mc"))
    return cls, loss, env, adversary, schedule, rconf


def run_traces(config: dict, horizons: Sequence[int], seed: int):
    """Fresh traces for (config, seed), one per horizon of the increasing
    `horizons`, yielded one at a time; fresh oracle instances.

    An online sweep plays one game of max(horizons) rounds and cuts each
    horizon's trace from its first T rounds (`epochs.epoch_traces`). A
    shifting sweep plays one game per horizon, because its block length B
    depends on T, and so does a bandit sweep, because γ is set from T.
    """
    mode = config["mode"]
    if mode not in ("bandit", "shifting"):
        cls, loss, env, adversary, schedule, rconf = _full_information_game(config, seed)
        yield from epoch_traces(schedule, cls, loss, env, adversary, horizons, rconf)
        return
    for T in horizons:
        if mode == "bandit":
            policies = build_policies(_get(config, "policies", "config"))
            env = build_env(_get(config, "env", "config"))
            costs = build_costs(_get(config, "costs", "config"))
            gamma = config.get("gamma")  # None: gamma_default
            bconf = BanditConfig(gamma=None if gamma is None else _check_real(gamma, "config.gamma"), seed=seed)
            yield run_bandit(policies, env, costs, T, bconf)
        else:
            cls, loss, env, adversary, schedule, rconf = _full_information_game(config, seed)
            K = check_count(_get(config, "K", "config"), "config.K")
            yield run_shifting(cls, loss, env, adversary, T, K, schedule, rconf)


def run_one_trace(config: dict, T: int, seed: int) -> RegretTrace:
    """One fresh trace for (config, horizon, seed): the one-horizon case of `run_traces`."""
    (trace,) = run_traces(config, [T], seed)
    return trace


def _erm_calls_of(trace: RegretTrace) -> int:
    return int(sum(trace.column("erm_calls"))) if "erm_calls" in trace.columns else 0


def run_experiment(config: dict, out_dir: Optional[str] = None) -> dict:
    """Execute the configured mode for every (horizon, seed) pair.

    Seeds run one after another, and each seed's traces are built and
    written one horizon at a time (`run_traces`): an online sweep plays one
    game per seed, of the longest horizon, and cuts the shorter horizons'
    traces from its first rounds, with the bytes playing each (horizon,
    seed) alone gives.

    Returns the summary dict; when `out_dir` (or config["out"]) is set, also
    writes one CSV per trace plus summary.json. Partial outputs are removed
    if any trace fails.
    """
    mode, seeds = _resolve_common(config)
    out = out_dir or config.get("out")
    if out and not isinstance(out, (str, os.PathLike)):
        _fail("config.out", f"must be a directory path, got {out!r}")
    chash = config_hash(config)
    summary = {
        "config_hash": chash,
        "mode": mode,
        "seeds": seeds,
        "mean_regret": None,
        "std_regret": None,
        "erm_calls_total": None,
    }
    written: list = []

    try:
        if mode == "verify":
            mc = check_count(config.get("mc_samples", 64), "config.mc_samples")
            reports = standard_checks(seed=seeds[0], mc_samples=mc)
            summary["checks"] = [
                {key: getattr(r, key) for key in ("name", "passed", "instances", "worst_margin", "stderr")}
                for r in reports
            ]
            summary["failed"] = [r.name for r in reports if r.passed is False]
        elif mode == "rademacher":
            T = check_count(_get(config, "T", "config"), "config.T")
            cls_spec = _get(config, "class", "config")
            # the estimate samples one fixed distribution, so a shifting env is a config error
            env = build_distribution(_get(config, "env", "config"), "env")
            mc = check_count(config.get("mc_samples", 256), "config.mc_samples")
            means = []
            for seed in seeds:
                rng = np.random.default_rng([seed, 21])
                feats = [env.sample(rng) for _ in range(T)]
                mean, _ = estimate_rademacher(build_class(cls_spec), feats, mc, rng)
                means.append(mean)
            summary.update(rademacher_mean=float(np.mean(means)), rademacher_std=float(np.std(means)), T=T)
        else:
            if config.get("horizons"):
                horizons = _list(config, "horizons", "config", "horizons")
                horizons = [check_count(h, f"config.horizons[{i}]") for i, h in enumerate(horizons)]
            else:
                horizons = [check_count(_get(config, "T", "config"), "config.T")]
            if any(b <= a for a, b in zip(horizons, horizons[1:])):
                _fail("config.horizons", "must be strictly increasing")
            finals = {T: [] for T in horizons}
            diagnostics = {T: {key: [] for key in TRACE_DIAGNOSTICS} for T in horizons}
            erm_total = 0
            for seed in seeds:
                for T, trace in zip(horizons, run_traces(config, horizons, seed)):
                    trace.metadata["config_hash"] = chash
                    finals[T].append(trace.final_regret)
                    for key, values in diagnostics[T].items():
                        if key in trace.metadata:
                            values.append(trace.metadata[key])
                    erm_total += _erm_calls_of(trace)
                    if out:
                        os.makedirs(out, exist_ok=True)
                        path = os.path.join(out, f"{mode}_T{T}_seed{seed}_{chash}.csv")
                        trace.to_csv(path)
                        written.append(path)
            per_horizon = [
                {
                    "T": T,
                    "mean_regret": float(np.mean(finals[T])),
                    "std_regret": float(np.std(finals[T])),
                    **{key: values for key, values in diagnostics[T].items() if values},
                }
                for T in horizons
            ]
            summary.update(
                mean_regret=per_horizon[-1]["mean_regret"],
                std_regret=per_horizon[-1]["std_regret"],
                erm_calls_total=erm_total,
                per_horizon=per_horizon,
            )
            if len(horizons) >= 3:
                fit = fit_exponent(horizons, [p["mean_regret"] for p in per_horizon])
                if fit is None:
                    summary["exponent_fit"] = {"skipped": "nonpositive mean regret"}
                else:
                    summary["exponent_fit"] = {
                        "horizons": list(fit.horizons),
                        "regrets": list(fit.regrets),
                        "slope": fit.slope,
                        "intercept": fit.intercept,
                        "residual": fit.residual,
                    }
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise

    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"summary_{mode}_{chash}.json")
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary
