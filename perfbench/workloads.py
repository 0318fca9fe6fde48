"""The four benchmark workloads, shaped after acceptance criteria 07, 08, 09 and 11.

A workload runs in passes. One pass plays every horizon of the workload for
one trace seed through relaxplay's public runners and returns one `Played`
record per (horizon, seed) trace. Each workload names its runner module by
attribute at call time, so a tracer installed around a pass sees the calls.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from relaxplay import bandit, environment, harness, shifting
from relaxplay.bandit import BanditConfig, PolicyClass
from relaxplay.core import ABSOLUTE_LOSS
from relaxplay.environment import FeatureDistribution, ShiftingProcess
from relaxplay.epochs import EpochSchedule, RunConfig
from relaxplay.oracles import IntervalClass
from relaxplay.traces import RegretTrace

ONLINE_CONFIG = {
    "mode": "online",
    "class": {"kind": "threshold"},
    "env": {"kind": "uniform"},
    "adversary": {"name": "noisy_target", "target_threshold": 0.5, "p": 0.1},
    "schedule": {"kind": "polynomial", "q": 0.5},
}
ADAPTIVE_CONFIG = dict(ONLINE_CONFIG, adversary={"name": "flip_to_far"}, probe_mc=2)


def harness_objects(config: dict, seed: int):
    """The objects `harness.run_one_trace` builds from a full-information config."""
    return (
        harness.build_class(config["class"]),
        harness.build_env(config["env"]),
        harness.build_adversary(config["adversary"]),
        harness.build_schedule(config["schedule"]),
        RunConfig(seed=seed, probe_mc=config.get("probe_mc", 64)),
    )


@dataclass
class Played:
    """One trace of a pass: either the trace object or the CSV the runner wrote."""

    T: int
    seed: int
    trace: Optional[RegretTrace] = None
    csv_path: Optional[str] = None
    erm_calls: Optional[int] = None  # set where the trace has no erm_calls column


class Workload:
    name = ""
    horizons: tuple = ()
    seeds_per_run = 1  # trace seeds averaged into mean_final_regret

    def trace_seeds(self, seed: int) -> list:
        return [1000 * seed + i for i in range(self.seeds_per_run)]

    def build(self, T: int, seed: int):
        """The class, env, adversary and config objects of one trace."""
        raise NotImplementedError

    def play(self, seed: int, out_dir: str) -> list:
        raise NotImplementedError

    def check(self, played: Played, trace: RegretTrace) -> int:
        """Check one trace as read back from its CSV; return its rounds' own ERM calls.

        The three full-information workloads run the 2-call fast path
        (binary class, absolute loss, {0,1} labels).
        """
        trace.check_prefix_sums()
        calls = trace.column("erm_calls")
        if any(c != 2 for c in calls):
            raise AssertionError(f"fast path made {sorted(set(calls))} ERM calls per round, not 2")
        return sum(calls)


class Online(Workload):
    name = "online"
    horizons = (256, 512, 1024)
    seeds_per_run = 12

    def config(self, seed: int) -> dict:
        return dict(ONLINE_CONFIG, seeds=[seed], horizons=list(self.horizons))

    def build(self, T, seed):
        return harness_objects(ONLINE_CONFIG, seed)

    def play(self, seed, out_dir):
        harness.run_experiment(self.config(seed), out_dir=out_dir)
        played = []
        for T in self.horizons:
            paths = glob.glob(os.path.join(out_dir, f"online_T{T}_seed{seed}_*.csv"))
            if len(paths) != 1:
                raise RuntimeError(f"expected one CSV for T={T} seed={seed}, found {len(paths)}")
            played.append(Played(T, seed, csv_path=paths[0]))
        return played


class Adaptive(Workload):
    name = "adaptive"
    horizons = (256, 512)
    seeds_per_run = 20  # final regret varies about 11% from seed to seed

    def build(self, T, seed):
        return harness_objects(ADAPTIVE_CONFIG, seed)

    def play(self, seed, out_dir):
        return [Played(T, seed, trace=harness.run_one_trace(ADAPTIVE_CONFIG, T, seed)) for T in self.horizons]


class Shifting(Workload):
    name = "shifting"
    horizons = (128, 256)
    seeds_per_run = 8
    K = 2

    def build(self, T, seed):
        # Uniform segments rather than criterion 09's point masses: point
        # masses collapse every query to at most 3 distinct features.
        process = ShiftingProcess(
            [
                (FeatureDistribution.uniform(0.0, 0.6), 1),
                (FeatureDistribution.uniform(0.4, 1.0), int(0.4 * T)),
                (FeatureDistribution.uniform(0.2, 0.8), int(0.7 * T)),
            ]
        )
        adversary = environment.noisy_target(lambda x: float(x >= 0.5), 0.1)
        return (
            IntervalClass(gamma_len=0.25),
            process,
            adversary,
            EpochSchedule("polynomial", alpha=1.0),
            RunConfig(seed=seed),
        )

    def play(self, seed, out_dir):
        played = []
        for T in self.horizons:
            cls, process, adversary, schedule, config = self.build(T, seed)
            trace = shifting.run_shifting(cls, ABSOLUTE_LOSS, process, adversary, T, self.K, schedule, config)
            played.append(Played(T, seed, trace=trace))
        return played


def _costs(t, x, history):
    return np.array([0.0, 1.0])


class Bandit(Workload):
    name = "bandit"
    horizons = (256, 512, 1024)
    seeds_per_run = 8

    def build(self, T, seed):
        # The harness "mixed" policy kind cannot express x < .9, so the
        # criterion-11 table is built directly.
        policies = PolicyClass(
            [lambda x: 0, lambda x: 1, lambda x: int(x >= 0.9), lambda x: int(x < 0.9)],
            num_arms=2,
        )
        return policies, FeatureDistribution.uniform(), _costs, BanditConfig(seed=seed)

    def play(self, seed, out_dir):
        played = []
        for T in self.horizons:
            policies, env, costs, config = self.build(T, seed)
            trace = bandit.run_bandit(policies, env, costs, T, config)
            # the comparator solves on a clone, so these are the rounds' own calls
            played.append(Played(T, seed, trace=trace, erm_calls=policies.solve_calls))
        return played

    def check(self, played, trace):
        # Policy 0 plays the 0-cost arm every round, so the comparator's
        # cumulative cost is 0 and cum_regret is the prefix sum of expected_loss.
        trace.check_prefix_sums("expected_loss", "cum_regret")
        gamma = played.trace.metadata["gamma"]
        if min(trace.column("q_min")) < gamma:
            raise AssertionError(f"q_min fell below gamma={gamma!r}")
        return played.erm_calls


WORKLOADS = {w.name: w for w in (Online(), Adaptive(), Shifting(), Bandit())}
