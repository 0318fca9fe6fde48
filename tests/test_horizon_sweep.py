"""Horizon sweeps: an online sweep plays one game per seed, of the longest
horizon, and cuts each horizon's trace from its first T rounds; every output
must be the bytes playing each (horizon, seed) alone writes."""

import json

import numpy as np
import pytest

from relaxplay import (
    ConfigError,
    EpochSchedule,
    FeatureDistribution,
    FiniteClass,
    LossFn,
    ObliviousAdversary,
    RunConfig,
    config_hash,
    fit_exponent,
    run_epoch_predictor,
    run_experiment,
)
from relaxplay import epochs, harness
from relaxplay.cli import main as cli_main
from relaxplay.epochs import epoch_traces
from relaxplay.harness import TRACE_DIAGNOSTICS, run_traces

BASE = {
    "mode": "online",
    "class": {"kind": "threshold"},
    "env": {"kind": "uniform"},
    "adversary": {"name": "noisy_target", "target_threshold": 0.5, "p": 0.1},
    "schedule": {"kind": "polynomial", "q": 0.5},
}
SWEEPS = {
    # the `online` benchmark workload's shape
    "oblivious": dict(BASE, seeds=[0, 1], horizons=[64, 128, 256]),
    "flip_to_far": dict(BASE, seeds=[0, 1], horizons=[40, 96, 150], adversary={"name": "flip_to_far"}, probe_mc=2),
    "comparator_squeeze": dict(
        BASE, seeds=[3, 4], horizons=[20, 50, 77], probe_mc=3,
        adversary={"name": "comparator_squeeze", "class": {"kind": "threshold"}},
    ),
    # epoch lengths 1.5^n round, so the drift grows with the horizon
    "interval_geometric": dict(
        BASE, seeds=[0, 5], horizons=[30, 61, 100], schedule={"kind": "geometric", "ratio": 1.5},
        **{"class": {"kind": "interval", "gamma_len": 0.25}},
    ),
    # epochs of n^2 rounds outrun their pools: hallucination shortfall
    "q_075": dict(BASE, seeds=[1, 2], horizons=[6, 12, 70], schedule={"kind": "polynomial", "q": 0.75}),
    # no solve_rows: every round is predicted on its own
    "finite_thresholds": dict(
        BASE, seeds=[0, 9], horizons=[17, 40, 64], adversary={"name": "periodic", "values": [0.25, 1.0]},
        **{"class": {"kind": "finite_thresholds", "thresholds": [0.3, 0.5, 0.7]}},
    ),
    "shifting_env": dict(
        BASE, seeds=[2, 3], horizons=[50, 120, 200],
        env={"kind": "shifting", "segments": [
            {"dist": {"kind": "uniform", "low": 0.0, "high": 0.6}, "start": 1},
            {"dist": {"kind": "uniform", "low": 0.4, "high": 1.0}, "start": 60},
            {"dist": {"kind": "point_mass", "x": 0.3}, "start": 130},
        ]},
    ),
    "two_horizons": dict(BASE, seeds=[7], horizons=[5, 6]),
}


def custom_loss_game(seed):
    """A squared-loss game on constant hypotheses: `predict_general`'s label grid."""
    squared = LossFn("custom", lipschitz=2.0, evaluator=lambda p, y: (p - y) ** 2)
    labels = ObliviousAdversary(lambda t, x, rng: float(rng.random()))
    cls = FiniteClass.from_constants([0.0, 0.4, 1.0])
    return EpochSchedule("geometric", ratio=1.5), cls, squared, FeatureDistribution.uniform(), labels, RunConfig(seed)


def config_game(config):
    def game(seed):
        cls, loss, env, adversary, schedule, rconf = harness._full_information_game(config, seed)
        return schedule, cls, loss, env, adversary, rconf

    return game


GAMES = {name: (config_game(config), config["seeds"], config["horizons"]) for name, config in SWEEPS.items()}
GAMES["custom_loss"] = (custom_loss_game, [0, 6], [9, 20, 31])


def reference_sweep(config: dict, out: str) -> None:
    """run_experiment's online outputs as they were when every (horizon,
    seed) played its own game: each trace through `run_epoch_predictor`,
    horizon by horizon, seed by seed."""
    chash = config_hash(config)
    horizons, seeds, game = config["horizons"], config["seeds"], config_game(config)
    per_horizon, erm_total = [], 0
    for T in horizons:
        finals, diagnostics = [], {key: [] for key in TRACE_DIAGNOSTICS}
        for seed in seeds:
            schedule, cls, loss, env, adversary, rconf = game(seed)
            trace = run_epoch_predictor(schedule, cls, loss, env, adversary, T, rconf)
            finals.append(trace.final_regret)
            for key, values in diagnostics.items():
                if key in trace.metadata:
                    values.append(trace.metadata[key])
            erm_total += sum(trace.column("erm_calls"))
            trace.to_csv(f"{out}/online_T{T}_seed{seed}_{chash}.csv")
        per_horizon.append(
            {"T": T, "mean_regret": float(np.mean(finals)), "std_regret": float(np.std(finals)),
             **{key: values for key, values in diagnostics.items() if values}}
        )
    summary = {
        "config_hash": chash, "mode": "online", "seeds": seeds, "mean_regret": per_horizon[-1]["mean_regret"],
        "std_regret": per_horizon[-1]["std_regret"], "erm_calls_total": erm_total, "per_horizon": per_horizon,
    }
    if len(horizons) >= 3:
        fit = fit_exponent(horizons, [p["mean_regret"] for p in per_horizon])
        summary["exponent_fit"] = {
            "horizons": list(fit.horizons), "regrets": list(fit.regrets), "slope": fit.slope,
            "intercept": fit.intercept, "residual": fit.residual,
        }
    with open(f"{out}/summary_online_{chash}.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


class TestOneGamePerSeed:
    @pytest.mark.parametrize("name", list(SWEEPS))
    def test_outputs_equal_one_game_per_trace(self, tmp_path, name):
        # every CSV and the whole summary JSON, byte for byte
        got, want = tmp_path / "sweep", tmp_path / "reference"
        want.mkdir()
        run_experiment(json.loads(json.dumps(SWEEPS[name])), out_dir=str(got))
        reference_sweep(SWEEPS[name], str(want))
        names = sorted(p.name for p in want.iterdir())
        assert sorted(p.name for p in got.iterdir()) == names
        assert len(names) == len(SWEEPS[name]["seeds"]) * len(SWEEPS[name]["horizons"]) + 1
        for file in names:
            assert (got / file).read_bytes() == (want / file).read_bytes(), file

    @pytest.mark.parametrize("name", list(GAMES))
    def test_traces_equal_one_game_per_trace(self, tmp_path, name):
        # rows (values and types), metadata and CSV bytes of each horizon's trace
        game, seeds, horizons = GAMES[name]
        for seed in seeds:
            schedule, cls, loss, env, adversary, rconf = game(seed)
            traces = list(epoch_traces(schedule, cls, loss, env, adversary, horizons, rconf))
            assert [trace.metadata["T"] for trace in traces] == horizons
            for T, trace in zip(horizons, traces):
                schedule, cls, loss, env, adversary, rconf = game(seed)
                alone = run_epoch_predictor(schedule, cls, loss, env, adversary, T, rconf)
                assert trace.metadata == alone.metadata
                assert trace.rows == alone.rows
                assert [tuple(map(type, r)) for r in trace.rows] == [tuple(map(type, r)) for r in alone.rows]
                trace.to_csv(tmp_path / "sweep.csv")
                alone.to_csv(tmp_path / "alone.csv")
                assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_harness_traces_are_the_sweeps(self):
        config = SWEEPS["flip_to_far"]
        for seed in config["seeds"]:
            traces = list(run_traces(config, config["horizons"], seed))
            for T, trace in zip(config["horizons"], traces):
                alone = harness.run_one_trace(config, T, seed)
                assert (trace.rows, trace.metadata) == (alone.rows, alone.metadata)

    def test_diagnostics_differ_across_horizons(self):
        # the sweeps above would not see metadata taken from the longest game
        def diagnostics(name, key):
            return [p[key] for p in run_experiment(json.loads(json.dumps(SWEEPS[name])))["per_horizon"]]

        drifts = diagnostics("interval_geometric", "rounding_drift")
        assert len({tuple(d) for d in drifts}) == 3 and min(min(d) for d in drifts) > 0
        shortfalls = diagnostics("q_075", "halluc_shortfall")
        assert len({tuple(s) for s in shortfalls}) == 3
        probes = diagnostics("flip_to_far", "probe_erm_calls")
        assert probes == [[2 * 2 * T] * 2 for T in SWEEPS["flip_to_far"]["horizons"]]


class TestGameCount:
    """Count the rounds each mode plays: each round samples its feature once."""

    @staticmethod
    def count(monkeypatch, config):
        games, features = [], []
        play_rounds, sample_feature = epochs.play_rounds, epochs.sample_feature

        def counting_play(schedule, cls, loss, env, adversary, T, block, rconf):
            games.append(T)
            return play_rounds(schedule, cls, loss, env, adversary, T, block, rconf)

        def counting_sample(env, t, rng):
            features.append(t)
            return sample_feature(env, t, rng)

        monkeypatch.setattr(epochs, "play_rounds", counting_play)
        monkeypatch.setattr("relaxplay.shifting.play_rounds", counting_play)
        monkeypatch.setattr(epochs, "sample_feature", counting_sample)
        run_experiment(config)
        return games, features

    def test_online_plays_one_game_per_seed(self, monkeypatch):
        config = dict(SWEEPS["oblivious"], seeds=[0, 1, 2], horizons=[8, 20, 33])
        games, features = self.count(monkeypatch, config)
        assert games == [33, 33, 33]
        assert features == list(range(1, 34)) * 3

    def test_shifting_plays_one_game_per_horizon(self, monkeypatch):
        config = dict(BASE, mode="shifting", K=2, seeds=[0, 1], horizons=[8, 20, 33])
        games, features = self.count(monkeypatch, config)
        assert games == [8, 20, 33] * 2
        assert len(features) == 2 * (8 + 20 + 33)

    def test_bandit_plays_one_game_per_horizon(self, monkeypatch):
        config = {
            "mode": "bandit", "seeds": [0, 1], "horizons": [8, 20, 33], "env": {"kind": "uniform"},
            "policies": {"kind": "mixed", "K": 2, "arms": [0, 1], "thresholds": [0.5]},
            "costs": {"name": "constant", "values": [0.0, 1.0]},
        }
        games, features = self.count(monkeypatch, config)
        assert games == []  # the bandit runner has a loop of its own
        assert features == [t for T in [8, 20, 33] * 2 for t in range(1, T + 1)]


class TestDuplicateSeeds:
    @pytest.mark.parametrize("mode", ["online", "shifting", "bandit", "rademacher"])
    def test_repeated_seed_raises_at_its_index(self, tmp_path, mode):
        config = {
            "online": dict(BASE, horizons=[8]),
            "shifting": dict(BASE, mode="shifting", K=2, horizons=[8]),
            "bandit": {
                "mode": "bandit", "horizons": [8], "env": {"kind": "uniform"},
                "policies": {"kind": "mixed", "K": 2, "arms": [0, 1]},
                "costs": {"name": "constant", "values": [0.0, 1.0]},
            },
            "rademacher": {"mode": "rademacher", "T": 8, "class": {"kind": "threshold"}, "env": {"kind": "uniform"}},
        }[mode]
        with pytest.raises(ConfigError, match=r"config\.seeds\[2\]: repeats seed 0"):
            run_experiment(dict(config, seeds=[0, 1, 0]), out_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_cli_exits_two(self, tmp_path, capsys):
        args = ["online", "--horizons", "8", "--seed", "0,0,1", "--out", str(tmp_path / "out"),
                "--set", "class.kind=threshold", "--set", "env.kind=uniform", "--set", "adversary.name=flip_to_far"]
        assert cli_main(args) == 2
        assert "config error: config.seeds[1]: repeats seed 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
