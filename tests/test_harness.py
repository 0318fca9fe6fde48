import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from relaxplay import (
    ABSOLUTE_LOSS,
    ConfigError,
    EpochSchedule,
    FeatureDistribution,
    FiniteClass,
    RunConfig,
    config_hash,
    fit_exponent,
    noisy_target,
    run_epoch_predictor,
    run_experiment,
)
from relaxplay.cli import main as cli_main
from relaxplay.environment import builtin_adversaries
from relaxplay.harness import (
    build_adversary,
    build_class,
    build_costs,
    build_distribution,
    build_env,
    build_policies,
    build_schedule,
    run_one_trace,
)
from relaxplay.traces import SCHEMA_LINE, RegretTrace, read_trace_csv


ONLINE_CONFIG = {
    "mode": "online",
    "seeds": [0],
    "horizons": [16],
    "class": {"kind": "threshold"},
    "env": {"kind": "uniform"},
    "adversary": {"name": "noisy_target", "target_threshold": 0.5, "p": 0.1},
    "schedule": {"kind": "polynomial", "q": 0.5},
}


class TestFitExponent:
    def test_linear_growth(self):
        hs = [100, 200, 400, 800]
        fit = fit_exponent(hs, [3.0 * h for h in hs])
        assert fit.slope == pytest.approx(1.0)

    def test_sqrt_growth(self):
        hs = [100, 400, 1600]
        fit = fit_exponent(hs, [2.0 * math.sqrt(h) for h in hs])
        assert fit.slope == pytest.approx(0.5)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(0)
        hs = [512, 1024, 2048, 4096]
        regs = [h**0.75 * (1 + rng.uniform(-0.02, 0.02)) for h in hs]
        fit = fit_exponent(hs, regs)
        assert fit.slope == pytest.approx(0.75, abs=0.03)

    def test_nonpositive_regret_gives_none(self):
        assert fit_exponent([100, 200, 400], [1.0, 0.0, 2.0]) is None
        assert fit_exponent([100, 200, 400], [1.0, -0.5, 2.0]) is None

    def test_bad_horizons_raise(self):
        with pytest.raises(ConfigError):
            fit_exponent([100, 200], [1.0, 2.0])
        with pytest.raises(ConfigError):
            fit_exponent([100, 400, 200], [1.0, 2.0, 3.0])


class TestConfigHash:
    def test_order_invariant_and_value_sensitive(self):
        a = {"x": 1, "y": {"z": [1, 2]}}
        b = {"y": {"z": [1, 2]}, "x": 1}
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 12
        assert config_hash(a) != config_hash({"x": 2, "y": {"z": [1, 2]}})

    def test_numpy_scalars_hash_as_python_numbers(self):
        plain = {"seeds": [1], "p": 0.5, "on": True, "K": 2}
        numpy = {"seeds": [np.int64(1)], "p": np.float64(0.5), "on": np.bool_(True), "K": np.int32(2)}
        assert config_hash(numpy) == config_hash(plain)
        with pytest.raises(TypeError, match="object"):
            config_hash({"x": object()})

    def test_numpy_seed_runs_as_its_int(self, tmp_path):
        plain = run_experiment(dict(ONLINE_CONFIG, seeds=[1], horizons=[8]), out_dir=str(tmp_path / "plain"))
        numpy = run_experiment(dict(ONLINE_CONFIG, seeds=[np.int64(1)], horizons=[8]), out_dir=str(tmp_path / "numpy"))
        assert numpy == plain
        for a, b in zip(sorted((tmp_path / "plain").iterdir()), sorted((tmp_path / "numpy").iterdir())):
            assert a.name == b.name and a.read_bytes() == b.read_bytes()


# a minimal config of each catalog adversary
CATALOG_SPECS = {
    "noisy_target": {"name": "noisy_target"},
    "flip_to_far": {"name": "flip_to_far"},
    "comparator_squeeze": {"name": "comparator_squeeze", "class": {"kind": "threshold"}},
    "constant": {"name": "constant", "value": 0.3},
    "periodic": {"name": "periodic", "values": [0.25, 1.0]},
}


class TestBuilders:
    def test_field_path_errors(self):
        with pytest.raises(ConfigError, match=r"class\.kind: missing required field"):
            build_class({})
        with pytest.raises(ConfigError, match="env.segments"):
            build_env({"kind": "shifting"})
        with pytest.raises(ConfigError, match="adversary.name"):
            build_adversary({"name": "nope"})
        with pytest.raises(ConfigError, match=r"adversary\.values: periodic labels need at least one value"):
            build_adversary({"name": "periodic", "values": []})

    @pytest.mark.parametrize("name", sorted(builtin_adversaries()))
    def test_every_catalog_adversary_plays_2_calls(self, tmp_path, name):
        # every absolute-loss game takes the 2-call route, whatever its labels
        spec = CATALOG_SPECS[name]
        run_experiment(dict(ONLINE_CONFIG, horizons=[8], adversary=spec, probe_mc=2), out_dir=str(tmp_path))
        (csv_path,) = tmp_path.glob("*.csv")
        assert read_trace_csv(csv_path).column("erm_calls") == [2] * 8

    def test_distribution_kinds(self):
        assert build_distribution({"kind": "uniform"}, "d").kind == "uniform"
        d = build_distribution(
            {"kind": "discrete", "points": [0.1, 0.9], "probs": [0.5, 0.5]}, "d"
        )
        assert d.points == [0.1, 0.9]
        assert build_distribution({"kind": "point_mass", "x": 0.3}, "d").points == [0.3]

    def test_schedule_q_mapping(self):
        sched = build_schedule({"kind": "polynomial", "q": 0.75})
        assert sched.alpha == pytest.approx(2.0)

    def test_policies_and_costs(self):
        pol = build_policies(
            {"kind": "mixed", "K": 2, "arms": [0, 1], "thresholds": [0.5]}
        )
        assert len(pol) >= 2 and pol.num_arms == 2
        costs = build_costs({"name": "constant", "values": [0.0, 1.0]})
        assert list(costs(1, 0.5, [])) == [0.0, 1.0]


class TestRealFields:
    """Real-valued fields take finite numbers only and fail under their own path."""

    @pytest.mark.parametrize("bad", ["abc", "0.5", None, True, math.nan, math.inf, [0.5]])
    @pytest.mark.parametrize(
        "build,path",
        [
            (lambda v: build_class({"kind": "interval", "gamma_len": v}), r"class\.gamma_len"),
            (lambda v: build_distribution({"kind": "uniform", "low": v}, "env"), r"env\.low"),
            (lambda v: build_distribution({"kind": "point_mass", "x": v}, "env"), r"env\.x"),
            (lambda v: build_adversary({"name": "noisy_target", "p": v}), r"adversary\.p"),
            (lambda v: build_schedule({"kind": "polynomial", "q": v}), r"schedule\.q"),
            (lambda v: build_costs({"name": "feature_gap", "gap": v}), r"costs\.gap"),
        ],
        ids=["gamma_len", "low", "point_mass", "noisy_p", "q", "gap"],
    )
    def test_bad_scalar_rejected_with_its_path(self, build, path, bad):
        with pytest.raises(ConfigError, match=path + ": must be a finite number"):
            build(bad)

    @pytest.mark.parametrize(
        "build,path",
        [
            (lambda v: build_class({"kind": "finite_constants", "values": v}), r"class\.values"),
            (lambda v: build_distribution({"kind": "discrete", "points": v, "probs": [1.0]}, "env"), r"env\.points"),
            (lambda v: build_policies({"kind": "mixed", "K": 2, "thresholds": v}), r"policies\.thresholds"),
            (lambda v: build_costs({"name": "constant", "values": v}), r"costs\.values"),
        ],
        ids=["constants", "points", "mixed_thresholds", "cost_values"],
    )
    def test_bad_list_rejected_with_its_path(self, build, path):
        with pytest.raises(ConfigError, match=path + ": must be a list of numbers, got 7"):
            build(7)
        with pytest.raises(ConfigError, match=path + r"\[0\]: must be a finite number, got 'a'"):
            build(["a"])

    def test_good_values_build_as_floats(self):
        assert build_class({"kind": "interval", "gamma_len": 1}).gamma_len == 1.0
        assert build_class({"kind": "finite_constants", "values": [0, np.float64(1.0)]}).is_binary
        assert build_schedule({"kind": "geometric", "ratio": 2}).ratio == 2.0

    @pytest.mark.parametrize(
        "sets,message",
        [
            (["class.kind=interval", "class.gamma_len=abc", "env.kind=uniform"],
             "class.gamma_len: must be a finite number, got 'abc'"),
            (["class.kind=threshold", "env.kind=uniform", "env.low=null"],
             "env.low: must be a finite number, got None"),
            (["class.kind=finite_constants", "class.values=7", "env.kind=uniform"],
             "class.values: must be a list of numbers, got 7"),
        ],
        ids=["gamma_len", "low", "values"],
    )
    def test_cli_exit_two(self, capsys, sets, message):
        args = ["online", "--horizons", "8", "--set", "adversary.name=constant", "--set", "adversary.value=1"]
        args += [a for s in sets for a in ("--set", s)]
        assert cli_main(args) == 2
        assert message in capsys.readouterr().err


class TestRunExperiment:
    def test_online_summary_shape(self, tmp_path):
        summary = run_experiment(dict(ONLINE_CONFIG), out_dir=str(tmp_path))
        assert summary["mode"] == "online"
        assert summary["seeds"] == [0]
        assert summary["mean_regret"] >= 0.0
        assert "config_hash" in summary and "erm_calls_total" in summary
        csvs = list(tmp_path.glob("online_T16_seed0_*.csv"))
        assert len(csvs) == 1
        trace = read_trace_csv(csvs[0])
        assert len(trace.rows) == 16
        assert list(tmp_path.glob("summary_online_*.json"))

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(dict(ONLINE_CONFIG), out_dir=str(a))
        run_experiment(dict(ONLINE_CONFIG), out_dir=str(b))
        fa = sorted(p.name for p in a.glob("*.csv"))
        fb = sorted(p.name for p in b.glob("*.csv"))
        assert fa == fb and fa
        for name in fa:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_erm_calls_total_matches_trace(self, tmp_path):
        summary = run_experiment(dict(ONLINE_CONFIG), out_dir=str(tmp_path))
        csvs = list(tmp_path.glob("*.csv"))
        trace = read_trace_csv(csvs[0])
        assert summary["erm_calls_total"] == int(sum(trace.column("erm_calls")))

    def test_exponent_fit_present_with_three_horizons(self):
        cfg = dict(ONLINE_CONFIG, horizons=[8, 16, 32])
        summary = run_experiment(cfg)
        assert summary["exponent_fit"] is None or "slope" in summary["exponent_fit"]

    def test_verify_mode(self):
        summary = run_experiment({"mode": "verify", "seeds": [0], "mc_samples": 32})
        assert "checks" in summary and isinstance(summary["failed"], list)

    def test_summary_carries_shortfall_and_drift(self, tmp_path):
        cfg = dict(ONLINE_CONFIG, seeds=[0, 3], horizons=[12, 20], schedule={"kind": "geometric", "ratio": 1.5})
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        for entry in summary["per_horizon"]:
            traces = [run_one_trace(cfg, entry["T"], seed) for seed in cfg["seeds"]]
            assert entry["halluc_shortfall"] == [t.metadata["halluc_shortfall"] for t in traces]
            assert entry["rounding_drift"] == [t.metadata["rounding_drift"] for t in traces]
            assert min(entry["halluc_shortfall"]) > 0  # the first epoch starts with an empty pool
        (path,) = tmp_path.glob("summary_online_*.json")
        assert json.loads(path.read_text())["per_horizon"] == summary["per_horizon"]
        for csv in tmp_path.glob("*.csv"):
            assert "shortfall" not in csv.read_text()

    def test_summary_lists_probe_erm_calls_per_seed(self, tmp_path):
        cfg = dict(PINNED_ADAPTIVE, seeds=[0, 4], horizons=[12, 20])
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        for entry in summary["per_horizon"]:
            assert entry["probe_erm_calls"] == [2 * cfg["probe_mc"] * entry["T"]] * 2
        assert all("probe_erm_calls" not in entry for entry in run_experiment(PINNED_ONLINE)["per_horizon"])
        for csv in tmp_path.glob("*.csv"):
            assert "probe" not in csv.read_text()
        assert summary["erm_calls_total"] == 2 * (12 + 20) * 2  # the game's own calls only

    def test_bandit_summary_has_no_drift(self):
        summary = run_experiment(dict(PINNED_BANDIT, horizons=[16]))
        (entry,) = summary["per_horizon"]
        assert entry["halluc_shortfall"] == [1] and "rounding_drift" not in entry

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="config.mode"):
            run_experiment({"mode": "nope"})

    @pytest.mark.parametrize("seed", [1.5, True, -1, "1", None, 2.0])
    @pytest.mark.parametrize("mode", ["online", "bandit"])
    def test_bad_seed_rejected_with_its_path(self, tmp_path, mode, seed):
        # a seed that is no non-negative integer fails before any trace is played
        config = dict(PINNED_BANDIT if mode == "bandit" else ONLINE_CONFIG, seeds=[0, seed])
        with pytest.raises(ConfigError, match=r"config\.seeds\[1\]"):
            run_experiment(config, out_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", [1.5, True, 0, -2, 8.9, math.nan, "4", None])
    @pytest.mark.parametrize(
        "field",
        ["probe_mc", "horizons", "T", "shifting.K", "bandit.policies.K", "schedule.block", "verify.mc_samples",
         "rademacher.mc_samples"],
    )
    def test_bad_count_rejected_with_its_path(self, tmp_path, field, bad):
        # a count that is no positive integer fails under its own path, before any trace is played
        if field == "probe_mc":
            config, path = dict(ONLINE_CONFIG, probe_mc=bad), r"config\.probe_mc"
        elif field == "horizons":
            config, path = dict(ONLINE_CONFIG, horizons=[4, bad]), r"config\.horizons\[1\]"
        elif field == "T":
            config, path = {k: v for k, v in ONLINE_CONFIG.items() if k != "horizons"}, r"config\.T"
            config["T"] = bad
        elif field == "shifting.K":
            config, path = dict(ONLINE_CONFIG, mode="shifting", K=bad), r"config\.K"
        elif field == "bandit.policies.K":
            config = dict(PINNED_BANDIT, policies=dict(PINNED_BANDIT["policies"], K=bad))
            path = r"policies\.K"
        elif field == "schedule.block":
            config, path = dict(ONLINE_CONFIG, schedule={"kind": "fixed", "block": bad}), r"schedule\.block"
        elif field == "verify.mc_samples":
            config, path = {"mode": "verify", "seeds": [0], "mc_samples": bad}, r"config\.mc_samples"
        else:
            config = {"mode": "rademacher", "seeds": [0], "T": 4, "class": {"kind": "threshold"},
                      "env": {"kind": "uniform"}, "mc_samples": bad}
            path = r"config\.mc_samples"
        with pytest.raises(ConfigError, match=path):
            run_experiment(config, out_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", [4.7, 1.9, True, -1, math.nan, "2", None])
    @pytest.mark.parametrize("field", ["segment.start", "constant.arms", "mixed.arms"])
    def test_bad_integer_field_rejected_with_its_path(self, tmp_path, field, bad):
        if field == "segment.start":
            segments = [dict(seg) for seg in PINNED_SHIFTING["env"]["segments"]]
            segments[1]["start"] = bad
            config = dict(PINNED_SHIFTING, env={"kind": "shifting", "segments": segments})
            path = r"env\.segments\[1\]\.start"
        else:
            kind = field.split(".")[0]
            config = dict(PINNED_BANDIT, policies={"kind": kind, "K": 2, "arms": [0, bad]})
            path = r"policies\.arms\[1\]"
        with pytest.raises(ConfigError, match=path):
            run_experiment(config, out_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_integer_counts_still_run(self):
        config = dict(ONLINE_CONFIG, horizons=[4, 6], probe_mc=2, schedule={"kind": "fixed", "block": 3})
        assert [p["T"] for p in run_experiment(config)["per_horizon"]] == [4, 6]

    def test_verify_summary_has_only_plain_values(self, tmp_path):
        summary = run_experiment({"mode": "verify", "seeds": [0], "mc_samples": 8}, out_dir=str(tmp_path))
        (path,) = tmp_path.glob("summary_verify_*.json")
        assert json.loads(path.read_text()) == summary


PINNED_ONLINE = dict(ONLINE_CONFIG, horizons=[64])
PINNED_BANDIT = {
    "mode": "bandit",
    "seeds": [0],
    "horizons": [64],
    "policies": {"kind": "mixed", "K": 2, "arms": [0, 1], "thresholds": [0.5]},
    "env": {"kind": "uniform"},
    "costs": {"name": "constant", "values": [0.0, 1.0]},
}
PINNED_ADAPTIVE = dict(ONLINE_CONFIG, horizons=[128], adversary={"name": "flip_to_far"}, probe_mc=2)
# several epochs, pool draws with many Z != 0 slots, and an odd K
PINNED_BANDIT_K3 = {
    "mode": "bandit",
    "seeds": [0],
    "horizons": [512],
    "policies": {"kind": "mixed", "K": 3, "arms": [0, 1, 2], "thresholds": [0.5, 0.9]},
    "env": {"kind": "uniform"},
    "costs": {"name": "constant", "values": [0.2, 0.9, 0.5]},
}


# the `shifting` benchmark workload's shape at T = 128
PINNED_SHIFTING = {
    "mode": "shifting",
    "seeds": [0],
    "horizons": [128],
    "K": 2,
    "class": {"kind": "interval", "gamma_len": 0.25},
    "env": {
        "kind": "shifting",
        "segments": [
            {"dist": {"kind": "uniform", "low": 0.0, "high": 0.6}, "start": 1},
            {"dist": {"kind": "uniform", "low": 0.4, "high": 1.0}, "start": 51},
            {"dist": {"kind": "uniform", "low": 0.2, "high": 0.8}, "start": 89},
        ],
    },
    "adversary": {"name": "noisy_target", "target_threshold": 0.5, "p": 0.1},
    "schedule": {"kind": "polynomial", "alpha": 1.0},
}

# an adaptive adversary on the interval class: each probe solves 2 * 3 interval rows
PINNED_ADAPTIVE_INTERVAL = dict(
    ONLINE_CONFIG,
    horizons=[128],
    probe_mc=3,
    **{"class": {"kind": "interval", "gamma_len": 0.25}},
    adversary={"name": "comparator_squeeze", "class": {"kind": "interval", "gamma_len": 0.25}},
)


# fractional periodic labels 0.25, 1.0 on a class without solve_rows: the 2-call route, one round at a time
PINNED_GENERAL = dict(
    ONLINE_CONFIG,
    horizons=[64],
    **{"class": {"kind": "finite_thresholds", "thresholds": [0.3, 0.5, 0.7]}},
    adversary={"name": "periodic", "values": [0.25, 1.0]},
)
# the fast path one round at a time: a binary class without solve_rows
PINNED_FINITE_FAST = dict(
    ONLINE_CONFIG, horizons=[64], **{"class": {"kind": "finite_thresholds", "thresholds": [0.3, 0.5, 0.7]}}
)


class TestPinnedTraces:
    """sha256 of the CSVs of fixed configs: a refactor must reproduce them byte
    for byte. The online and bandit configs are criterion 12's; a change that
    alters RNG consumption or arithmetic re-pins them on purpose."""

    @pytest.mark.parametrize(
        "config,digest",
        [
            (PINNED_ONLINE, "00d7be37b54bf2148d09dd92926459221521dc9fe3d17780766da2d5272319a2"),
            (PINNED_BANDIT, "e273debd28e0ead34550dc50c1c7008f6057ca0dc91c7f72de249442b0747365"),
            (PINNED_ADAPTIVE, "d42f8389a840caa9f3cd32c1c5a0e7f21729c81b958bd7ba05d784854f218001"),
            (PINNED_BANDIT_K3, "1625546cfce66132aa3373e6456db05eee7c976f2bd01c453fffe3566d55281e"),
            (PINNED_SHIFTING, "6483fde206bbdf181347c52c1ece2421f56c1e20fad8e7a3eafe69ab350367ef"),
            (PINNED_ADAPTIVE_INTERVAL, "0d69bce2e33d554e7769b01c293c3f140751f11dfdcaa54b2ab5fce76735da3c"),
            (PINNED_GENERAL, "ba112d00d9fd5cca36e75f803bb615e9c295c3f48649fc4d3a5a547c8c1ba6d4"),
            (PINNED_FINITE_FAST, "d32cc50fd21eee90a1b36003046a27941f06a0c07fa0cba7c087b0af806879ed"),
        ],
        ids=["online", "bandit", "adaptive", "bandit_k3", "shifting_interval", "adaptive_interval", "general",
             "finite_fast"],
    )
    def test_csv_sha256(self, tmp_path, config, digest):
        run_experiment(dict(config), out_dir=str(tmp_path))
        (csv,) = tmp_path.glob("*.csv")
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest

    def test_verify_summary_sha256(self, tmp_path):
        run_experiment({"mode": "verify", "seeds": [5], "mc_samples": 6}, out_dir=str(tmp_path))
        (summary,) = tmp_path.glob("summary_verify_*.json")
        digest = "58c1f8cdbf58bee72e673bb5cf888df2ee9409af7c9cb5a0f215e1ab8508fe50"
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == digest

def rowwise_csv(trace: RegretTrace, path) -> None:
    """Reference writer: each cell formatted on its own, one csv row at a time."""
    with open(path, "w", newline="") as fh:
        fh.write(SCHEMA_LINE + "\n")
        writer = csv.writer(fh)
        writer.writerow(trace.columns)
        for r in trace.rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in r])


class TestCsvWriter:
    """The column-wise writer writes the bytes of the row-wise reference."""

    @staticmethod
    def vector_trace():
        cls = FiniteClass([lambda x: float(x[0] >= 0.5), lambda x: float(x[1] >= 0.5)], binary=True)
        env = FeatureDistribution.product([FeatureDistribution.uniform(), FeatureDistribution.uniform()])
        adversary = noisy_target(lambda x: float(x[0] >= 0.5), 0.1)
        return run_epoch_predictor(EpochSchedule("polynomial", alpha=1.0), cls, ABSOLUTE_LOSS, env, adversary, 24, RunConfig(seed=3))

    @pytest.mark.parametrize("as_point", [list, tuple], ids=["lists", "tuples"])
    def test_vector_points_as_sequences_write_the_array_bytes(self, tmp_path, as_point):
        # a discrete distribution stores each point once, as a float64 vector
        points = [[0.25, 0.875], [0.75, 0.125], [0.5, 0.5]]
        for name, as_feature in (("arrays.csv", np.array), ("given.csv", as_point)):
            env = FeatureDistribution.discrete([as_feature(p) for p in points], [0.25, 0.25, 0.5])
            cls = FiniteClass([lambda x: float(x[0] >= 0.5), lambda x: float(x[1] >= 0.5)], binary=True)
            adversary = noisy_target(lambda x: float(x[0] >= 0.5), 0.1)
            schedule = EpochSchedule("polynomial", alpha=1.0)
            trace = run_epoch_predictor(schedule, cls, ABSOLUTE_LOSS, env, adversary, 12, RunConfig(seed=3))
            trace.to_csv(tmp_path / name)
        assert (tmp_path / "given.csv").read_bytes() == (tmp_path / "arrays.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["online", "bandit", "vector", "numpy_scalars", "empty"])
    def test_same_bytes_as_rowwise(self, tmp_path, kind):
        if kind == "online":
            trace = run_one_trace(PINNED_ONLINE, 64, 0)
        elif kind == "bandit":
            trace = run_one_trace(PINNED_BANDIT_K3, 128, 0)
        elif kind == "vector":
            trace = self.vector_trace()
            assert ";" in trace.rows[0][trace.columns.index("x")]
        elif kind == "numpy_scalars":
            # float subclasses are written as the Python floats they hold, row by row
            trace = RegretTrace(columns=("t", "x", "y"), rows=[(1, np.float64(0.5), 0.25), (2, 0.125, np.int64(3))])
        else:
            trace = RegretTrace()
        trace.to_csv(tmp_path / "columns.csv")
        rowwise_csv(trace, tmp_path / "rows.csv")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_numpy_scalars_round_trip(self, tmp_path):
        rows = [(1, np.float64(0.1), np.int64(3), 0.25), (2, np.float64(1 / 3), np.int64(-4), np.float64(0.5))]
        RegretTrace(columns=("t", "x", "y", "loss"), rows=rows).to_csv(tmp_path / "t.csv")
        back = read_trace_csv(tmp_path / "t.csv").rows
        assert back == [(1, 0.1, 3.0, 0.25), (2, 1 / 3, -4.0, 0.5)]
        assert all(type(v) is float for row in back for v in row[1:])


class TestCli:
    def _write_config(self, tmp_path):
        p = tmp_path / "cfg.json"
        cfg = {k: v for k, v in ONLINE_CONFIG.items() if k != "mode"}
        p.write_text(json.dumps(cfg))
        return p

    def test_online_exit_zero(self, tmp_path, capsys):
        p = self._write_config(tmp_path)
        rc = cli_main(["online", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads(out)["mode"] == "online"

    def test_config_error_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"env": {"kind": "uniform"}}))
        rc = cli_main(["online", "--config", str(p)])
        assert rc == 2
        assert "missing required field" in capsys.readouterr().err

    def test_empty_periodic_exit_two(self, capsys):
        # a config error, not a ZeroDivisionError at the first label
        args = ["online", "--horizons", "8", "--set", "class.kind=threshold", "--set", "env.kind=uniform",
                "--set", "adversary.name=periodic", "--set", "adversary.values=[]"]
        assert cli_main(args) == 2
        assert "config error: adversary.values: periodic labels need at least one value" in capsys.readouterr().err

    def test_non_integer_count_exit_two(self, capsys):
        # NaN parses from --set as a JSON float; it is a config error, not a traceback
        rc = cli_main(["online", "--horizons", "8", "--set", "schedule.kind=fixed", "--set", "schedule.block=NaN",
                       "--set", "class.kind=threshold", "--set", "env.kind=uniform",
                       "--set", "adversary.name=constant", "--set", "adversary.value=1"])
        assert rc == 2
        assert "schedule.block must be a positive integer, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sets,message",
        [
            (["env.kind=shifting", 'env.segments=[{"dist":{"kind":"uniform"},"start":1},'
              '{"dist":{"kind":"uniform"},"start":4.7}]', "class.kind=threshold"],
             "env.segments[1].start must be a positive integer, got 4.7"),
        ],
        ids=["segment_start"],
    )
    def test_non_integer_field_exit_two(self, capsys, sets, message):
        args = ["online", "--horizons", "8", "--set", "adversary.name=constant", "--set", "adversary.value=1"]
        args += [a for s in sets for a in ("--set", s)]
        if "env.kind=shifting" not in sets:
            args += ["--set", "env.kind=uniform"]
        assert cli_main(args) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode,bad,message",
        [
            ("online", "seeds=5", "config.seeds: must be a list of seeds, got 5"),
            ("online", "horizons=5", "config.horizons: must be a list of horizons, got 5"),
            ("online", "class=3", "class: must be an object, got 3"),
            ("online", "class=kind", "class: must be an object, got 'kind'"),
            ("online", "adversary=null", "adversary: must be an object, got None"),
            ("online", "schedule=7", "schedule: must be an object, got 7"),
            ("online", "adversary.name=[1]", "adversary.name: unknown adversary [1]"),
            ("online", "out=5", "config.out: must be a directory path, got 5"),
            ("online", 'env={"kind":"shifting","segments":5}', "env.segments: must be a list of segments, got 5"),
            ("bandit", 'policies={"kind":"constant","arms":3}', "policies.arms: must be a list of arms, got 3"),
            ("bandit", "gamma=abc", "config.gamma: must be a finite number, got 'abc'"),
        ],
        ids=[
            "seeds", "horizons", "class_int", "class_str", "adversary_null", "schedule", "adversary_name", "out",
            "segments", "arms", "gamma",
        ],
    )
    def test_malformed_field_exit_two(self, capsys, mode, bad, message):
        # a config error under the field's path, not a TypeError traceback
        sets = ["env.kind=uniform"]
        if mode == "online":
            sets += ["class.kind=threshold", "adversary.name=constant", "adversary.value=1"]
        else:
            sets += ["costs.name=constant", "costs.values=[0.0,1.0]", 'policies={"kind":"constant","arms":[0,1]}']
        args = [mode, "--horizons", "8"] + [a for s in sets + [bad] for a in ("--set", s)]
        assert cli_main(args) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_rademacher_shifting_env_exit_two(self, capsys):
        # the estimate samples one distribution; a shifting env is a config error, not a traceback
        args = ["rademacher", "--set", "T=8", "--set", "class.kind=threshold", "--set", "env.kind=shifting",
                "--set", 'env.segments=[{"dist":{"kind":"uniform"},"start":1}]']
        assert cli_main(args) == 2
        assert "env.kind: unknown distribution kind 'shifting'" in capsys.readouterr().err

    def test_bandit_non_integer_arm_exit_two(self, capsys):
        args = ["bandit", "--horizons", "8", "--set", "env.kind=uniform", "--set", "costs.name=constant",
                "--set", "costs.values=[0.0,1.0]", "--set", 'policies={"kind":"constant","K":2,"arms":[0,1.7]}']
        assert cli_main(args) == 2
        assert "policies.arms[1] must be a non-negative integer, got 1.7" in capsys.readouterr().err

    def test_verify_exit_zero(self, capsys):
        rc = cli_main(["verify", "--set", "mc_samples=32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_verify_prints_a_line_per_check(self, capsys):
        from relaxplay import standard_checks

        assert cli_main(["verify", "--seed", "2", "--set", "mc_samples=8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [r.line() for r in standard_checks(seed=2, mc_samples=8)]
        assert "checks" not in json.loads(lines[-1])

    def test_set_overrides(self, tmp_path, capsys):
        p = self._write_config(tmp_path)
        rc = cli_main(
            ["online", "--config", str(p), "--set", "horizons=[8]", "--set", "seeds=[1]"]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["seeds"] == [1]
