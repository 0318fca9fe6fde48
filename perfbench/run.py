"""Benchmark relaxplay's four acceptance sweeps end to end, or trace them per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload online --seed 0 --seconds 26 --trace 0

With `--trace 0` the run repeats passes of the workload (one pass plays every
horizon for one trace seed) for `--seconds` seconds, and at least until each
trace seed has played once and the first twice, then reports the end-to-end
metrics. With `--trace 1` it times `solve` at fixed sizes, then plays whole
rounds over the first two trace seeds, each seed once untraced and once
traced, for `--seconds` seconds, and reports per-layer metrics per traced
pass. Every trace is checked; the last line of standard output is
the JSON result. Results and spans go to `.perfbench/` in the checkout.
"""

import os

# IntervalClass.solve's matrix product would otherwise use every core
# through a threaded OpenBLAS; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from typing import Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 9
TRACED_SEEDS = 2  # seeds a traced round plays, each once untraced and once traced

END_TO_END = {
    "rounds_per_s": "1/s",
    "erm_calls_per_round": "calls/round",
    "mean_final_regret": "loss",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "passed_share": "ratio",
}

# Aggregated span fields reported per layer target, per traced pass.
LAYER_FIELDS = (
    ("oracles.ThresholdClass.solve", ("calls", "self_s", "items")),
    ("oracles.IntervalClass.solve", ("calls", "self_s", "items")),
    ("core.best_in_hindsight", ("calls", "self_s", "total_s")),
    ("core.loss_eval", ("calls",)),
    ("core.feature_as_array", ("calls",)),
    ("predictor.inner_sup", ("self_s",)),
    ("predictor.GameHistory.pairs", ("calls", "self_s", "items")),
    ("predictor.draw_halluc", ("calls", "self_s", "items")),
    ("predictor.predict_binary_fast", ("calls",)),
    ("environment.Adversary.emit", ("calls", "self_s", "child_s")),
    ("environment.sample_feature", ("calls", "self_s")),
    ("epochs.run_epoch_predictor", ("self_s",)),
    ("shifting.run_shifting", ("self_s",)),
    ("bandit.draw_bandit", ("calls", "self_s", "items", "used_share")),
    ("bandit.phi_values", ("calls", "self_s")),
    ("bandit.policy_erm", ("calls", "self_s", "items")),
    ("bandit.run_bandit", ("self_s",)),
    ("harness.run_one_trace", ("self_s",)),
    ("traces.RegretTrace.to_csv", ("calls", "self_s", "bytes")),
)
FIELD_UNITS = {
    "calls": "count", "items": "count", "bytes": "B", "used_share": "ratio",
    "self_s": "s", "total_s": "s", "child_s": "s",
}


@dataclass
class TraceOutcome:
    T: int
    seed: int
    pass_index: int
    sha256: Optional[str] = None
    final_regret: Optional[float] = None
    erm_calls: Optional[int] = None
    problem: Optional[str] = None


@dataclass
class PassOutcome:
    index: int
    seed: int
    traced: bool
    wall_s: float
    rounds: int
    traces: list


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "src_sha256": tree_digest(os.path.join(SRC, "relaxplay")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_sha() -> Optional[str]:
    """HEAD's commit read from `.git`, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(path: str) -> str:
    """sha256 over the names and bytes of the package's .py files."""
    digest = hashlib.sha256()
    for name in sorted(f for f in os.listdir(path) if f.endswith(".py")):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def setup_seconds(workload: str, seed: int) -> list:
    """Seconds for fresh processes to import relaxplay and build one trace's objects."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def check_trace(workload, played, pass_dir: str, pass_index: int) -> TraceOutcome:
    """Write (if the runner did not), read back and check one trace's CSV."""
    from relaxplay.traces import read_trace_csv

    outcome = TraceOutcome(played.T, played.seed, pass_index)
    path = played.csv_path
    try:
        if path is None:
            path = os.path.join(pass_dir, f"{workload.name}_T{played.T}_seed{played.seed}.csv")
            played.trace.to_csv(path)
        with open(path, "rb") as fh:
            written = fh.read()
        outcome.sha256 = hashlib.sha256(written).hexdigest()
        trace = read_trace_csv(path)
        trace.to_csv(path + ".again")
        with open(path + ".again", "rb") as fh:
            if fh.read() != written:
                raise AssertionError("CSV does not round-trip through read_trace_csv")
        if len(trace.rows) != played.T:
            raise AssertionError(f"{len(trace.rows)} rows for horizon {played.T}")
        outcome.erm_calls = workload.check(played, trace)
        outcome.final_regret = trace.final_regret
    except (AssertionError, ValueError, KeyError, OSError) as exc:
        outcome.problem = f"{type(exc).__name__}: {exc}"
    return outcome


def play_pass(workload, seed: int, index: int, work_dir: str, tracer=None) -> PassOutcome:
    pass_dir = os.path.join(work_dir, f"pass{index}")
    os.makedirs(pass_dir)
    played, error = None, None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        played = workload.play(seed, pass_dir)
    except Exception as exc:  # a failing trace is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if error is None:
        traces = [check_trace(workload, p, pass_dir, index) for p in played]
    else:
        traces = [TraceOutcome(T, seed, index, problem=error) for T in workload.horizons]
    shutil.rmtree(pass_dir)
    return PassOutcome(index, seed, tracer is not None, wall, sum(workload.horizons), traces)


def flag_digest_mismatches(passes: list) -> None:
    """A repeated (horizon, seed) trace must write byte-identical CSVs."""
    first: dict = {}
    for p in passes:
        for t in p.traces:
            if t.sha256 is None:
                continue
            key = (t.T, t.seed)
            if key not in first:
                first[key] = t.sha256
            elif t.sha256 != first[key] and t.problem is None:
                t.problem = f"CSV sha256 differs from the first write of T={t.T} seed={t.seed}"


def failed_share(passes: list) -> float:
    traces = [t for p in passes for t in p.traces]
    return sum(t.problem is not None for t in traces) / len(traces)


def end_to_end(workload, seed: int, passes: list) -> dict:
    good = [t for p in passes for t in p.traces if t.problem is None]
    final = {}
    for t in good:
        if t.T == max(workload.horizons):
            final.setdefault(t.seed, t.final_regret)
    calls, rounds = sum(t.erm_calls for t in good), sum(t.T for t in good)
    # The first pass warms caches and lazy set-up. Every pass plays the same
    # horizons; the slow quartile of pass times is taken because a shared
    # host alternates between a contended and a faster speed, and the
    # contended level is the steadier one from run to run.
    slow_pass_s = statistics.quantiles([p.wall_s for p in passes[1:]], n=4)[2]
    return {
        "rounds_per_s": sum(workload.horizons) / slow_pass_s,
        "erm_calls_per_round": calls / rounds if rounds else 0.0,
        "mean_final_regret": statistics.fmean(final.values()) if final else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_seconds(workload.name, seed)),
        "passed_share": 1.0 - failed_share(passes),
    }


def per_layer(tracer, passes: list, solve_ms: dict) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    agg = tracer.aggregate()
    out = {}
    for name, fields in LAYER_FIELDS:
        a = agg[name]
        for field in fields:
            if field == "used_share":
                value = a["used"] / a["items"] if a["items"] else 0.0
            else:
                value = a["items" if field == "bytes" else field] / len(traced)
            out[f"{name}.{field}"] = value
    out["trace_overhead_share"] = sum(p.wall_s for p in traced) / sum(p.wall_s for p in untraced)
    out["failed_share"] = failed_share(passes)
    out.update(solve_ms)
    return out


def layer_units(solve_ms_names) -> dict:
    units = {f"{name}.{field}": FIELD_UNITS[field] for name, fields in LAYER_FIELDS for field in fields}
    units["trace_overhead_share"] = "ratio"
    units["failed_share"] = "ratio"
    units.update({name: "ms" for name in solve_ms_names})
    return units


def run(args) -> int:
    sys.path[:0] = [SRC, HERE]
    from solvebench import solve_timings
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (have {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seeds = workload.trace_seeds(args.seed)
    tag = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    work_dir = os.path.join(OUT, "work", f"{tag}_{os.getpid()}")
    os.makedirs(work_dir)
    passes = []
    try:
        if args.trace == 0:
            start = time.perf_counter()
            while len(passes) <= len(seeds) or time.perf_counter() - start < args.seconds:
                i = len(passes)
                passes.append(play_pass(workload, seeds[i % len(seeds)], i, work_dir))
            flag_digest_mismatches(passes)
            metrics = end_to_end(workload, args.seed, passes)
            units = END_TO_END
        else:
            solve_ms = solve_timings(args.seed)
            tracer = Tracer(workload.name)
            start = time.perf_counter()
            # whole rounds over the same seeds, so per-pass counts repeat exactly
            while not passes or time.perf_counter() - start < args.seconds:
                for seed in seeds[:TRACED_SEEDS]:
                    passes.append(play_pass(workload, seed, len(passes), work_dir))
                    passes.append(play_pass(workload, seed, len(passes), work_dir, tracer))
            flag_digest_mismatches(passes)
            metrics = per_layer(tracer, passes, solve_ms)
            units = layer_units(solve_ms)
            os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
            tracer.write(os.path.join(OUT, "spans", f"{tag}.csv.gz"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    traces = [t for p in passes for t in p.traces]
    failed = sum(t.problem is not None for t in traces)
    info = provenance(workload.name, args.seed, args.trace)
    record = {
        "provenance": info,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "failed_share": failed_share(passes),
        "passes": [
            {"index": p.index, "seed": p.seed, "traced": p.traced, "wall_s": p.wall_s, "rounds": p.rounds}
            for p in passes
        ],
        "traces": [asdict(t) for t in traces],
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    result_path = os.path.join(OUT, "results", f"{tag}.json")
    with open(result_path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for k in units:
        print(f"  {k:<44} {metrics[k]:>14.6g} {units[k]}")
    print(f"  {len(passes)} passes, {failed} of {len(traces)} traces failed")
    for t in traces:
        if t.problem is not None:
            print(f"  FAILED T={t.T} seed={t.seed} pass={t.pass_index}: {t.problem}")
    print(f"results: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(traces),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "relaxplay", "__init__.py")):
        print(f"perfbench: no relaxplay package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
