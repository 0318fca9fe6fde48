"""What `perfbench/` uses of relaxplay still exists.

The benchmark lives outside the package and imports or wraps relaxplay's
functions by name. These tests read perfbench and change nothing in it: a
deletion in `src/` that would break `perfbench/run.py`, with or without
`--trace`, fails here.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import relaxplay.oracles

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in ("tracer", "solvebench", "workloads")}
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_installs_and_uninstalls(perfbench):
    tracer_mod = perfbench["tracer"]
    originals = [getattr(t.owner, t.attr) for t in tracer_mod.TARGETS]
    tracer = tracer_mod.Tracer("surface")
    tracer.install()
    try:
        assert all(getattr(t.owner, t.attr) is not o for t, o in zip(tracer_mod.TARGETS, originals))
        # a traced solve sizes its query through the query's term views
        query = perfbench["solvebench"].make_query(16, np.random.default_rng(0))
        relaxplay.oracles.ThresholdClass().solve(query)
    finally:
        tracer.uninstall()
    assert [getattr(t.owner, t.attr) for t in tracer_mod.TARGETS] == originals
    agg = tracer.aggregate()["oracles.ThresholdClass.solve"]
    assert (agg["calls"], agg["items"]) == (1, 32)


def test_solvebench_query_solves_on_every_class(perfbench):
    solvebench = perfbench["solvebench"]
    query = solvebench.make_query(16, np.random.default_rng(1))
    assert (len(query.xs), len(query.signed_xs)) == (16, 16)
    for _, make, _ in solvebench.CLASSES:
        result = make().solve(query)
        assert np.isfinite(result.objective)


@pytest.mark.parametrize("workload", ["online", "adaptive", "shifting", "bandit"])
def test_workload_builds(perfbench, workload):
    built = perfbench["workloads"].WORKLOADS[workload].build(64, 0)
    assert len(built) in (4, 5) and all(obj is not None for obj in built)


def test_bandit_workload_traces_pass_their_check(perfbench, tmp_path):
    # the benchmark counts a bandit trace as failed when this check raises
    from relaxplay.traces import read_trace_csv

    workload = perfbench["workloads"].WORKLOADS["bandit"]
    played = workload.play(workload.trace_seeds(0)[0], str(tmp_path))
    assert [p.T for p in played] == list(workload.horizons)
    for p in played:
        p.trace.to_csv(tmp_path / "bandit.csv")
        read_back = read_trace_csv(tmp_path / "bandit.csv")
        assert len(read_back.rows) == p.T
        assert workload.check(p, read_back) == 3 * p.T
