"""Span tracer that wraps relaxplay's public functions from outside the package.

`Tracer.install()` replaces each target, both on its defining module or class
and in every `relaxplay` module that bound the same object with
`from .x import f`; `uninstall()` puts the originals back. While installed,
each call of a spanned target appends one span (name, trace id, parent
span, start, end, items) to an in-memory list. Hot helpers are counted
without spans. Spans are aggregated, or written out, only after the run.
"""

from __future__ import annotations

import gzip
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import relaxplay.bandit
import relaxplay.core
import relaxplay.environment
import relaxplay.epochs
import relaxplay.harness
import relaxplay.oracles
import relaxplay.predictor
import relaxplay.shifting
import relaxplay.traces


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _query_size(args, kwargs, result) -> int:
    query = _arg(args, kwargs, 1, "query")
    return len(query.pairs) + len(query.signed)


def _bandit_used(args, kwargs, result) -> int:
    return sum(1 for z in result.zs if z != 0.0)


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    `items` sizes the work of a call; `used` counts the useful part of that
    work; `opens_trace` returns (T, seed) for a runner entry point, whose
    call starts a new trace id that stays current until the next one starts.
    """

    name: str
    owner: object
    attr: str
    items: Optional[Callable] = None
    used: Optional[Callable] = None
    opens_trace: Optional[Callable] = None
    spans: bool = True


TARGETS = (
    Target("oracles.ThresholdClass.solve", relaxplay.oracles.ThresholdClass, "solve", items=_query_size),
    Target("oracles.IntervalClass.solve", relaxplay.oracles.IntervalClass, "solve", items=_query_size),
    Target("core.best_in_hindsight", relaxplay.core, "best_in_hindsight"),
    Target("core.loss_eval", relaxplay.core, "loss_eval", spans=False),
    Target("core.feature_as_array", relaxplay.core, "feature_as_array", spans=False),
    Target("predictor.inner_sup", relaxplay.predictor, "inner_sup"),
    Target(
        "predictor.GameHistory.pairs", relaxplay.predictor.GameHistory, "pairs",
        items=lambda a, k, r: len(r),
    ),
    Target(
        "predictor.draw_halluc", relaxplay.predictor, "draw_halluc",
        items=lambda a, k, r: _arg(a, k, 1, "count"),
    ),
    Target("predictor.predict_binary_fast", relaxplay.predictor, "predict_binary_fast"),
    Target("environment.Adversary.emit", relaxplay.environment.Adversary, "emit"),
    Target("environment.sample_feature", relaxplay.environment, "sample_feature"),
    Target("epochs.run_epoch_predictor", relaxplay.epochs, "run_epoch_predictor"),
    Target(
        "shifting.run_shifting", relaxplay.shifting, "run_shifting",
        opens_trace=lambda a, k: (_arg(a, k, 4, "T"), _arg(a, k, 7, "config").seed),
    ),
    Target(
        "bandit.draw_bandit", relaxplay.bandit, "draw_bandit",
        items=lambda a, k, r: _arg(a, k, 1, "count"), used=_bandit_used,
    ),
    Target("bandit.phi_values", relaxplay.bandit, "phi_values"),
    Target(
        "bandit.policy_erm", relaxplay.bandit, "policy_erm",
        items=lambda a, k, r: len(_arg(a, k, 1, "items")),
    ),
    Target(
        "bandit.run_bandit", relaxplay.bandit, "run_bandit",
        opens_trace=lambda a, k: (_arg(a, k, 3, "T"), _arg(a, k, 4, "config").seed),
    ),
    Target(
        "harness.run_one_trace", relaxplay.harness, "run_one_trace",
        opens_trace=lambda a, k: (_arg(a, k, 1, "T"), _arg(a, k, 2, "seed")),
    ),
    Target(
        "traces.RegretTrace.to_csv", relaxplay.traces.RegretTrace, "to_csv",
        items=lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path")),
    ),
)


class Tracer:
    """Collects spans and counts for one workload; install it around traced passes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names = [t.name for t in TARGETS]
        # span: (name index, trace id, parent span index or -1, start, end, items, used)
        self.spans: list = []
        self.counts = {t.name: 0 for t in TARGETS if not t.spans}
        self.trace_ids: list = []
        self._stack: list = []
        self._trace = -1
        self._patches: list = []

    def _open_trace(self, T: int, seed: int) -> None:
        self.trace_ids.append(f"{self.workload}/T{T}/s{seed}")
        self._trace = len(self.trace_ids) - 1

    def _spanned(self, index: int, target: Target, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        items_fn, used_fn, opens = target.items, target.used, target.opens_trace

        def wrapper(*args, **kwargs):
            if opens is not None:
                self._open_trace(*opens(args, kwargs))
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            result, returned = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                items = items_fn(args, kwargs, result) if items_fn and returned else 0
                used = used_fn(args, kwargs, result) if used_fn and returned else 0
                spans[me] = (index, self._trace, parent, start, end, items, used)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "relaxplay" or n.startswith("relaxplay.")]
        for index, target in enumerate(TARGETS):
            original = getattr(target.owner, target.attr)
            if target.spans:
                wrapper = self._spanned(index, target, original)
            else:
                wrapper = self._counted(target.name, original)
            if isinstance(target.owner, type):
                owners = [target.owner]
            else:
                owners = [m for m in modules if vars(m).get(target.attr) is original]
            for owner in owners:
                setattr(owner, target.attr, wrapper)
                self._patches.append((owner, target.attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._trace = -1

    def aggregate(self) -> dict:
        """Per-target totals: calls, self_s, total_s, child_s, items, used.

        Self time is a span's duration minus the durations of its direct
        children; calls never overlap in this single-threaded program, so
        the children's durations are the time they cover.
        """
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {
            t.name: dict(calls=0, self_s=0.0, total_s=0.0, child_s=0.0, items=0, used=0)
            for t in TARGETS
        }
        for i, (index, _, _, start, end, items, used) in enumerate(self.spans):
            agg = out[self.names[index]]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["child_s"] += child[i]
            agg["self_s"] += end - start - child[i]
            agg["items"] += items
            agg["used"] += used
        for name, calls in self.counts.items():
            out[name]["calls"] = calls
        return out

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed CSV, times in ns from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("span,name,trace,parent,start_ns,end_ns,items\n")
            for i, (index, trace, parent, start, end, items, _) in enumerate(self.spans):
                trace_id = self.trace_ids[trace] if trace >= 0 else ""
                fh.write(
                    f"{i},{self.names[index]},{trace_id},{parent},"
                    f"{round((start - origin) * 1e9)},{round((end - origin) * 1e9)},{items}\n"
                )
