"""Per-round trace containers and their CSV serialization (schema 1)."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

ONLINE_COLUMNS = (
    "t", "block", "epoch", "j", "x", "y", "yhat",
    "loss", "cum_loss", "cum_regret", "erm_calls",
)
BANDIT_COLUMNS = (
    "t", "epoch", "arm", "q_min", "expected_loss", "realized_cost", "cum_regret",
)

SCHEMA_LINE = "# schema=1"


def running_total(values) -> np.ndarray:
    """The totals 0.0 + v_1 + ... + v_t, added left to right as a loop adds them."""
    return np.cumsum(np.concatenate(([0.0], values)))[1:]


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _format_column(values: tuple) -> list:
    """`_fmt` of each value. For a column of plain floats, ints and strings
    that is `str`, as str(float) is repr(float); float subclasses such as
    numpy float64 take `_fmt` value by value, written as the Python float
    they hold (numpy 2's repr would write "np.float64(0.1)")."""
    if set(map(type, values)) <= {float, int, str}:
        return list(map(str, values))
    return list(map(_fmt, values))


@dataclass
class RegretTrace:
    """Round-by-round record of an online run; cumulative columns are prefix sums."""

    columns: tuple = ONLINE_COLUMNS
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    @property
    def final_regret(self) -> float:
        return self.rows[-1][self.columns.index("cum_regret")] if self.rows else 0.0

    def check_prefix_sums(self, per_round: str = "loss", cumulative: str = "cum_loss") -> None:
        total = 0.0
        ci, pi = self.columns.index(cumulative), self.columns.index(per_round)
        for r in self.rows:
            total += r[pi]
            if abs(r[ci] - total) > 1e-9:
                raise AssertionError(f"cumulative column {cumulative} is not a prefix sum")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(SCHEMA_LINE + "\n")
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            writer.writerows(zip(*map(_format_column, zip(*self.rows))))


def read_trace_csv(path) -> RegretTrace:
    with open(path) as fh:
        first = fh.readline().strip()
        if first != SCHEMA_LINE:
            raise ValueError(f"unexpected schema line {first!r}")
        reader = csv.reader(fh)
        columns = tuple(next(reader))
        rows = []
        for raw in reader:
            row = []
            for c, v in zip(columns, raw):
                if c in ("t", "block", "epoch", "j", "erm_calls", "arm"):
                    row.append(int(v))
                else:
                    try:
                        row.append(float(v))
                    except ValueError:
                        row.append(v)
            rows.append(tuple(row))
    return RegretTrace(columns=columns, rows=rows)
