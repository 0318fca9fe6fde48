"""Reference implementations that the package's faster code is checked against."""

from dataclasses import dataclass

import numpy as np

from relaxplay import ConfigError, EpochSchedule, epoch_length


@dataclass(frozen=True)
class EpochIndex:
    n: int
    j: int
    start: int  # S(n) = sum of lengths of epochs before n


def locate(schedule: EpochSchedule, t: int) -> EpochIndex:
    """The unique (n, j) with S(n) < t <= S(n+1) and j = t - S(n): where
    `EpochClock` stands at round t."""
    if t < 1:
        raise ConfigError("time index starts at 1")
    n, start = 1, 0
    while True:
        m = epoch_length(schedule, n)
        if t <= start + m:
            return EpochIndex(n, t - start, start)
        start += m
        n += 1


def label_sums(ys, starts) -> tuple:
    """The fast path's label sums of a game whose labels are `ys` and whose
    epochs start at the indices `starts` (increasing), as game-length arrays:
    each round's label-loss prefix, one left-to-right `cumsum` of |0 - y|
    per epoch, and each label's flip delta |1 - y| - |0 - y|. Rounds before
    the first start are NaN."""
    l0, sums = np.abs(0.0 - ys), np.full(len(ys), np.nan)
    for lo, end in zip(starts, [*starts[1:], len(ys)]):
        sums[lo:end] = [0.0, *l0[lo : end - 1].cumsum().tolist()]
    return sums, np.abs(1.0 - ys) - l0
