"""Child process of the benchmark: time a fresh import of relaxplay plus
building one workload's objects, and print the seconds taken.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import WORKLOADS  # noqa: E402  (imports relaxplay and numpy)


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    seed = workload.trace_seeds(int(sys.argv[2]))[0]
    workload.build(max(workload.horizons), seed)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
