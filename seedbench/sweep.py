#!/usr/bin/env python3
"""Scale sweep of the SEED benchmark (not part of the per-change runs).

Runs checkin_cycle and query_mix at three database sizes spanning more than
10x and prints each workload's per-operation p50 at every size with the
log-log slope of p50 against size: 1.0 means the operation's cost grows
linearly with the database, 0 means it does not grow at all.

    python3 seedbench/sweep.py [--seconds 10] [--seed 1]
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# (label, workload, extra flags, sizes in items, metrics whose p50 is swept)
SWEEPS = [
    ("checkin_cycle", "checkin_cycle", [], [1000, 5000, 20000],
     ["checkin_p50_us", "read_p50_us"]),
    # One writer and no readers: the check-in itself, without waiting for
    # the other writer's commits.
    ("lone_checkin", "checkin_cycle", ["--writers", "1", "--readers", "0"],
     [1000, 5000, 20000], ["checkin_p50_us"]),
    ("query_mix", "query_mix", [], [10000, 30000, 100000],
     ["read_p50_us", "op_p50_us"]),
]


def slope(xs, ys):
    """Least-squares slope of log(y) on log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    binary = run.build()
    ok = True
    for label, workload, flags, sizes, metrics in SWEEPS:
        items, values = [], {m: [] for m in metrics}
        for size in sizes:
            _, result, rc = run.run_driver(
                binary, workload, args.seed, args.seconds, False,
                extra=["--items", str(size), "--setup-reps", "1"] + flags)
            if result is None or rc != 0 or not result["correct"]:
                print(f"{label} at {size} items: run failed (exit {rc})")
                ok = False
                break
            items.append(result["counts"]["live_items"])
            for m in metrics:
                values[m].append(result["metrics"][m]["value"])
            print(f"{label:14s} {items[-1]:8d} items  " +
                  "  ".join(f"{m}={values[m][-1]:.1f}" for m in metrics),
                  flush=True)
        if len(items) == len(sizes):
            for m in metrics:
                print(f"{label:14s} log-log slope of {m}: "
                      f"{slope(items, values[m]):.2f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
