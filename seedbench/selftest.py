#!/usr/bin/env python3
"""The SEED benchmark's own tests.

    python3 seedbench/selftest.py

- Exact-count repeatability: on the single-client workloads (query_mix,
  edit_persist) two runs with the same seed and a fixed operation count
  must report identical counts (rows visited, index probes, WAL bytes,
  items saved, ...) and identical input fingerprints.
- A second seed must change the inputs and still pass every output check,
  on all three workloads.
- The command prints the result line the benchmark contract asks for, with
  every metric of BENCHMARK.json, traced and untraced.
- Without engine sources next to it, the command fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEED_A, SEED_B = 1, 2
# Operations per repeatability run: enough to cross saves, checkpoints and
# a version on edit_persist, and every query template on query_mix.
FIXED_OPS = {"query_mix": 400, "edit_persist": 12000, "checkin_cycle": 60}

failures = []


def check(name, ok, why=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{'' if ok else ': ' + why}",
          flush=True)
    if not ok:
        failures.append(name)


def fixed_run(binary, workload, seed):
    _, result, rc = run.run_driver(
        binary, workload, seed, 1, False,
        extra=["--max-ops", str(FIXED_OPS[workload]), "--setup-reps", "1"])
    if result is None or rc != 0 or not result["correct"]:
        reason = result["failures"] if result else f"exit {rc}"
        return None, f"{workload} seed {seed} failed: {reason}"
    return result, ""


def test_repeatability_and_seeds(binary):
    for workload in ("query_mix", "edit_persist"):
        first, why = fixed_run(binary, workload, SEED_A)
        second, why2 = fixed_run(binary, workload, SEED_A)
        other, why3 = fixed_run(binary, workload, SEED_B)
        if not (first and second and other):
            check(f"{workload}: runs pass their output checks", False,
                  why or why2 or why3)
            continue
        check(f"{workload}: counts repeat exactly for a seed",
              first["counts"] == second["counts"],
              f"{first['counts']} != {second['counts']}")
        check(f"{workload}: inputs repeat exactly for a seed",
              first["fingerprint"] == second["fingerprint"])
        check(f"{workload}: a second seed changes the inputs",
              first["fingerprint"] != other["fingerprint"] and
              first["counts"] != other["counts"])
    first, why = fixed_run(binary, "checkin_cycle", SEED_A)
    other, why2 = fixed_run(binary, "checkin_cycle", SEED_B)
    check("checkin_cycle: both seeds pass their output checks",
          bool(first and other), why or why2)
    if first and other:
        check("checkin_cycle: a second seed changes the inputs",
              first["fingerprint"] != other["fingerprint"])


def command(cwd, workload, trace, seconds=2):
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    return subprocess.run(
        [sys.executable, "seedbench/run.py", "--workload", workload,
         "--seed", str(SEED_B), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def test_result_line():
    spec = run.load_spec()
    for workload, trace in [(w["name"], t) for w in spec["workloads"]
                            for t in (0, 1)]:
        name = f"{workload}: result line (trace {trace})"
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        proc = command(run.ROOT, workload, trace)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            check(name, False, "no JSON last line")
            continue
        ok = (proc.returncode == 0 and
              set(result) == {"correct", "attempted", "failed", "metrics"} and
              result["correct"] is True and result["attempted"] >= 1 and
              set(result["metrics"]) == {m["name"] for m in wanted} and
              all(result["metrics"][m["name"]]["unit"] == m["unit"]
                  for m in wanted))
        check(name, ok, proc.stdout[-400:])


def test_refuses_without_sources():
    bare = run.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "seedbench")
    try:
        proc = command(bare, "query_mix", 0, seconds=1)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check("refuses to run without engine sources",
              proc.returncode != 0 and not last[0].startswith("{"),
              f"exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    binary = run.build()
    test_repeatability_and_seeds(binary)
    test_result_line()
    test_refuses_without_sources()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
