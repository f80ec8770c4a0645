#!/usr/bin/env python3
"""The SEED benchmark: builds the engine and its driver from source, runs
one workload, checks the outputs and prints the result.

Run from the root of a source checkout:

    python3 seedbench/run.py --workload query_mix --seed 1 --seconds 20 --trace 0

Workloads: query_mix, checkin_cycle, edit_persist (see BENCHMARK.json).
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics of a traced run instead. Everything the driver measured, with each
per-layer metric tagged with the end-to-end metric it should move, is
printed above that line.

The build goes to $CARGO_TARGET_DIR/seedbench (default .bench_build/seedbench)
inside the checkout; stores and spans go below it too. See also sweep.py
(scale sweep) and selftest.py (the benchmark's own tests).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_PREFIX = "SEEDBENCH_RESULT "
# The driver binary must finish well inside the 180 s the whole command has.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"seedbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "seedbench"


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "core" / "database.h").is_file():
        fail(f"no engine sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for attempt in range(2):
        out.mkdir(parents=True, exist_ok=True)
        log = out / "build.log"
        with open(log, "w") as f:
            ok = True
            if not (out / "CMakeCache.txt").exists():
                ok = subprocess.run(
                    ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    stdout=f, stderr=subprocess.STDOUT).returncode == 0
            if ok:
                ok = subprocess.run(
                    ["cmake", "--build", str(out), "-j", jobs],
                    stdout=f, stderr=subprocess.STDOUT).returncode == 0
        if ok:
            return out / "seedbench"
        if attempt == 0:
            # A cache left by a checkout at another path cannot be reused.
            shutil.rmtree(out, ignore_errors=True)
    tail = log.read_text(errors="replace").splitlines()[-40:]
    print("\n".join(tail), file=sys.stderr)
    fail("build failed")


def run_driver(binary, workload, seed, seconds, trace, extra=()):
    """Runs the driver; returns (its report lines, its parsed result, rc)."""
    out = build_dir()
    args = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--work-dir", str(out / "work")]
    if trace:
        args += ["--spans", str(out / f"spans-{workload}.jsonl")]
    args += list(extra)
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines, result = [], None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            lines.append(line)
    if proc.stderr:
        lines.append(proc.stderr.rstrip())
    return lines, result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    binary = build()
    lines, result, rc = run_driver(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    print("\n".join(lines))
    if result is None:
        fail(f"{args.workload} printed no result (exit code {rc})", 1)

    source = result["layers"] if args.trace else result["metrics"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{args.workload} did not report {m['name']} in {m['unit']}",
                 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(result["correct"]) and rc == 0
    print(f"-- {args.workload}: {'correct' if correct else 'INCORRECT'}, "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"{time.monotonic() - started:.1f} s in all")
    print(json.dumps({"correct": correct,
                      "attempted": max(int(result["attempted"]), 1),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
