#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload solve-corpus|serve-warm|serve-mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the repository root. The harness is built from source into
.bench_build/perfbench (CMake, Release) on first use; per-item records and
span logs go to .bench_out/. Standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. The exit code is the
harness's: 0 when every answer was correct, non-zero otherwise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; returns False on failure."""
    if not (ROOT / "src" / "core" / "solver.h").is_file():
        log(f"library sources not found under {ROOT / 'src'}; "
            "run from a full checkout")
        return False
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    result = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                            stdout=sys.stderr)
    return result.returncode == 0 and BINARY.is_file()


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    return {m["name"] for m in spec()["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the harness's own maths checks only")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2
    if args.selfcheck:
        return subprocess.run([str(BINARY), "--selfcheck"]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    seconds = args.seconds or spec()["run_seconds"]
    OUT_DIR.mkdir(exist_ok=True)
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = result.stdout.rstrip("\n").splitlines()
    if not lines:
        log(f"harness printed nothing (exit {result.returncode})")
        return result.returncode or 3
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("harness's last line is not JSON")
        return 3
    missing = expected_metrics(args.trace) - set(report["metrics"])
    if missing:
        log(f"harness did not report {sorted(missing)}")
        return 4
    print("\n".join(lines), flush=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
