#!/usr/bin/env python3
"""Build and run the repository benchmark (see cobench/README.md).

    python3 cobench/run.py --workload steady --seed 1 --seconds 30 --trace 0

Builds cobench/ (which compiles ../src) into $CARGO_TARGET_DIR/cobench, or
.bench_build/cobench when that is unset, then runs one workload. The last
line of standard output is the result object. Its metric names must be the
end_to_end (--trace 0) or per_layer (--trace 1) names of BENCHMARK.json.
A failed build, a failed correctness check or a result that does not match
BENCHMARK.json exits 1 and prints no result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady", "sim_lossy")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"cobench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the cobench target. True on success."""
    steps = []
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "cobench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build step {cmd[:2]} failed: {exc}")
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step {' '.join(cmd[:3])} exited {proc.returncode}")
            return False
    return True


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The error in the result line, or None when it is well formed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"last line is not JSON: {exc}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected keys {sorted(result)}"
    if result["correct"] is not True:
        return "result is not correct"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    want = expected_names(trace)
    got = set(result["metrics"])
    if got != want:
        return (f"metric names differ from BENCHMARK.json: missing "
                f"{sorted(want - got)}, unexpected {sorted(got - want)}")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "cobench")
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "cobench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        log(f"{args.workload} exited {proc.returncode}; no result published")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], args.trace == 1)
    if error is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"{args.workload}: {error}; no result published")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
