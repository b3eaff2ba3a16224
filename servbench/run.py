#!/usr/bin/env python3
"""Builds and runs the serving-cost benchmark.

Usage, from the root of the repository:

    python3 servbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures servbench/CMakeLists.txt (which builds the repository's libraries
from src/) into $CARGO_TARGET_DIR, or .bench_build when unset, runs the
benchmark's self-tests, then runs the workload. Build output goes to stderr;
the last line of stdout is the benchmark's result JSON. Exits non-zero,
without a result, when the build, a self-test or the workload fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("camera_int8", "batch_fp32", "fleet_mixed_open")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion; on timeout kills it and waits for it."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    code, _ = run(configure, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        return False
    code, _ = run(["cmake", "--build", build_dir, "-j", jobs],
                  BUILD_TIMEOUT_S, stdout=sys.stderr)
    return code == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    if not build(build_dir):
        print("servbench: build failed", file=sys.stderr)
        return 1
    code, _ = run([os.path.join(build_dir, "servbench_selftest"),
                   "--gtest_brief=1"], RUN_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        print("servbench: self-tests failed", file=sys.stderr)
        return 1
    code, out = run([os.path.join(build_dir, "servbench"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    # A correctness-gate failure still prints its result ("correct": false)
    # and keeps the workload's non-zero exit code.
    if lines and lines[-1].startswith("{"):
        print(lines[-1])
    if code != 0:
        print("servbench: workload exited with code %d" % code,
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
