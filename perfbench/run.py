#!/usr/bin/env python3
"""Builds and runs Quarry's end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lifecycle --seed 1 --seconds 20 \
        --trace 0

Configures and builds perfbench/ (Release) into .bench_build/perfbench on
first use, then runs one workload. The last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}; the line
before it is the run's record (host context, sample counts, checks). With
--trace 1 the spans are also written to .bench_build/perfbench-trace-*.jsonl.
Workloads, metrics and sizing are described in perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "quarry_perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("lifecycle", "analyst_reads", "reads_under_refresh")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a hash of src/."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no Quarry sources next to perfbench/ (expected ../src)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = open(os.path.join(BUILD_ROOT, "perfbench-build.log"), "w")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=log, stderr=subprocess.STDOUT)
        if configure.returncode != 0:
            fail("configure failed; see .bench_build/perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    compiled = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                              stdout=log, stderr=subprocess.STDOUT)
    if compiled.returncode != 0 or not os.path.exists(BINARY):
        fail("build failed; see .bench_build/perfbench-build.log")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", os.path.join(BUILD_ROOT, "perfbench-work", tag),
               "--source-id", source_id()]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(BUILD_ROOT, "perfbench-trace-%s.jsonl" % tag)]
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
