#!/usr/bin/env python3
"""Builds and runs the real-clock benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fused --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --selftest              # the benchmark's own tests

The library and the driver are built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Inputs are
generated from the seed into a fresh directory under .bench_work/, which is
removed afterwards. The last line of standard output is the result object.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["fused", "stream", "serve"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(targets):
    """Configures (once) and builds; build output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # A failed configure leaves a cache behind; drop it so the next
            # run configures again instead of building a broken tree.
            shutil.rmtree(out, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_id():
    """Git commit when available, else a digest of the benchmarked sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_workload(args, workload, commit):
    """Runs one workload in its own process.

    Returns (exit code, stdout lines, parsed last line or None)."""
    workdir = os.path.abspath(os.path.join(".bench_work", "run-%d" % os.getpid()))
    cmd = [os.path.join(build_dir(), "hpa_perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--commit", commit]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 2
        return subprocess.run([os.path.join(build_dir(), "perfbench_selftest")],
                              cwd=build_dir()).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build(["hpa_perfbench"]):
        log("build failed")
        return 2

    commit = source_id()
    if args.workload != "all":
        code, lines, result = run_workload(args, args.workload, commit)
        if result is None:
            log("benchmark produced no result (exit %d)" % code)
            return code or 1
        print("\n".join(lines), flush=True)
        return code

    # Every workload, each in its own process (peak RSS is per workload).
    # The last line merges them, metrics prefixed by workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines, result = run_workload(args, workload, commit)
        print("\n".join(lines[:-1]), flush=True)
        if result is None:
            log("%s: no result (exit %d)" % (workload, code))
            return code or 1
        worst = worst or code
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    print(json.dumps(merged), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
