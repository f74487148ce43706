#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload steady_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own tests

Run from the repo root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to stderr, so the last
line of stdout is the run's JSON result. Exits non-zero, printing no
result, when the build fails -- for instance when the repo's sources are
not next to this directory.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out, target):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()
    if not args.test and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    target = "perfbench_test" if args.test else "perfbench"
    if not build(out, target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.test:
        return subprocess.run([os.path.join(out, "perfbench_test")],
                              cwd=out).returncode
    work = os.path.join(out, "work",
                        "%s-%d-%d" % (args.workload, args.seed, args.trace))
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
