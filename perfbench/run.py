#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload views_hot --seed 1 --seconds 40 \
        --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and compiles the
xvr library and the driver (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild incrementally. Build output goes to a log file there, so the
driver's stdout, whose last line is the JSON result, passes through
untouched. The exit code is the driver's: 0, or nonzero on a build failure,
a wrong answer or a timeout.

--selftest runs the helper unit tests, then checks that the driver passes a
clean short run and exits nonzero when one answer is deliberately corrupted.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Each run must finish within 180 s; keep a margin for the process exit.
DRIVER_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out_dir):
    """Configures and builds; returns True on success."""
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep compiler temporaries inside the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", os.path.join(out_dir, "cmake"),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", os.path.join(out_dir, "cmake"), "-j", jobs],
        ):
            status = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                     env=env)
            if status != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return False
    return True


def run_driver(out_dir, args, capture=False):
    """Runs the driver; returns (exit code, stdout or None)."""
    cmd = [os.path.join(out_dir, "cmake", "xvr_perfbench"),
           "--scratch", os.path.join(out_dir, "run")] + args
    try:
        proc = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out\n")
        return 124, None
    return proc.returncode, proc.stdout


def selftest(out_dir):
    unit = os.path.join(out_dir, "cmake", "perfbench_selftest")
    ok = subprocess.call([unit]) == 0
    base = ["--workload", "views_hot", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    code, out = run_driver(out_dir, base, capture=True)
    clean = code == 0 and json.loads(out.strip().splitlines()[-1])["correct"]
    print("clean run: exit %d, %s" %
          (code, "correct" if clean else "NOT correct"))
    code, out = run_driver(out_dir, base + ["--corrupt-answer"], capture=True)
    caught = code != 0 and out is not None and \
        not json.loads(out.strip().splitlines()[-1])["correct"]
    print("corrupted answer: exit %d, %s" %
          (code, "caught" if caught else "MISSED"))
    ok = ok and clean and caught
    print("perfbench selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    out_dir = build_dir()
    if not build(out_dir):
        return 1
    if args.selftest:
        return selftest(out_dir)
    if not args.workload:
        parser.error("--workload is required")
    sys.stdout.flush()
    code, _ = run_driver(out_dir, [
        "--workload", args.workload, "--seed", args.seed,
        "--seconds", args.seconds, "--trace", args.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
