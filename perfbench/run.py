#!/usr/bin/env python3
"""Build the psnap Release runtime and run one benchmark workload.

    python3 perfbench/run.py --workload ingest_collect --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The binary is built (CMake, Release) into
$CARGO_TARGET_DIR if set, else .bench_build/, on first use and brought up
to date on every run.  All build output goes to stderr; standard output
carries the run's table, one full JSON record, and as its last line
{"correct", "attempted", "failed", "metrics"}.  Redirect standard output
into a file to keep the full record for compare.py.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_collect", "versioned_read", "checkpoint_restore")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(d)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(bdir)  # configured from another source tree
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=False)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "perfbench")


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10, check=False)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the checks' self-test instead of a workload")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    bdir = build_dir()
    binary = build(bdir)
    scratch = os.path.join(bdir, f"run-{os.getpid()}")
    cmd = [binary, "--dir", scratch]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--git-sha", git_sha()]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                           check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(r.stderr)
    sys.stdout.write(r.stdout)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
