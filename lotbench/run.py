#!/usr/bin/env python3
"""Build and run the lot benchmark on one workload.

    python3 lotbench/run.py --workload lot_ideal --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The first run configures and
builds a Release tree under .bench_build/lotbench (the library from the
checkout's own sources plus the lotbench executable); later runs rebuild
incrementally.  Build output goes to stderr; the benchmark's result is the
last line of stdout.  Exits non-zero without a result when the build or the
benchmark fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "lotbench")
RUN_TIMEOUT_S = 170


def build():
    build_dir = os.path.join(ROOT, BUILD)
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "lotbench",
                    "-j", str(os.cpu_count() or 1)],
                   cwd=ROOT, stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "lotbench")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"lotbench: build failed: {error}", file=sys.stderr)
        return 2

    workdir = os.path.join(".bench_build", f"run-{os.getpid()}")
    command = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--workdir={workdir}", f"--git-sha={git_sha()}"]
    # Own process group, so a timeout also stops the fleet's workers.
    proc = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("lotbench: run timed out", file=sys.stderr)
        code = 124
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
