#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. Everything it builds or writes goes
under .bench_build/ in that checkout. The last line of standard output is
the run's result as one JSON object; build output goes to standard error.
A checkout without the program's sources fails the build, and the script
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
# The build uses at most this many compile jobs (and never more than the
# machine has hardware threads), to stay small on shared machines.
MAX_JOBS = 4


def build(targets):
    """Configures (first time only) and builds; returns True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(MAX_JOBS, os.cpu_count() or 1)))
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main(argv):
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        print("run.py: run me from the root of a checkout", file=sys.stderr)
        return 2
    if argv[:1] == ["--self-test"]:
        if not build(["perfbench_tests"]):
            return 3
        test = os.path.join(BUILD_DIR, "perfbench_tests")
        return subprocess.run([test] + argv[1:]).returncode
    if not build(["wootz_cli", "perfbench"]):
        print("run.py: build failed", file=sys.stderr)
        return 3
    cli = os.path.join(BUILD_DIR, "wootz", "examples", "wootz_cli")
    program = os.path.join(BUILD_DIR, "perfbench")
    command = [program] + argv + ["--cli", cli, "--work", WORK_DIR,
                                 "--root", "."]
    # Replace this process, so a signal meant for the benchmark reaches
    # the benchmark program, which then stops its daemon.
    sys.stdout.flush()
    os.execv(program, command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
