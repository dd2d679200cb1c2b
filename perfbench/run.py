#!/usr/bin/env python3
"""Build the estimation service in Release and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); every run rebuilds incrementally first. The
benchmark's result is the last line of standard output; build output goes to
standard error. Exits non-zero, printing no result, when the build fails.
"""
import os
import subprocess
import sys


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    jobs = str(os.cpu_count() or 1)

    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 2

    harness = [os.path.join(build_dir, "segbus_perfbench")]
    if "--self-test" in argv:
        return subprocess.run(harness + ["--self-test"]).returncode
    server = os.path.join(build_dir, "segbus", "tools", "segbus_cli")
    command = harness + argv + ["--server", server,
                               "--work-dir", os.path.join(build_dir, "runs")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
