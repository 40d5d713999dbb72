#!/usr/bin/env python3
"""Builds the dhqp benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload tpch_local --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The engine library and the harness
are built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the build is incremental, so only the first run
compiles. Build output goes to stderr, so the last line of stdout is the
harness's JSON result. Workloads: tpch_local, tpch_governed,
federated_adhoc, tpcc_oltp (see BENCHMARK.json for why each exists).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if argv == ["--selftest"]:
        binary, args = os.path.join(build_dir, "perfbench_selftest"), []
    else:
        binary, args = os.path.join(build_dir, "dhqp_perf"), argv
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
