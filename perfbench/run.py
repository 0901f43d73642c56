#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <video_grid|image_grid>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Configures and builds the benchmark
(perfbench/CMakeLists.txt: the focus_core library plus the runner) in
$CARGO_TARGET_DIR, default .bench_build, then runs it with the given
arguments.  Build output goes to stderr, so the last stdout line
is the runner's JSON result.  Pass --record instead of the timing flags
(with --workload) to regenerate the stored output digests.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Knobs that change the measured program.  The runner refuses them
# too, but the library parses some of them before the runner's main()
# runs and aborts on a bad value, so they are refused here first.
PINNED_ENV = ("FOCUS_FUNC_CACHE", "FOCUS_SIM_BACKEND", "FOCUS_GEMM_BACKEND",
              "FOCUS_MATH_BACKEND", "FOCUS_PREFIX_CACHE", "FOCUS_OBS",
              "FOCUS_THREADS")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    for path in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, path)):
            fail(f"{path} not found next to perfbench/: run from a full "
                 "checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "focus_perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    for name in PINNED_ENV:
        if name in os.environ:
            fail(f"refusing to run with {name} set: it changes the "
                 "measured program, and the benchmark pins its "
                 "configuration itself (unset it)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build(build_dir)
    cmd = [os.path.join(build_dir, "focus_perfbench"), *sys.argv[1:],
           "--expected", os.path.join(HERE, "expected"),
           "--trace-dir", os.path.join(build_dir, "traces")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, check=False).returncode)


if __name__ == "__main__":
    main()
