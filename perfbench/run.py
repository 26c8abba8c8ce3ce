#!/usr/bin/env python3
"""Builds the benchmark from the sources next to this directory and runs one workload.

    python3 perfbench/run.py --workload <tts_sweep|tts_toy|serve_open> --seed <n>
                             --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench, relative to the checkout); the first run configures and
compiles, later runs rebuild only what changed. The workload runs in one process with two
host lanes (HEXLLM_NUM_THREADS=2) and a fixed malloc configuration (one arena, a fixed
mmap threshold). Its output ends with the JSON result line; build output
goes to stderr. With --trace 1 the Chrome trace of the traced pass is written next to the
build. Exits non-zero, printing no result, when the sources are missing, the build fails,
or the run fails or times out.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LANES = "2"
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no hexllm sources at " + os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--reference-dir", os.path.join(HERE, "reference"),
    ]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(target, "trace_%s_%d.json" % (args.workload, args.seed))]
    # A fixed malloc configuration, so the peak resident set and the host time measure the
    # program rather than glibc's heuristics: one arena (no extra arenas opened when
    # threads happen to contend) and a fixed mmap threshold (no dynamic raise that moves
    # the simulator's multi-MiB buffers onto the heap depending on the allocation order).
    env = dict(os.environ, HEXLLM_NUM_THREADS=LANES, MALLOC_ARENA_MAX="1",
               MALLOC_MMAP_THRESHOLD_="131072")
    print("host: nproc %d, lanes %s" % (os.cpu_count() or 0, LANES), flush=True)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
