#!/usr/bin/env python3
"""Builds and runs the aqua end-to-end benchmark.

    python3 aquabench/run.py --workload file-to-answer --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark package (aquabench/CMakeLists.txt, which pulls in the repository's
own CMake project) into .bench_build/; later runs rebuild incrementally.
Each run then generates the workload's inputs from --seed into
.bench_build/work/, answers them with `aquabench run`, and prints the
result as the last line of standard output:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 1 prints the per-layer metrics instead of the end-to-end ones and
writes a Chrome trace-event file to .bench_build/traces/.
--workload all runs every workload once, one after the other.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["file-to-answer", "count-distribution", "service-mix"]
# Layers only service-mix exercises. service-mix is not a benchmark
# workload (its figures swing too much between runs on a shared host; see
# README.md), so a traced count-distribution run also runs it traced and
# reports these from it, keeping every layer measured.
SERVICE_LAYERS = ["server.overhead_ms", "server.response_bytes",
                  "core.grouped_ms", "core.nested_ms", "core.minmax_dist_ms"]
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("aquabench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("not run from the root of an aqua checkout (no src/CMakeLists.txt)")
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "aquabench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "aquabench", "aquad"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=880)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd), done.returncode or 2)
    return (os.path.join(build_dir, "aquabench"),
            os.path.join(build_dir, "aqua", "tools", "aquad"))


def run_one(root, bench, aquad, args, workload):
    work = os.path.join(root, BUILD_DIR, "work", "%s-%d" % (workload,
                                                             args.seed))
    traces = os.path.join(root, BUILD_DIR, "traces")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    try:
        gen = subprocess.run([bench, "gen", "--workload", workload, "--seed",
                              str(args.seed), "--dir", work],
                             stdout=sys.stderr, stderr=sys.stderr, timeout=120)
        if gen.returncode != 0:
            fail("input generation failed for " + workload, 1)
        cmd = [bench, "run", "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", work, "--aquad", aquad, "--trace-file",
               os.path.join(traces, "%s-%d.json" % (workload, args.seed))]
        if args.max_rounds:
            cmd += ["--max-rounds", str(args.max_rounds)]
        if args.perturb:
            cmd += ["--perturb", args.perturb]
        # A session of its own, so that a timeout also stops the aquad
        # children the benchmark spawned.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S),
                 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        fail("%s produced no result (exit %d)" % (workload, proc.returncode),
             proc.returncode or 1)
    return proc.returncode, lines[-1]


def merge_service_layers(result_line, service_line):
    result = json.loads(result_line)
    service = json.loads(service_line)
    for name in SERVICE_LAYERS:
        result["metrics"][name] = service["metrics"][name]
    result["correct"] = result["correct"] and service["correct"]
    result["attempted"] += service["attempted"]
    result["failed"] += service["failed"]
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-test knobs: a fixed number of rounds instead of a duration, and
    # one reference value shifted so that the checks must fail.
    parser.add_argument("--max-rounds", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--perturb", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()

    root = os.getcwd()
    bench, aquad = build(root)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    for workload in workloads:
        rc, result = run_one(root, bench, aquad, args, workload)
        code = code or rc
        if args.trace and workload == "count-distribution":
            rc, service = run_one(root, bench, aquad, args, "service-mix")
            code = code or rc
            result = merge_service_layers(result, service)
        print(("%s: %s" % (workload, result)) if args.workload == "all"
              else result)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
