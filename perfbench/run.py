#!/usr/bin/env python3
"""Repository benchmark: builds the engine and the perfbench program from
source, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. Workloads: tpch-native, interactive,
elastic-switch, deadline-tuner (see BENCHMARK.json). The output lists the
run's engine settings and every metric by name with its unit; the last line
is one JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

A traced run first repeats the same run untraced, then reports the tracing
overhead as the difference of the two query_geomean_ms values, and leaves a
Chrome trace-event file under <build dir>/traces.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build).
Expected results are re-recorded, after a deliberate change of results, with

    python3 perfbench/run.py --record-expected > perfbench/expected.txt
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_BUDGET_S = 175  # a run must end within 180 s, build excluded
BUILD_BUDGET_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures and builds perfbench; returns its path or None."""
    configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    for cmd in (configure,
                ["cmake", "--build", out_dir, "-j", jobs,
                 "--target", "perfbench"]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_BUDGET_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("build failed:", error)
            return None
        if done.returncode != 0:
            log("build failed:", " ".join(cmd))
            return None
    return os.path.join(out_dir, "perfbench")


def run_perfbench(binary, args, trace, deadline, echo):
    """Runs one workload; returns its parsed last line or None."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--expected", os.path.join(BENCH_DIR, "expected.txt"),
           "--trace-dir", os.path.join(os.path.dirname(binary), "traces")]
    os.makedirs(os.path.join(os.path.dirname(binary), "traces"), exist_ok=True)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run exceeded its time budget")
        return None
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=echo)
    if done.returncode != 0 or not lines:
        log("perfbench exited with code", done.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not JSON:", lines[-1])
        return None
    return result


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, if present."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()

    binary = build(build_dir())
    if binary is None:
        return 1
    if args.record_expected:
        return subprocess.run([binary, "--record-expected"]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        # Same seed, untraced, as the base of the tracing overhead.
        base = run_perfbench(binary, args, 0, deadline, sys.stderr)
        if base is None:
            return 1
    result = run_perfbench(binary, args, args.trace, deadline, sys.stdout)
    if result is None:
        return 1
    metrics = result["metrics"]
    if args.trace:
        base_ms = base["metrics"]["query_geomean_ms"]["value"]
        traced_ms = metrics["trace.query_geomean_ms"]["value"]
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_ms - base_ms) / base_ms, "unit": "%"}
        result["correct"] = result["correct"] and base["correct"]
    names = expected_metrics(args.trace)
    if names is not None and names != set(metrics):
        log("metric set differs from BENCHMARK.json:",
            sorted(names ^ set(metrics)))
        return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
