#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_driver from source and runs one
workload of it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
driver (and the library it links) under .bench_build/. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Exits non-zero without a result when the build or any run
fails.

The measured seconds are split over PROCESSES fresh driver processes and
each metric is the mean of their values without the highest and the
lowest. On a shared host one core can run the same code 1.5x slower than
another while other work shares it, so a single-threaded process measures
the core it lands on; the driver pins the processes of its
single-threaded workloads to the allowed cores in turn (by
--process-index), and the trimmed mean averages over them. Each process
sets the library up afresh; set-up time is the median of theirs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
PROCESSES = 12
# Time one driver process may take beyond its share of --seconds: start,
# input generation, set-up, warm-up (at most 1 s) and the traced memcpy
# reference.
PROCESS_MARGIN_S = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=800)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if done.returncode != 0:
            fail(f"build step exited {done.returncode}: {' '.join(cmd)}")


def trimmed_mean(values):
    values = sorted(values)[1:-1]
    return sum(values) / len(values)


def drive(args, deadline):
    try:
        done = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"driver failed: {e}")
    if done.returncode != 0:
        fail(f"driver exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    return json.loads(lines[-1])


def main():
    # Workload and metric names and units come from BENCHMARK.json.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not 1 <= a.seconds <= 60:
        fail("--seconds must be within 1..60")

    build()
    deadline = time.monotonic() + a.seconds + PROCESSES * PROCESS_MARGIN_S
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds / PROCESSES), "--trace", str(a.trace)]
    runs = [drive(args + ["--process-index", str(i)], deadline)
            for i in range(PROCESSES)]

    wanted = spec["per_layer" if a.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        k = m["name"]
        if k in ("setup_s", "construct_ms", "plan_build_ms"):
            metrics[k] = statistics.median(r[k] for r in runs)
        elif all(k in r["metrics"] for r in runs):
            metrics[k] = trimmed_mean([r["metrics"][k] for r in runs])
        else:
            fail(f"driver did not report {k}")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0 and all(r["measured"] > 0 for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
