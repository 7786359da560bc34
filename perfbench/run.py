#!/usr/bin/env python3
"""Attack-pipeline benchmark entry point.

Run from the root of a pcss checkout:

    python3 perfbench/run.py --workload color_plan --seed 1 --seconds 20 --trace 0

It builds pcss and the pcss_perfbench driver from source (CMake, Release)
into the build directory ($CARGO_TARGET_DIR, else .bench_build), trains the
model zoo and warms the serve store once per build directory (the prepare
step, printed but excluded from every metric), then runs one measurement.
Progress and a readable metric table go to stderr; the last line of stdout
is the result object {correct, attempted, failed, metrics}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def run_checked(command):
    """Runs `command` with its output on stderr; raises on failure."""
    subprocess.run(command, check=True, stdout=sys.stderr)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", cmake_dir, "--target", "pcss_perfbench", "-j", jobs])
    return os.path.join(cmake_dir, "pcss_perfbench")


def prepare(binary, build_dir, artifacts, serve_store):
    stamp = os.path.join(build_dir, "prepared")
    if os.path.exists(stamp):
        return
    # The driver prints the step's duration; no metric includes it.
    run_checked([binary, "prepare", "--artifacts", artifacts, "--serve-store", serve_store])
    with open(stamp, "w") as out:
        out.write("ok\n")


def load_benchmark():
    with open("BENCHMARK.json") as src:
        return json.load(src)


def validate(result, benchmark, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(result))
    section = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s"
                         % (missing, extra, wrong))
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")


def main():
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # Relative paths keep the serve socket path short (sockaddr_un limit).
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    try:
        binary = build(build_dir)
        artifacts = os.path.join(build_dir, "artifacts")
        serve_store = os.path.join(build_dir, "serve_store")
        prepare(binary, build_dir, artifacts, serve_store)
        completed = subprocess.run(
            [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--artifacts", artifacts, "--serve-store", serve_store, "--scratch", scratch,
             "--reference", os.path.join(HERE, "reference_digests.json"),
             "--trace-dir", os.path.join(build_dir, "traces")],
            check=True, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
        lines = completed.stdout.strip().splitlines()
        if not lines:
            raise ValueError("driver printed no result")
        result = json.loads(lines[-1])
        validate(result, benchmark, args.trace)
    except (subprocess.SubprocessError, OSError, ValueError) as error:
        log("error: %s" % error)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
