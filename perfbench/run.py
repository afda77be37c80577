#!/usr/bin/env python3
"""Builds the engine and the benchmark program from source, then runs one
workload in a fresh process and relays its result.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

For one workload, the last line of standard output is one JSON object with
the keys "correct", "attempted", "failed" and "metrics". "all" runs every
workload, each in its own fresh process, and exits 1 if any answer was
wrong. The build goes to
$CARGO_TARGET_DIR (default .bench_build) under the repository root; every
run also leaves a report (and, traced, a span file) in <build>/results, or
in --results-dir, for compare.py.
"""

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("interactive", "analytic", "etl_churn")
# A run must end within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: engine sources (src/) not found; cannot build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed: " + " ".join(step))
            return False
    return True


def run_bench(workload, args, results_dir):
    """Runs perfbench in its own process group; returns (code, stdout)."""
    out = build_dir()
    cmd = [os.path.join(out, "perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(out, "engine", "worker"),
           "--out-dir", results_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: perfbench timed out; killing it and its worker daemons")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 1, ""
    finally:
        # Daemons share perfbench's process group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, stdout


def parse_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def overhead_line(workload, traced, results_dir):
    """Traced latency_p50_ms beside the untraced runs' median, if any."""
    untraced = []
    pattern = os.path.join(results_dir, "report-%s-seed*-trace0.json" % workload)
    for path in glob.glob(pattern):
        with open(path) as f:
            report = json.load(f)
        untraced.append(report["result"]["metrics"]["latency_p50_ms"]["value"])
    traced_p50 = traced["metrics"]["trace.latency_p50_ms"]["value"]
    if not untraced:
        return ("trace overhead: traced latency_p50_ms %.4f ms; no untraced "
                "run of %s in %s to compare with" % (traced_p50, workload, results_dir))
    base = statistics.median(untraced)
    return ("trace overhead: traced latency_p50_ms %.4f ms vs untraced %.4f ms "
            "(median of %d runs): %+.1f%%" % (
                traced_p50, base, len(untraced), 100.0 * (traced_p50 - base) / base))


def selftest():
    if not build(["perfbench_test"]):
        return 1
    code = subprocess.run([os.path.join(build_dir(), "perfbench_test")]).returncode
    code |= subprocess.run([sys.executable, "-m", "unittest", "-v", "test_compare"],
                           cwd=BENCH_DIR).returncode
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    started = time.monotonic()
    if not build(["perfbench", "presto_worker"]):
        return 1
    log("run.py: build ready in %.1f s" % (time.monotonic() - started))
    results_dir = os.path.abspath(
        args.results_dir or os.path.join(build_dir(), "results"))
    os.makedirs(results_dir, exist_ok=True)

    if args.workload != "all":
        return run_one(args.workload, args, results_dir, final=True)
    code = 0
    for workload in WORKLOADS:
        print("== %s" % workload, flush=True)
        code |= run_one(workload, args, results_dir, final=False)
    return code


def run_one(workload, args, results_dir, final):
    """Runs one workload and relays its output; with `final` the result
    JSON stays the last line, otherwise a wrong answer makes the code 1."""
    code, stdout = run_bench(workload, args, results_dir)
    lines = stdout.rstrip("\n").split("\n") if stdout else []
    result = parse_result(lines[-1]) if lines else None
    if code != 0 or result is None:
        sys.stderr.write(stdout)
        log("run.py: %s exited with code %d and no result" % (workload, code))
        return code or 1
    print("\n".join(lines[:-1]))
    if args.trace:
        print(overhead_line(workload, result, results_dir))
    if final:
        print(lines[-1], flush=True)
        return 0
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
