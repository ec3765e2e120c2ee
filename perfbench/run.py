#!/usr/bin/env python3
"""Builds and runs the xprel end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (any working directory works). The first run
configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later runs reuse the build. Everything the run writes
stays under .bench_build. The last line of standard output is the run's JSON
result; see perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("xpathmark-warm", "xpathmark-cold", "xmark-update")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found: expected src/ beside perfbench/")
    binary = os.path.join(BUILD_DIR, "perfbench")
    # Build output goes to stderr: stdout ends with the JSON result.
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            fail("cmake configure failed")
    rc = subprocess.call(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr)
    if rc != 0 or not os.path.isfile(binary):
        fail("build failed")
    return binary


def pin_to_one_cpu():
    """Runs in the benchmark's process before it starts.

    The workload is one closed-loop client whose operations run one at a
    time, so one CPU holds all of its work. Pinning keeps the query
    service's thread hand-offs on that CPU instead of waking an idle virtual
    CPU, whose wake-up latency swung read_p99_ms between about 1.3 and 5 ms
    from run to run on the 4-vCPU reference host.
    """
    os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[-1]})


def print_overhead(workload, traced, untraced_path):
    """Traced minus untraced end-to-end figures on the same workload."""
    if not os.path.isfile(untraced_path):
        print("tracing overhead: no untraced run of %s recorded yet" % workload)
        return
    with open(untraced_path) as f:
        untraced = json.load(f)
    print("tracing overhead on %s (traced minus the last untraced run, seed %s):"
          % (workload, untraced.get("seed")))
    for name, m in traced.items():
        base = untraced["metrics"].get(name)
        if base is None or base["value"] == 0:
            continue
        diff = m["value"] - base["value"]
        print("  %-28s %+12.6f %-6s (%+.1f%%)"
              % (name, diff, m["unit"], 100.0 * diff / base["value"]))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    work_dir = os.path.join(ROOT, ".bench_build", "perfbench-work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        fail("run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode,
             proc.returncode or 1)
    result_line = lines[-1]
    try:
        result = json.loads(result_line)
    except ValueError:
        fail("last output line is not JSON: " + result_line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result: " + result_line)

    traced_e2e = None
    for line in lines[:-1]:
        if line.startswith("e2e-under-trace "):
            traced_e2e = json.loads(line[len("e2e-under-trace "):])
        else:
            print(line)
    untraced_path = os.path.join(BUILD_DIR, "last-untraced-%s.json" % args.workload)
    if args.trace == 0:
        with open(untraced_path, "w") as f:
            json.dump({"seed": args.seed, "metrics": result["metrics"]}, f)
    elif traced_e2e is not None:
        print_overhead(args.workload, traced_e2e, untraced_path)
    # Spans of traced runs are kept; the durability directories are not.
    for entry in os.listdir(work_dir) if os.path.isdir(work_dir) else []:
        path = os.path.join(work_dir, entry)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    sys.stdout.write(result_line + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
