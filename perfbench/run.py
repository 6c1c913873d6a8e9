#!/usr/bin/env python3
"""Build and run the ANTAREX end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (an optimised CMake build of
the library sources under src/ plus the perfbench binary) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls rebuild incrementally. The binary's standard output is
passed through; its last line is the result JSON. Exact work counts are kept
per (workload, seed) in .bench_out/ and any drift from an earlier run at the
same seed is reported before the result line.
"""
import fcntl
import json
import os
import subprocess
import sys

OPTIMISED = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(code)


def cache_build_type(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        return None
    return ""


def build(root, bench_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if cache_build_type(build_dir) is None:
            cmd = ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=root).returncode:
                fail(f"configure failed, see {log_path}")
        build_type = cache_build_type(build_dir)
        if build_type not in OPTIMISED:
            fail(f"refusing an unoptimised build (CMAKE_BUILD_TYPE={build_type!r})", 3)
        jobs = str(max(1, os.cpu_count() or 1))
        cmd = ["cmake", "--build", build_dir, "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=root).returncode:
            fail(f"build failed, see {log_path}")
    return os.path.join(build_dir, "perfbench")


def arg_value(argv, name):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def report_drift(root, argv):
    """Compare this run's exact work counts with the first run at the same seed."""
    workload, seed, trace = (arg_value(argv, n) for n in ("--workload", "--seed", "--trace"))
    if not (workload and seed and trace):
        return []
    out_dir = os.path.join(root, ".bench_out")
    record = os.path.join(out_dir, f"result_{workload}_seed{seed}_trace{trace}.json")
    try:
        with open(record) as f:
            counts = json.load(f)["exact_counts"]
    except (OSError, ValueError, KeyError):
        return ["exact counts: no record written"]
    stored = os.path.join(out_dir, f"counts_{workload}_seed{seed}.json")
    if not os.path.exists(stored):
        with open(stored, "w") as f:
            json.dump(counts, f, indent=1, sort_keys=True)
        return [f"exact counts: recorded {len(counts)} for seed {seed}"]
    with open(stored) as f:
        before = json.load(f)
    drift = [f"count drift: {k} {before.get(k)} -> {counts.get(k)}"
             for k in sorted(set(before) | set(counts)) if before.get(k) != counts.get(k)]
    return drift or [f"exact counts: {len(counts)} repeat exactly at seed {seed}"]


def main():
    argv = sys.argv[1:]
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "rtrm", "sharded_cluster.hpp")):
        fail(f"the program's sources are not under {os.path.join(root, 'src')}", 2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(root, target)), "perfbench")
    binary = build(root, bench_dir, build_dir)

    try:
        proc = subprocess.run([binary] + argv, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or "--selftest" in argv:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    if not lines or not lines[-1].startswith("{"):
        fail("the perfbench binary printed no result")
    for line in lines[:-1] + report_drift(root, argv):
        print(line)
    print(lines[-1])


if __name__ == "__main__":
    main()
