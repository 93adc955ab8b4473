#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload, check
the output, print the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root (any directory works; paths are derived from this
file). The first run configures and builds the program's libraries and the
perfbench binary into .bench_build/perfbench (RelWithDebInfo, the repository's
default build type); later runs only re-check the build.

Standard output carries the binary's info line (host fingerprint, modules the
workload calls into, phase details) and, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}. A readable table of the metrics
goes to standard error. Any failure names the workload on standard error and
exits non-zero: 2 for a checkout that cannot be built, 1 for everything else.

--self-test runs every workload for two seconds, untraced and traced, and
checks the result schema and the correctness checks.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_CAP_S = 175  # wall-clock cap of one workload run, build excluded


def fail(workload, msg, code=1):
    print(f"perfbench[{workload}]: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec(workload):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(workload, f"cannot read {path}: {e}", 2)


def build(workload):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(workload, "program sources (src/) not found next to perfbench/; nothing to build", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(workload, "build failed: " + " ".join(cmd), 2)


def check_result(result, names_units):
    """Schema problems of one result object (empty list when it is well formed)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            problems.append(f"'{key}' is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("'attempted' is below 1")
    metrics = result["metrics"]
    if set(metrics) != set(names_units):
        missing = sorted(set(names_units) - set(metrics))
        extra = sorted(set(metrics) - set(names_units))
        problems.append(f"metric names differ: missing {missing}, unexpected {extra}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"}:
            problems.append(f"metric {name} has keys {sorted(m)}")
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"metric {name} is not a finite number")
        if name in names_units and m["unit"] != names_units[name]:
            problems.append(f"metric {name} has unit {m['unit']}, expected {names_units[name]}")
    return problems


def run_once(workload, seed, seconds, trace, spec):
    """Runs the binary; returns (info lines, result dict, problems)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_CAP_S)
    except subprocess.TimeoutExpired:
        fail(workload, f"exceeded the {RUN_CAP_S} s wall-clock cap")
    sys.stderr.write(proc.stderr)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        fail(workload, f"no output (exit code {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(workload, f"last output line is not JSON (exit code {proc.returncode})")
    section = "per_layer" if trace else "end_to_end"
    names_units = {m["name"]: m["unit"] for m in spec[section]}
    problems = check_result(result, names_units)
    if proc.returncode != 0:
        problems.append(f"perfbench exited with code {proc.returncode}")
    if result.get("correct") is not True:
        problems.append("correctness checks failed")
    return lines[:-1], result, problems


def table(metrics):
    rows = sorted(metrics.items())
    width = max((len(n) for n, _ in rows), default=0)
    return "\n".join(f"  {n:<{width}}  {m['value']:>16.6g} {m['unit']}" for n, m in rows)


def measured(info_lines):
    """Every end-to-end figure the run measured, bounded or not (info line)."""
    for line in info_lines:
        try:
            return json.loads(line)["perfbench_info"]["measured"]
        except (ValueError, KeyError, TypeError):
            continue
    return {}


def list_workloads(workload):
    proc = subprocess.run([BINARY, "--list"], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(workload, "perfbench --list failed")
    return proc.stdout.split()


def self_test():
    """Every workload perfbench knows (BENCHMARK.json's and the ones kept only
    for manual runs), briefly, untraced and traced."""
    spec = load_spec("self-test")
    build("self-test")
    failures = 0
    for name in list_workloads("self-test"):
        for trace in (0, 1):
            start = time.time()
            _, result, problems = run_once(name, 7, 2, trace, spec)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-test {name} trace={trace}: {status} ({time.time() - start:.1f} s, "
                  f"{result.get('attempted')} ops)", file=sys.stderr)
            failures += bool(problems)
    print(json.dumps({"self_test": "pass" if failures == 0 else "fail", "failures": failures}))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    spec = load_spec(args.workload)
    build(args.workload)
    if args.workload not in list_workloads(args.workload):
        fail(args.workload, "not a workload of perfbench")
    info, result, problems = run_once(args.workload, args.seed, args.seconds, args.trace, spec)
    for line in info:
        print(line)
    print(f"perfbench[{args.workload}] seed={args.seed} trace={args.trace}, reported:\n"
          f"{table(result['metrics'])}\nmeasured at the fixed load (untraced):\n"
          f"{table(measured(info))}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    if problems:
        fail(args.workload, "; ".join(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main())
