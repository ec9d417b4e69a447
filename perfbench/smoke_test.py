#!/usr/bin/env python3
"""Smoke test of the yac benchmark: every workload at its tiny size.

    python3 perfbench/smoke_test.py [workload ...]

Runs perfbench/run.py --tiny with --trace 0 and --trace 1 for each
workload (all four by default) and checks that
  - every metric BENCHMARK.json names is printed with its unit, as a
    `metric` line and in the final JSON line;
  - the per-layer self times plus unaccounted_s, which the replay
    computes from its own clock, add up to the traced wall time that
    run.py measures from outside, within the time it takes to start and
    end a process (START_TOLERANCE_S), and no self time is negative;
  - the output checks pass: correct, and no failed invocation.
Exits 1 if any check fails.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
START_TOLERANCE_S = 0.25  # exec, dynamic loading, static init and exit


def run(workload, trace):
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stdout + proc.stderr
    return json.loads(lines[-1]), lines


def check(workload, trace, wanted):
    result, lines = run(workload, trace)
    if result is None:
        return ["run.py failed:\n" + lines]
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append("output checks failed (%d of %d invocations)" %
                        (result["failed"], result["attempted"]))
    printed = {tuple(l.split()[1:4:2]) for l in lines
               if l.startswith("metric ")}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            problems.append("%s [%s] missing from the JSON line" %
                            (name, unit))
        if (name, unit) not in printed:
            problems.append("%s [%s] has no metric line" % (name, unit))
    if trace == 1 and not problems:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        selfs = {k: v for k, v in m.items() if k.endswith(".self_s")}
        wall = m["trace.wall_s"]
        layers = sum(selfs.values())
        outside = wall - (layers + m["unaccounted_s"])
        if not 0.0 <= outside <= START_TOLERANCE_S:
            problems.append("layers %.6f + unaccounted %.6f is %.6f s off "
                            "the wall time %.6f" %
                            (layers, m["unaccounted_s"], outside, wall))
        if m["unaccounted_s"] < 0.0 or min(selfs.values()) < 0.0:
            problems.append("a negative self time: %s, unaccounted %.6f" %
                            (selfs, m["unaccounted_s"]))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    failed = False
    for workload in workloads:
        for trace, wanted in ((0, bench["end_to_end"]),
                              (1, bench["per_layer"])):
            problems = check(workload, trace, wanted)
            print("%-18s trace=%d %s" % (workload, trace,
                                         "ok" if not problems else "FAIL"))
            for p in problems:
                print("    " + p)
            failed |= bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
