#!/usr/bin/env python3
"""The yac benchmark: four workloads run through the shipped binaries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a yac checkout. It builds `yac`, `yacd`,
`yac_opt` and the traced replay tool `yac_layer_trace` from source
into .bench_build/ (a Release build of perfbench/CMakeLists.txt),
then:

  --trace 0  runs the workload's command, untraced, over and over for
             --seconds and prints the end-to-end metrics: median wall
             time, throughput, CPU time, peak RSS and set-up time;
  --trace 1  runs the command and the traced replay of it a few times
             each and prints the per-layer metrics of the median
             replay.

Every invocation's output is checked: against the references recorded
in perfbench/reference/ at the reference seed, across repetitions, and
against a second command that must agree (yacd run vs yacd single, a
warm optimizer resume vs the cold search, the replay vs the command).
An invocation that exits non-zero, times out or mismatches counts as
failed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
TARGETS = ["yac_cli", "yacd", "yac_opt_cli", "yac_layer_trace"]

THREADS = 2             # every workload runs from one process at 2 threads
REFERENCE_SEED = 2006   # the seed the recorded references were made at
INPUTS = 4              # a run's inputs: seeds N * 4 + k, k < 4
SETUP_REPS = 15         # set-up-size invocations per run (median reported)
MAX_FAILS = 3           # failed measured invocations before a run gives up
TRACE_REPS = 3          # traced replays per --trace 1 run (odd: a median)
CALL_TIMEOUT_S = 60.0   # one invocation; a hang counts as a failed op
RUN_BUDGET_S = 160.0    # all invocations of one run, after the build

END_TO_END = [  # name, unit: gated by BENCHMARK.json, printed for all
    ("wall_s", "s"),
    ("chips_per_s", "chips/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
PER_LAYER_UNITS = {
    "variation.sample_s": "s", "variation.chips_per_s": "chips/s",
    "circuit.evaluate_s": "s", "circuit.chips_per_s": "chips/s",
    "yield.pilot_s": "s", "yield.pilot_chips": "chips",
    "yield.loss_table_s": "s", "yield.screen_s": "s",
    "yield.bytes_per_chip": "B/chip",
    "sim.runs": "count", "sim.busy_s": "thread-s",
    "sim.insts_per_s": "insts/s", "sim.cache_hit_ratio": "1",
    "service.shard_eval_s": "s", "service.checkpoint_write_s": "s",
    "service.checkpoint_writes": "count", "service.checkpoint_bytes": "B",
    "service.checkpoint_read_s": "s", "service.merge_s": "s",
    "service.shard_imbalance": "1",
    "opt.probe_s": "s", "opt.campaigns": "count",
    "opt.cache_hit_ratio": "1", "opt.cache_io_s": "s",
    "opt.search_overhead_s": "s",
    "variation.self_s": "s", "circuit.self_s": "s", "yield.self_s": "s",
    "sim.self_s": "s", "service.self_s": "s", "opt.self_s": "s",
    "unaccounted_s": "s", "trace.replay_s": "s", "trace.wall_s": "s",
    "trace.overhead_frac": "1",
}


# --------------------------------------------------------------------------
# Workloads: the command line of each size, and what of its output is
# compared. "full" is the measured size, "setup" the smallest one (a
# two-chip campaign in one chunk, or one probe), "tiny" the smoke
# test's stand-in for "full".

def final_line(stdout):
    lines = [l for l in stdout.splitlines() if l.startswith("FINAL ")]
    return lines[-1] if len(lines) == 1 else None


def yield_table(stdout):
    """`yac yield`'s report: header, loss table and yield line."""
    lines = [l.rstrip() for l in stdout.splitlines()
             if not l.startswith("LAYERS ")]
    return "\n".join(lines).strip() if any(
        l.startswith("yield: ") for l in lines) else None


def final_field(line, key):
    m = re.search(r"\b%s=(\S+)" % re.escape(key), line or "")
    return m.group(1) if m else None


class Workload:
    name = ""
    why = ""
    sizes = {}
    setup_reps = SETUP_REPS
    needs_avx2 = False
    result = staticmethod(final_line)  # the compared output lines

    def __init__(self, bins, work):
        self.bins = bins
        self.work = work

    def argv(self, size, seed, tag):
        raise NotImplementedError

    def replay_argv(self, size, seed, tag):
        raise NotImplementedError

    def chips(self, size, result):
        return self.sizes[size]

    def cross_check(self, size, seed, result, ops):
        """Untimed second opinion on a measured result."""

    def extra_metrics(self, result, wall):
        """Workload-specific end-to-end metrics: name -> (value, unit)."""
        se = final_field(result, "se")
        if se is None:
            return {}
        chips = int(final_field(result, "chips"))
        return {"chips_to_se": (chips * (float(se) / 1e-3) ** 2, "chips")}

    def clean(self, tag):
        """Drop the state an invocation tagged `tag` left behind."""
        for name in ("state-", "opt-"):
            shutil.rmtree(os.path.join(self.work, name + tag),
                          ignore_errors=True)
        cache = os.path.join(self.work, "probes-%s.bin" % tag)
        if os.path.exists(cache):
            os.remove(cache)


class YieldScalar(Workload):
    name = "yield_scalar"
    why = ("scalar bitwise reference path, whole population in memory: "
           "sampling and evaluation kernels plus RSS")
    sizes = {"full": 30000, "setup": 2, "tiny": 512}
    result = staticmethod(yield_table)

    def flags(self, size, seed):
        return ["--engine", "simd=off,sampling=naive",
                "--chips", str(self.sizes[size]),
                "--threads", str(THREADS), "--seed", str(seed)]

    def argv(self, size, seed, tag):
        return [self.bins["yac"], "yield"] + self.flags(size, seed)

    def replay_argv(self, size, seed, tag):
        return [self.bins["trace"], "--workload", self.name] + \
            self.flags(size, seed)


class YacdTiltedAvx2(Workload):
    name = "yacd_tilted_avx2"
    why = ("sharded yacd run: pilot, fork/exec'd workers, checkpoints "
           "and merge on AVX2 tilted sampling")
    sizes = {"full": 40000, "setup": 2, "tiny": 1024}
    needs_avx2 = True

    def flags(self, size, seed):
        return ["--engine", "sampling=tilted,simd=avx2",
                "--chips", str(self.sizes[size]),
                "--threads", str(THREADS), "--seed", str(seed)]

    def argv(self, size, seed, tag):
        return [self.bins["yacd"], "run"] + self.flags(size, seed) + [
            "--max-workers", "2", "--worker-threads", "1",
            "--state-dir", os.path.join(self.work, "state-" + tag)]

    def replay_argv(self, size, seed, tag):
        return [self.bins["trace"], "--workload", self.name] + \
            self.flags(size, seed) + [
                "--state-dir", os.path.join(self.work, "state-" + tag)]

    def cross_check(self, size, seed, result, ops):
        single = ops.call([self.bins["yacd"], "single"] +
                          self.flags(size, seed), "yacd single")
        if single and final_line(single.stdout) != result:
            ops.fail("yacd single FINAL differs from yacd run")


class OptSearch(Workload):
    name = "opt_search"
    why = ("design-space search of 2000-chip probe campaigns with a "
           "cold probe cache: per-campaign fixed costs and binning")
    sizes = {"full": 12, "setup": 1, "tiny": 2}  # probe budget
    probe_chips = 2000

    def flags(self, size, seed):
        return ["--budget", str(self.sizes[size]),
                "--chips", str(self.probe_chips),
                "--threads", str(THREADS), "--seed", str(seed),
                "--opt-seed", str(seed)]

    def cache(self, tag):
        return os.path.join(self.work, "probes-%s.bin" % tag)

    def argv(self, size, seed, tag):
        return [self.bins["yac_opt"]] + self.flags(size, seed) + [
            "--probe-cache", self.cache(tag),
            "--out-dir", os.path.join(self.work, "opt-" + tag)]

    def replay_argv(self, size, seed, tag):
        return [self.bins["trace"], "--workload", self.name] + \
            self.flags(size, seed) + ["--probe-cache", self.cache(tag)]

    def chips(self, size, result):
        return int(final_field(result, "campaigns") or 0) * self.probe_chips

    def extra_metrics(self, result, wall):
        return {"probes_per_s":
                (int(final_field(result, "probes")) / wall, "probes/s")}

    def cross_check(self, size, seed, result, ops):
        # Warm resume on the probe cache the last measured run left.
        warm = ops.call(self.argv(size, seed, "last"), "warm resume")
        if not warm:
            return
        line = final_line(warm.stdout)
        budget = str(self.sizes[size])
        strip = lambda l: re.sub(r" (campaigns|hits)=\d+", "", l or "")
        if (final_field(line, "hits") != budget or
                final_field(line, "campaigns") != "0" or
                strip(line) != strip(result)):
            ops.fail("warm resume: want hits=%s campaigns=0 and the "
                     "cold FINAL, got %s" % (budget, line))


class CpiExact(Workload):
    """The input seed is the simulator's trace seed; the chips are the
    reference population. Which shipped configurations a population
    holds, and so how many simulations it needs, varies by a quarter
    from one population seed to the next; the trace seed changes every
    simulation but not their number, so every input is the same
    amount of work."""
    name = "cpi_exact"
    why = ("exact CPI pricing of every shipped chip by pipeline "
           "simulation, explicit limits: the sim layer")
    sizes = {"full": 256, "setup": 2, "tiny": 64}
    setup_reps = 5  # each is a second of baseline simulations

    def flags(self, size, seed):
        return ["--carry-cpi=1", "--engine", "cpi=sim",
                "--chips", str(self.sizes[size]),
                "--threads", str(THREADS), "--seed", str(REFERENCE_SEED),
                "--cpi-sim-seed", str(seed),
                "--delay-limit-ps", "282", "--leakage-limit-mw", "61",
                "--cpi-warmup-insts", "500", "--cpi-measure-insts", "2000"]

    def argv(self, size, seed, tag):
        return [self.bins["yacd"], "single"] + self.flags(size, seed)

    def replay_argv(self, size, seed, tag):
        return [self.bins["trace"], "--workload", self.name] + \
            self.flags(size, seed)


WORKLOADS = {w.name: w for w in
             (YieldScalar, YacdTiltedAvx2, OptSearch, CpiExact)}


# --------------------------------------------------------------------------
# Invocations

class Call:
    def __init__(self, stdout, wall, cpu, rss_kb):
        self.stdout = stdout
        self.wall = wall
        self.cpu = cpu
        self.rss_kb = rss_kb


class Ops:
    """Counts invocations and failures; runs one process tree at a time."""

    def __init__(self, work):
        self.work = work
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.serial = 0

    def fail(self, why):
        self.failed += 1
        print("FAILED %s" % why, flush=True)

    def call(self, argv, what):
        """Run argv to completion; a Call, or None when it failed.

        wait4 gives the user+sys time and the largest resident set of
        the whole process tree: the child's own plus every descendant
        it waited for (yacd's workers)."""
        self.attempted += 1
        self.serial += 1
        timeout = min(CALL_TIMEOUT_S, self.deadline - time.perf_counter())
        if timeout <= 0:
            self.fail("%s: not started, the run is out of time" % what)
            return None
        out_path = os.path.join(self.work, "out-%d.txt" % self.serial)
        with open(out_path, "w") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, stdout=out,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(timeout, _kill_tree, [proc.pid])
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # SIGTERM, ^C: leave no process behind
                _kill_tree(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as f:
            stdout = f.read()
        os.remove(out_path)
        if proc.returncode != 0:
            tail = "\n".join(stdout.splitlines()[-5:])
            self.fail("%s: exit %d (%s)\n%s" % (
                what, proc.returncode,
                "timeout" if wall >= timeout else "error", tail))
            return None
        return Call(stdout, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss)


def _kill_tree(pid):
    try:
        os.killpg(pid, 9)
    except ProcessLookupError:
        pass


# --------------------------------------------------------------------------
# Build and host

def build():
    """Configure once, then bring the binaries up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: %s is not a yac checkout (no src/)" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    configured = os.path.isfile(cache)
    steps = [] if configured else [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"]]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] +
                 TARGETS)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                if not configured and os.path.exists(cache):
                    os.remove(cache)  # configure again next time
                sys.exit("perfbench: build failed (%s)" % log_path)
    return {
        "yac": os.path.join(BUILD_DIR, "yac_tools", "yac"),
        "yacd": os.path.join(BUILD_DIR, "yac_tools", "yacd"),
        "yac_opt": os.path.join(BUILD_DIR, "yac_tools", "yac_opt"),
        "trace": os.path.join(BUILD_DIR, "yac_layer_trace"),
    }


def host_info(bins):
    """nproc and AVX2/FMA from the library's own CPUID check; build
    type and compiler from the build's CMake cache."""
    out = subprocess.run([bins["trace"], "--workload", "host"],
                         capture_output=True, text=True).stdout
    info = dict(kv.split("=", 1) for kv in out.split()[1:])
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"(\w+):\w+=(.*)", line)
            if m:
                cache[m.group(1)] = m.group(2).strip()
    compiler = os.path.basename(cache.get("CMAKE_CXX_COMPILER", "?"))
    version = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"),
                              "-dumpfullversion"], capture_output=True,
                             text=True).stdout.strip()
    info["build_type"] = cache.get("CMAKE_BUILD_TYPE", "?")
    info["compiler"] = "%s-%s" % (compiler, version or "?")
    return info


# --------------------------------------------------------------------------
# The two kinds of run

def reference_check(wl, ops, size, result, record):
    path = os.path.join(REFERENCE_DIR, "%s.%s.txt" % (wl.name, size))
    if record:
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        with open(path, "w") as f:
            f.write(result + "\n")
        return
    try:
        with open(path) as f:
            want = f.read().rstrip("\n")
    except FileNotFoundError:
        ops.fail("no reference %s" % path)
        return
    if result != want:
        ops.fail("%s output differs from %s:\n%s" % (size, path, result))


def measured(ops, wl, size, seed, seconds, tag):
    """Invoke the workload on each of the run's INPUTS input seeds in
    turn, round after round until `seconds` have passed (one round at
    least), and keep the complete rounds only: every input is measured
    equally often, so a faster program takes its medians over the same
    inputs as a slower one, and they average over inputs whose work
    differs (the shipped-configuration mix of cpi_exact). Returns
    [(seed, call, result)]."""
    runs, fails = [], 0
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        round_runs = []
        for k in range(INPUTS):
            input_seed = seed * INPUTS + k
            wl.clean(tag)
            call = ops.call(wl.argv(size, input_seed, tag), wl.name)
            got = wl.result(call.stdout) if call else None
            if call and got is None:
                ops.fail("%s printed no result line" % wl.name)
            if got is None:
                fails += 1
                if fails >= MAX_FAILS:
                    return runs
                continue
            round_runs.append((input_seed, call, got))
        if len(round_runs) == INPUTS:
            runs += round_runs
    return runs


def repeat_check(wl, ops, size, runs):
    """The first input once more: the result must not change."""
    input_seed, _, result = runs[0]
    again = ops.call(wl.argv(size, input_seed, "again"), wl.name + " repeat")
    wl.clean("again")
    if again and wl.result(again.stdout) != result:
        ops.fail("%s is not deterministic:\n%s\n%s" %
                 (wl.name, result, wl.result(again.stdout)))


def end_to_end(wl, ops, seed, seconds, full, record):
    """Set-up size at the reference seed, the full size at the
    reference seed (both checked against the references), then the
    measured invocations on seeds derived from --seed, and their
    repeat and cross-checks."""
    metrics, extra = {}, {}
    setup = []
    for _ in range(wl.setup_reps):
        wl.clean("setup")
        call = ops.call(wl.argv("setup", REFERENCE_SEED, "setup"),
                        wl.name + " setup")
        if call:
            setup.append(call.wall)
            reference_check(wl, ops, "setup", wl.result(call.stdout) or "",
                            record)
    if setup:
        metrics["setup_s"] = statistics.median(setup)

    ref = ops.call(wl.argv(full, REFERENCE_SEED, "ref"), wl.name + " ref")
    if ref:
        reference_check(wl, ops, full, wl.result(ref.stdout) or "", record)

    runs = measured(ops, wl, full, seed, seconds, "last")
    if not runs:
        return metrics, extra
    calls = [call for _, call, _ in runs]
    metrics["wall_s"] = statistics.median(c.wall for c in calls)
    metrics["chips_per_s"] = statistics.median(
        wl.chips(full, result) / call.wall for _, call, result in runs)
    metrics["cpu_s"] = statistics.median(c.cpu for c in calls)
    metrics["peak_rss_mb"] = statistics.median(
        c.rss_kb for c in calls) / 1024.0
    per_run = [wl.extra_metrics(result, call.wall)
               for _, call, result in runs]
    extra = {name: (statistics.median(m[name][0] for m in per_run), unit)
             for name, (_, unit) in per_run[0].items()}
    extra["wall_runs"] = (len(runs), "count")
    repeat_check(wl, ops, full, runs)
    input_seed, _, result = runs[-1]  # its state is still in place
    wl.cross_check(full, input_seed, result, ops)
    return metrics, extra


def per_layer(wl, ops, seed, seconds, full):
    """Untraced invocations, then the traced replay of the first
    TRACE_REPS of their inputs; the replay must print the same result."""
    untraced = measured(ops, wl, full, seed, seconds / 2, "last")
    traced = []
    for k, (input_seed, _, result) in enumerate(untraced[:TRACE_REPS]):
        tag = "trace%d" % k
        call = ops.call(wl.replay_argv(full, input_seed, tag), "replay")
        wl.clean(tag)
        if not call:
            continue
        if wl.result(call.stdout) != result:
            ops.fail("replay result differs from the command's:\n%s\n%s" %
                     (wl.result(call.stdout), result))
            continue
        layers = [l for l in call.stdout.splitlines()
                  if l.startswith("LAYERS ")]
        traced.append((call.wall, json.loads(layers[-1][len("LAYERS "):])))
    if not traced:
        return {}
    traced.sort(key=lambda t: t[0])
    wall, layers = traced[len(traced) // 2]
    metrics = {k: v for k, v in layers.items() if k in PER_LAYER_UNITS}
    metrics["trace.wall_s"] = wall
    untraced_wall = statistics.median(
        call.wall for _, call, _ in untraced[:TRACE_REPS])
    metrics["trace.overhead_frac"] = (
        statistics.median(t[0] for t in traced) - untraced_wall) / \
        untraced_wall
    return metrics


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the measured ones")
    parser.add_argument("--record", action="store_true",
                        help="write the reference outputs instead of "
                             "comparing with them (reference seed only)")
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 63 // INPUTS:
        parser.error("--seed out of range")

    bins = build()
    host = host_info(bins)
    print("host " + " ".join("%s=%s" % kv for kv in sorted(host.items())),
          flush=True)

    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    ops = Ops(work)
    wl = WORKLOADS[args.workload](bins, work)
    full = "tiny" if args.tiny else "full"
    extra = {}
    try:
        if wl.needs_avx2 and host.get("avx2_fma") != "1":
            ops.attempted += 1
            ops.fail("%s needs an AVX2/FMA host; it is never measured on "
                     "scalar kernels" % wl.name)
            metrics = {}
        elif args.trace == 0:
            metrics, extra = end_to_end(wl, ops, args.seed, args.seconds,
                                        full, args.record)
        else:
            metrics = per_layer(wl, ops, args.seed, args.seconds, full)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    units = dict(END_TO_END) if args.trace == 0 else PER_LAYER_UNITS
    report = {name: {"value": metrics[name], "unit": unit}
              for name, unit in units.items() if name in metrics}
    lines = {k: (v["value"], v["unit"]) for k, v in report.items()}
    lines.update(extra)
    lines["ops_failed_ratio"] = (ops.failed / max(1, ops.attempted), "1")
    for name, (value, unit) in sorted(lines.items()):
        print("metric %s %.6g %s" % (name, value, unit))
    print(json.dumps({"correct": ops.failed == 0 and
                      len(report) == len(units),
                      "attempted": max(1, ops.attempted),
                      "failed": ops.failed, "metrics": report}))


if __name__ == "__main__":
    main()
