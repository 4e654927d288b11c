#!/usr/bin/env python3
"""Closed-loop STMBench7 benchmark: coarse, tl2 and mvstm on three workloads.

    python3 perfbench/run.py --workload long-read-1t --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --self-test

Builds the load generator (perfbench/CMakeLists.txt) from the library
sources under src/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs every backend of the workload, each
segment in a process of its own: EbrDomain::Global() and LockTable::Global()
are process-wide, and peak RSS is per process.

Runs are bounded by operation count, not by time. The structure drifts with
the number of operations executed (more of them end in OperationFailed), and
on two workers EBR's limbo grows with every operation, so a time-bounded run
would do different work on a faster commit or at a faster moment of the
host. A segment runs a fixed number of operations per backend, set in
WORKLOADS; `--seconds` sets how many rounds of segments (seeds derived
from `--seed`, backends in turn) a run makes, from the measured seconds a
round takes. So `--seconds` changes how many samples a metric has, never what one
segment measures.

ops_per_s is the median of the segments' throughputs on the write mixes and
completed operations over measured wall time, pooled over the segments, on
long-read-1t, whose rare long traversals make one segment's throughput swing
by a factor of 30. peak_rss_mb is the 90th percentile of the segments' peaks;
the latencies and setup_s are medians over segments, setup_s summed over
backends.

The metric names and units are read from BENCHMARK.json. With `--trace 0`
the last line of standard output is the JSON result with the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of traced
processes, each run next to an untraced twin for trace.overhead_frac. Every
process checks its outputs, and a failed check counts every operation of the
processes it covers as failed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

BACKENDS = ("coarse", "tl2", "mvstm")

# A run is abandoned, with no result, when it takes this many times
# --seconds plus a fixed allowance for starting and checking processes.
DEADLINE_FACTOR = 3.0
DEADLINE_SLACK_S = 60.0

# name -> Table-2 mix, worker count, whether mvstm logs, the operations of
# one segment per backend, the seconds one round of segments took on the
# 4-vCPU host the benchmark was sized on, and how segment throughputs
# combine into ops_per_s. `per_round` runs a backend's segment more than
# once per round: durable-write-2t exists for mvstm on the log, whose
# fsync-bound segments vary most; its coarse and tl2 run unlogged and only
# because every run reports every metric.
#
# long-read-1t gives every backend the same 1,000 operations, the fewest
# that give p99 ten samples beyond it, so the three must return identical
# results and worlds. On the write mixes the driving thread holds EBR's
# epoch back, so limbo grows by about 0.9 (coarse), 1.9 (tl2) and 25
# (mvstm) retirements per operation and every Quiesce costs more than the
# one before. Each backend's segment is sized to end with about 35,000
# pending retirements, about twice what tl2 leaves pending after one second
# of the short read mix; the segment lengths therefore differ, and so
# throughput across backends is not like for like.
WORKLOADS = {
    "long-read-1t": {
        "read_fraction": 0.9, "long_traversals": True, "workers": 1, "durable": False,
        "segment_ops": {"coarse": 1000, "tl2": 1000, "mvstm": 1000}, "round_s": 0.75,
        "throughput": "pooled",
    },
    "short-write-2t": {
        "read_fraction": 0.1, "long_traversals": False, "workers": 2, "durable": False,
        "segment_ops": {"coarse": 40000, "tl2": 20000, "mvstm": 1500}, "round_s": 2.6,
        "throughput": "median",
    },
    "durable-write-2t": {
        "read_fraction": 0.1, "long_traversals": False, "workers": 2, "durable": True,
        "segment_ops": {"coarse": 40000, "tl2": 20000, "mvstm": 1500}, "round_s": 3.0,
        "throughput": "median", "per_round": {"mvstm": 2},
    },
}

# The seeded single-worker long-read stream every backend must replay to
# exactly these per-op results and final world.
REFERENCE = {"seed": 20070326, "ops": 2000,
             "results_hash": "1d90d413e23ce71a", "fingerprint": "1d97f1f05d184a10"}


class BenchError(Exception):
    pass


def median_of(key):
    return lambda results: statistics.median(r[key] for r in results)


THROUGHPUT = {
    # Completed operations per second of measured wall time, all segments.
    "pooled": lambda results: (sum(r["ops"] for r in results)
                               / sum(r["elapsed_s"] for r in results)),
    # The typical segment: a few segments stalled by the host or by fsync
    # cannot move it.
    "median": lambda results: statistics.median(r["ops"] / r["elapsed_s"] for r in results),
}


def peak_rss(results):
    """90th percentile of the segments' peaks, within the measured range.

    A long-read segment's peak depends on whether it ran a rare large writer
    such as T3c: the median flips between two levels from seed to seed, and
    the maximum catches the rare segment that ran several."""
    peaks = [r["peak_rss_mb"] for r in results]
    return statistics.quantiles(peaks, n=10, method="inclusive")[-1] if len(peaks) > 1 else peaks[0]


END_TO_END = {"p50_ms": median_of("p50_ms"), "p99_ms": median_of("p99_ms"),
              "peak_rss_mb": peak_rss}


def build():
    """Configures and builds the generator; returns the build directory."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", out, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return out


class Runner:
    """Starts generator processes for one workload against one deadline."""

    def __init__(self, out, workload, seconds):
        self.binary = os.path.join(out, "sb7-loadgen")
        self.log_path = os.path.join(out, "redo-%d.log" % os.getpid())
        self.spec = WORKLOADS[workload]
        self.limit = DEADLINE_FACTOR * seconds + DEADLINE_SLACK_S
        self.deadline = time.monotonic() + self.limit

    def measure(self, backend, seed, ops, traced):
        spec = self.spec
        args = [self.binary, "--backend", backend, "--workers", str(spec["workers"]),
                "--read-fraction", str(spec["read_fraction"]),
                "--long-traversals", "1" if spec["long_traversals"] else "0",
                "--seed", str(seed), "--max-ops", str(ops), "--traced", "1" if traced else "0"]
        durable = spec["durable"] and backend == "mvstm"
        if durable:
            args += ["--redo-log", self.log_path]
        try:
            left = self.deadline - time.monotonic()
            if left <= 0:
                raise subprocess.TimeoutExpired(args, 0)
            proc = subprocess.run(args, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("run exceeded %.0f s" % self.limit)
        finally:
            if durable and os.path.exists(self.log_path):
                os.remove(self.log_path)
        if proc.returncode != 0:
            raise BenchError("%s exited %d: %s" % (" ".join(args[1:]), proc.returncode,
                                                    proc.stderr.strip()[-500:]))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return result, process_failures(result, durable)


def process_failures(result, durable):
    """Names the output checks one generator process failed."""
    failures = []
    if not result["invariants_ok"]:
        failures.append("invariants: " + result["first_violation"])
    if result["other_failed"]:
        failures.append("%d operations raised something other than OperationFailed"
                        % result["other_failed"])
    if not result["p99_has_tail"]:
        failures.append("fewer than 1,000 latency samples for p99")
    if durable and not result["recovery"]["ok"]:
        failures.append("recovery: " + result["recovery"]["error"])
    return failures


def segment_seed(seed, segment):
    return (seed * 1000003 + segment) % (1 << 63)


def run_workload(runner, seed, seconds, trace, declared):
    spec = runner.spec
    budget = spec["segment_ops"]
    # A traced round is two rounds: traced segments and their untraced twins.
    rounds = max(1, int(round(seconds / spec["round_s"] / (2 if trace else 1))))
    throughput = THROUGHPUT[spec["throughput"]]

    processes = []                      # (label, result, failures) of every process
    plain = {b: [] for b in BACKENDS}   # untraced processes
    traced = {b: [] for b in BACKENDS}  # traced twins (--trace 1)
    per_round = spec.get("per_round", {})
    for round_index in range(rounds):
        for is_traced in ((False, True) if trace else (False,)):
            for backend in BACKENDS:
                copies = per_round.get(backend, 1)
                for segment in range(round_index * copies, (round_index + 1) * copies):
                    result, failures = runner.measure(backend, segment_seed(seed, segment),
                                                      budget[backend], is_traced)
                    label = "%s segment %d%s" % (backend, segment,
                                                 " traced" if is_traced else "")
                    processes.append((label, result, failures))
                    (traced if is_traced else plain)[backend].append(result)
            # One worker, one seed, one count: the backends must agree.
            group = processes[-len(BACKENDS):]
            if spec["workers"] == 1 and len({(r["results_hash"], r["fingerprint"])
                                             for _, r, _ in group}) > 1:
                for _, _, failures in group:
                    failures.append("backends disagree on per-op results or final world")
    if spec["workers"] == 1:
        for backend in BACKENDS:
            result, failures = runner.measure(backend, REFERENCE["seed"], REFERENCE["ops"], False)
            if (result["results_hash"], result["fingerprint"]) != (
                    REFERENCE["results_hash"], REFERENCE["fingerprint"]):
                failures.append("reference replay gave results %s world %s" % (
                    result["results_hash"], result["fingerprint"]))
            processes.append(("%s reference replay" % backend, result, failures))

    metrics = {}
    counts = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name == "setup_s":
            metrics[name] = (sum(statistics.median(r["setup_s"] for r in plain[b])
                                 for b in BACKENDS), unit)
            counts[name] = "median of %d set-ups per backend, summed" % len(plain["coarse"])
            continue
        base, backend = name.rsplit(".", 1)
        results = traced[backend] if trace else plain[backend]
        if trace and base == "trace.overhead_frac":
            value = 1.0 - throughput(traced[backend]) / throughput(plain[backend])
        elif trace:
            value = statistics.median(r["layers"][base] for r in results)
        elif base == "ops_per_s":
            value = throughput(results)
        else:
            value = END_TO_END[base](results)
        metrics[name] = (value, unit)
        counts[name] = "%d segments, %d samples" % (
            len(results), sum(r["latency_samples"] for r in results))
    return {
        "attempted": sum(r["ops"] for _, r, _ in processes),
        "failed": sum(r["ops"] if f else r["other_failed"] for _, r, f in processes),
        "problems": ["%s: %s" % (label, f) for label, _, fs in processes for f in fs],
        "metrics": metrics, "counts": counts, "budget": budget,
        "build": processes[0][1]["build"],
    }


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def environment(build_info, args):
    """What a result must be stamped with to be compared across hosts."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": build_info["compiler"],
            "flags": build_info["flags"], "build_type": build_info["build_type"],
            "git_commit": commit, "source_sha256": source_digest(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "bounded_by": "operation count"}


def report(workload, outcome, env):
    print("== %s ==" % workload)
    print("env " + json.dumps(env, sort_keys=True))
    print("operations per segment: " + json.dumps(outcome["budget"], sort_keys=True))
    for name, (value, unit) in outcome["metrics"].items():
        print("  %-44s %14.6g %-8s %s" % (name, value, unit, outcome["counts"][name]))
    for problem in outcome["problems"]:
        print("  CHECK FAILED: " + problem)
    if not outcome["problems"]:
        print("  output checks: all passed")
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build the generator and run its self-tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        out = build()
        if args.self_test:
            test = os.path.join(out, "loadgen_test")
            if not os.path.exists(test):
                raise BenchError("no %s: GTest was not found at configure time" % test)
            return subprocess.run([test], cwd=out).returncode
        for name in (sorted(WORKLOADS) if args.workload == "all" else [args.workload]):
            outcome = run_workload(Runner(out, name, args.seconds), args.seed, args.seconds,
                                   args.trace, declared)
            report(name, outcome, environment(outcome["build"], args))
        return 0
    except (BenchError, OSError, ValueError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
