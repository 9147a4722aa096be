#!/usr/bin/env python3
"""The repository benchmark: time, CPU and bytes per verified solve on two DSM workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tasks_rt|barrier_vm \\
        --seed N --seconds T --trace 0|1

Builds perfbench_worker from the checkout's sources into .bench_build/ (Release), then
drives it. --trace 0 measures the end-to-end metrics: a closed loop of solves (one thread,
solve after solve) for T seconds, plus repeated System set-ups. --trace 1 is the
separate traced run: single-layer probes, then a closed loop that alternates untraced and
traced (spans on) solves, from which the per-layer metrics and the tracing overhead come.

The worker runs pinned to one CPU (see perfbench/README.md, "Why one CPU").

Every solve is checked against the application's sequential reference. A solve that does
not verify, crashes the worker or outlives its time limit counts as failed; it is never
retried or dropped, and the loop carries on in a fresh worker until T seconds are used.

The last stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The line before it holds the run's details: host context (nproc, CPU model, kernel,
build type, CPU-steal share over the run), sample counts and tail percentiles.
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(BUILD_DIR, "perfbench_worker")
BUILD_TYPE = "Release"

SETUPS_PER_SOLVE = 5     # System set-ups timed after each solve; setup_s is their median
SOLVE_LIMIT_S = 60.0     # a solve running longer than this counts as failed (hung)
PROBE_LIMIT_S = 90.0

# Metric names and units come from BENCHMARK.json, the benchmark's definition.
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark itself cannot run (build failure, broken probe): no result is printed."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------------------

def build():
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_worker", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


# --- worker ------------------------------------------------------------------------------

# Every worker runs on one CPU, its nodes' threads time-sharing it. On a shared host, a
# lock or barrier handoff between CPUs waits whenever the receiving vCPU is descheduled,
# which made solve times swing several-fold with the host's load; on one CPU a handoff is
# a local context switch. See "Why one CPU" in perfbench/README.md.
WORKER_CPU = max(os.sched_getaffinity(0))


def start_worker():
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))  # a crashing solve leaves no core file
    os.sched_setaffinity(0, {WORKER_CPU})


def run_worker(args, timeout):
    """Runs one worker phase. Returns (parsed JSON lines, exit status or None on timeout)."""
    cmd = [WORKER] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=timeout, preexec_fn=start_worker)
        out, err, status = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the worker
        out, err, status = e.stdout or b"", e.stderr or b"", None
    if err:
        sys.stderr.write(err.decode(errors="replace"))
    events = []
    for raw in out.decode(errors="replace").splitlines():
        try:
            events.append(json.loads(raw))
        except json.JSONDecodeError:
            pass  # a line cut short by a crash
    return events, status


def run_solves(workload, seed, seconds, traced_every, setups, tiny, crash_index):
    """Closed loop for `seconds` (and at least one solve of each kind), restarting the
    worker after a crash or hang.

    Returns (verified solve records, set-up samples, attempted, failed)."""
    deadline = time.monotonic() + seconds
    solves, setup_samples, attempted, failed = [], [], 0, 0
    next_index = 0
    while attempted < max(traced_every, 1) or time.monotonic() < deadline:
        remaining = max(deadline - time.monotonic(), 0.0)
        args = ["solve", f"--workload={workload}", f"--seed={seed}", f"--first={next_index}",
                f"--seconds={remaining:.3f}", f"--traced-every={traced_every}",
                f"--setups={setups}", f"--crash-index={crash_index}"]
        if tiny:
            args.append("--tiny")
        events, status = run_worker(args, timeout=remaining + SOLVE_LIMIT_S)
        started = [e["index"] for e in events if e["event"] == "start"]
        finished = {e["index"]: e for e in events if e["event"] == "solve"}
        setup_samples += [e["seconds"] for e in events if e["event"] == "setup"]
        for index in started:
            attempted += 1
            record = finished.get(index)
            if record is None:
                failed += 1
                how = "hung" if status is None else f"crashed (status {status})"
                log(f"{workload}: solve {index} {how}; counted as failed")
            elif not record["verified"]:
                failed += 1
                log(f"{workload}: solve {index} did not match its sequential reference")
            else:
                solves.append(record)
        if status != 0 and len(finished) == len(started):
            # Died outside any solve (in a set-up or at exit): still a failed attempt.
            attempted += 1
            failed += 1
            log(f"{workload}: worker exited with status {status} outside a solve")
        if not started:
            break  # died before its first solve: a fresh worker would too
        next_index = max(started) + 1
    return solves, setup_samples, attempted, failed


def run_probe(workload, seed, tiny):
    args = ["probe", f"--workload={workload}", f"--seed={seed}"] + (["--tiny"] if tiny else [])
    events, status = run_worker(args, timeout=PROBE_LIMIT_S)
    probes = [e for e in events if e["event"] == "probe"]
    if status != 0 or len(probes) != 1:
        raise BenchError(f"probe phase failed (status {status})")
    return probes[0]


# --- host context ------------------------------------------------------------------------

def cpu_times():
    """Aggregate jiffies from /proc/stat: (total, steal)."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice, already in user/nice]
    return sum(fields[:8]), (fields[7] if len(fields) > 7 else 0)


def host_context(before, after):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    steal = None
    if before and after and after[0] > before[0]:
        steal = (after[1] - before[1]) / (after[0] - before[0])
    return {"nproc": len(os.sched_getaffinity(0)), "worker_cpu": WORKER_CPU,
            "cpu_model": model, "kernel": platform.release(), "build_type": BUILD_TYPE,
            "steal_frac": steal}


# --- metrics -----------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def timing_summary(values):
    """Sample count, median, and the highest of p99/p95/p90/p75 with ten samples beyond it."""
    summary = {"n": len(values), "p50": median(values)}
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            summary[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            break
    return summary


def end_to_end(solves, setup_samples, attempted, failed):
    return {
        "solve_s": median([s["elapsed_s"] for s in solves]),
        "cpu_s_per_solve": median([s["cpu_s"] for s in solves]),
        "wire_bytes_per_solve": median([s["wire_bytes"] for s in solves]),
        "frames_per_solve": median([s["frames"] for s in solves]),
        "setup_s": median(setup_samples),
        "peak_rss_mb": median([s["peak_rss_kb"] for s in solves]) / 1024.0,
        "verified_solve_frac": (attempted - failed) / attempted,
    }


def merge_spans(solves):
    merged = {}
    for s in solves:
        for kind, h in s.get("spans", {}).items():
            m = merged.setdefault(kind, {"count": 0, "sum_ns": 0, "max_ns": 0,
                                         "buckets": [0] * len(h["buckets"])})
            m["count"] += h["count"]
            m["sum_ns"] += h["sum_ns"]
            m["max_ns"] = max(m["max_ns"], h["max_ns"])
            m["buckets"] = [a + b for a, b in zip(m["buckets"], h["buckets"])]
    return merged


def p99_ns(h):
    """Same rule as HistogramSnapshot::ApproxPercentileNs: a power-of-two bucket bound."""
    if not h or h["count"] == 0:
        return 0
    target, seen = 0.99 * h["count"], 0
    for i, n in enumerate(h["buckets"]):
        seen += n
        if seen >= target and n > 0:
            return h["max_ns"] if i + 1 == len(h["buckets"]) else (1 if i == 0 else 1 << i)
    return h["max_ns"]


def per_layer(traced, untraced, probe):
    n = len(traced)
    spans = merge_spans(traced)

    def total(key):
        return sum(s[key] for s in traced)

    def per_solve(counter):
        return sum(s["counters"][counter] for s in traced) / n

    def busy_ms(kind):
        return spans.get(kind, {}).get("sum_ns", 0) / n / 1e6

    def mean_us(kind):
        h = spans.get(kind)
        return h["sum_ns"] / h["count"] / 1e3 if h and h["count"] else 0.0

    def frac(num, den):
        return num / den if den else 0.0

    clean, dirty = per_solve("clean_dirtybits_read"), per_solve("dirty_dirtybits_read")
    acquires = per_solve("lock_acquires")
    wire = total("wire_bytes")
    untraced_s = median([s["elapsed_s"] for s in untraced])
    return {
        "apps.standalone_s": probe["standalone_s"],
        "trap.stores": per_solve("dirtybits_set"),
        "trap.store_ns": probe["store_ns"],
        "trap.raw_store_ns": probe["raw_store_ns"],
        "trap.faults": per_solve("write_faults"),
        "trap.fault_us": probe["fault_us"],
        "collect.lines_read": clean + dirty,
        "collect.dirty_frac": frac(dirty, clean + dirty),
        "collect.busy_ms": busy_ms("collect"),
        "diff.pages": per_solve("pages_diffed"),
        "diff.busy_ms": busy_ms("diff"),
        "grant.build_busy_ms": busy_ms("grant_build"),
        "grant.build_mean_us": mean_us("grant_build"),
        "grant.apply_busy_ms": busy_ms("grant_apply"),
        "barrier.apply_busy_ms": busy_ms("barrier_apply"),
        "barrier.apply_mean_us": mean_us("barrier_apply"),
        "encode.overhead_frac": 1.0 - frac(per_solve("data_bytes_sent"), wire / n),
        "apply.redundant_bytes": per_solve("redundant_bytes_skipped"),
        "send.copied_bytes": per_solve("payload_bytes_copied"),
        "wire.send_busy_ms": busy_ms("wire_send"),
        "wire.send_mean_us": mean_us("wire_send"),
        "wire.send_p99_us": p99_ns(spans.get("wire_send")) / 1e3,
        "net.bytes_per_frame": frac(wire, total("frames")),
        "net.recv_copied_frac": frac(total("recv_bytes_copied"), wire),
        "net.rtt_us": probe["rtt_us"],
        "lock.acquires": acquires,
        "lock.local_frac": frac(per_solve("lock_acquires_local"), acquires),
        "lock.acquire_wait_busy_ms": busy_ms("acquire_wait"),
        "lock.acquire_wait_mean_us": mean_us("acquire_wait"),
        "lock.acquire_wait_p99_us": p99_ns(spans.get("acquire_wait")) / 1e3,
        "barrier.crossings": per_solve("barrier_crossings"),
        "barrier.wait_busy_ms": busy_ms("barrier_wait"),
        "barrier.wait_mean_us": mean_us("barrier_wait"),
        "trace.overhead_frac": frac(median([s["elapsed_s"] for s in traced]), untraced_s) - 1.0,
    }


# --- main --------------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrunken inputs (self-test)")
    ap.add_argument("--crash-index", type=int, default=-1,
                    help="abort the worker as this solve starts (self-test)")
    args = ap.parse_args()

    try:
        build()
        stat_before = cpu_times()
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if args.trace == 0:
            solves, setup_samples, attempted, failed = run_solves(
                args.workload, args.seed, args.seconds, 0, SETUPS_PER_SOLVE, args.tiny,
                args.crash_index)
            metrics = end_to_end(solves, setup_samples, attempted, failed)
            units = END_TO_END
            detail["solve_s"] = timing_summary([s["elapsed_s"] for s in solves])
            detail["setup_s"] = timing_summary(setup_samples)
        else:
            probe = run_probe(args.workload, args.seed, args.tiny)
            solves, _, attempted, failed = run_solves(
                args.workload, args.seed, args.seconds, 2, 0, args.tiny, args.crash_index)
            traced = [s for s in solves if s["traced"]]
            untraced = [s for s in solves if not s["traced"]]
            if traced and untraced:
                metrics = per_layer(traced, untraced, probe)
            else:  # nothing verified to attribute: the failures already mark the run
                metrics = dict.fromkeys(PER_LAYER, 0.0)
            units = PER_LAYER
            detail["traced_solves"], detail["untraced_solves"] = len(traced), len(untraced)
        detail["host"] = host_context(stat_before, cpu_times())
    except BenchError as e:
        log(f"error: {e}")
        return 1

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
