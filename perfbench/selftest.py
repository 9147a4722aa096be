#!/usr/bin/env python3
"""Self-test of the repository benchmark, at tiny inputs (about a minute).

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Checks that:
  * BENCHMARK.json is well formed (names, units, bounds, workloads);
  * every workload runs and verifies in both the untraced and the traced run, and the last
    output line parses and holds exactly the keys and metrics BENCHMARK.json names, each
    with its unit (end-to-end metrics also nonzero);
  * a solve that crashes the worker is counted as attempted and failed, and the run carries
    on in a fresh worker;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark exits nonzero
    without printing a result.
Exits nonzero on the first failed check.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(cond, what):
    if not cond:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def run_bench(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    check(2 <= len(names) <= 8, "2 to 8 workloads")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200,
              f"workload {w.get('name')}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    check(len(names) == len(set(names)), "names are used once")
    check(all(NAME.match(n) for n in names), "name syntax")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end-to-end metric {m['name']}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per-layer metric {m['name']}")
    for m in metrics:
        check(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"),
              f"unit/direction of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s present, in seconds, lower is better, with the largest bound")


def check_result(lines, expected):
    check(lines, "some output")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted >= 1")
    check(isinstance(result["failed"], int), "failed is a whole number")
    check(set(result["metrics"]) == {m["name"] for m in expected}, "metric names")
    for m in expected:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"unit of {m['name']}")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"value of {m['name']}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    print("BENCHMARK.json: ok")

    for w in spec["workloads"]:
        for trace, expected in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            status, lines, err = run_bench(ROOT, "--workload", w["name"], "--seed", "7",
                                           "--seconds", "1", "--trace", trace, "--tiny")
            check(status == 0, f"{w['name']} trace {trace} exit status {status}\n{err[-2000:]}")
            result = check_result(lines, expected)
            check(result["correct"] and result["failed"] == 0,
                  f"{w['name']} trace {trace}: every solve verifies")
            if trace == "0":
                zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
                check(not zero, f"{w['name']}: end-to-end metrics are never 0, got {zero}")
            print(f"{w['name']} trace {trace}: ok ({result['attempted']} solves)")

    status, lines, _ = run_bench(ROOT, "--workload", spec["workloads"][0]["name"], "--seed",
                                 "7", "--seconds", "1", "--trace", "0", "--tiny",
                                 "--crash-index", "1")
    check(status == 0, "a crashing solve does not end the run")
    result = check_result(lines, spec["end_to_end"])
    check(not result["correct"] and result["failed"] == 1 and result["attempted"] >= 2,
          f"crashed solve counted: {result['attempted']} attempted, {result['failed']} failed")
    print("crashing solve: counted as failed, run continued")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    status, lines, _ = run_bench(bare, "--workload", spec["workloads"][0]["name"], "--seed",
                                 "7", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    check(status != 0 and not any('"correct"' in line for line in lines),
          "without the sources the benchmark fails and prints no result")
    print("benchmark alone: fails without a result, as it must")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
