#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload instrument|run|atomd --seed N \
        --seconds S --trace 0|1

Run it from the root of the checkout. The first run configures and builds
the library, the atomd binary and the perfbench binary from source into
.bench_build/perfbench (a Release build); later runs rebuild only what
changed. The binary's report goes to standard output, and its last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
runs report every end-to-end metric of BENCHMARK.json, traced runs every
per-layer metric (a layer the workload does not use reads 0).

A run is split into slices, each a fresh perfbench process given an equal
share of --seconds. Host time on one process depends on where ASLR puts
its heap and mappings (by up to a fifth on this code), so every metric is
the median over the slices, each measured under its own layout.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(".bench_build", "perfbench-out")
BUILD_TIMEOUT_S = 840
SLICE_SLACK_S = 40
# Slices per run. A slice repeats its O0 and O2 passes (about 1.6 s for
# `instrument`, 4.5 s for `run` with the plain applications, 0.6 s for
# `atomd`) while time remains; min-of-N times need at least two cycles.
# `atomd`, whose threads spread over every CPU, varies most between
# processes.
SLICES = {"instrument": 5, "run": 3, "atomd": 6}
# Readable "name = value unit" report lines, combined across slices too.
SUMMARY = re.compile(r"^([A-Za-z][\w.]*) = (-?[\d.]+) ([A-Za-z][\w/%.]*)")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group and kills the whole group on
    timeout, so no daemon worker outlives the benchmark."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("timed out: " + " ".join(cmd))
    return proc.returncode, out, err


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            code, _, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=log,
                                   stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die("build failed (see %s)" % log_path)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["instrument", "run", "atomd"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if a.seconds < 1:
        die("--seconds must be at least 1")

    spec = load_spec()
    build()
    k = SLICES[a.workload]
    slice_s = a.seconds / k
    results, summary = [], {}
    for i in range(k):
        cmd = [os.path.join(BUILD, "perfbench"), "--workload", a.workload,
               "--seed", str(a.seed * 100 + i), "--seconds", "%.3f" % slice_s,
               "--trace", str(a.trace), "--out-dir", OUT]
        code, out, err = run_group(cmd, slice_s + SLICE_SLACK_S, cwd=ROOT,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True)
        sys.stderr.write(err)
        lines = out.rstrip("\n").split("\n")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if code != 0:
            die("perfbench exited with code %d" % code)
        try:
            results.append(json.loads(lines[-1]))
        except ValueError:
            die("perfbench printed no result line")
        for line in lines[:-1]:
            m = SUMMARY.match(line)
            if m:
                summary.setdefault((m.group(1), m.group(3)), []).append(
                    float(m.group(2)))

    # The names in BENCHMARK.json are the contract: every listed metric is
    # reported, with its unit, and nothing else.
    want = spec["per_layer" if a.trace else "end_to_end"]
    names = {m["name"] for m in want}
    metrics = {}
    for m in want:
        values = []
        for r in results:
            unknown = sorted(set(r["metrics"]) - names)
            if unknown:
                die("metrics missing from BENCHMARK.json: "
                    + ", ".join(unknown))
            v = r["metrics"].get(m["name"])
            if v is None:
                if not a.trace:
                    die("end-to-end metric %s was not measured" % m["name"])
                v = {"value": 0, "unit": m["unit"]}  # layer bypassed
            if v["unit"] != m["unit"]:
                die("metric %s has unit %s, BENCHMARK.json says %s"
                    % (m["name"], v["unit"], m["unit"]))
            values.append(v["value"])
        metrics[m["name"]] = {"value": statistics.median(values),
                              "unit": m["unit"]}

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print("== median over %d slices of %.2f s" % (k, slice_s))
    for (name, unit), values in summary.items():
        if len(values) == k:
            print("%s = %.6g %s" % (name, statistics.median(values), unit))
    print("failed_ratio = %.6f (%d of %d operations)"
          % (failed / attempted if attempted else 1.0, failed, attempted))
    for name, v in metrics.items():
        print("%-40s %16.6f %s" % (name, v["value"], v["unit"]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
