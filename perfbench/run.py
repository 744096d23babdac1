#!/usr/bin/env python3
"""Runs the warp benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

builds the program from the checkout around this directory (into
.bench_build/), writes the seed's inputs, runs the single-process load
generator, and prints its output; the last line is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones (spans go to .bench_build/traces/).

Two more modes:

    python3 perfbench/run.py --workload cluster --repeat 10 [--trace 0|1]
        [--save FILE] [--against FILE]

repeats the workload on seeds seed, seed+1, ... and prints, per metric,
the median, the quartiles and the spreads against the metric's bound
(the steadiness report); --save keeps the runs, and --against compares
each median with a set kept earlier, as two sets of runs of the same
code must agree within the bounds; and

    python3 perfbench/run.py --selftest

runs the generator's own tests (perfbench/test_perfbench.py).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
LOADGEN = os.path.join(BUILD, "perfbench_loadgen")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once and builds the load generator and the servers."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "warp"))):
        fail("no warp checkout around perfbench/ (need CMakeLists.txt and "
             "src/warp beside it)", 2)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "perfbench_loadgen", "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                fail("build failed (log: .bench_build/build.log)")


def load_json(name):
    with open(name) as f:
        return json.load(f)


def stop_group(pgid):
    """Kills whatever is left of a process group and waits for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 5
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_once(workload, seed, seconds, trace):
    """Generates the seed's inputs, runs the load generator once, and
    returns (exit code, stdout text)."""
    config = load_json(os.path.join(HERE, "workloads.json"))
    if workload not in config["workloads"]:
        fail("unknown workload %r (have %s)"
             % (workload, ", ".join(config["workloads"])), 2)
    params = config["workloads"][workload]["params"]
    flags = ["--%s=%s" % (name, value) for name, value in params.items()]
    common = ["--workload=" + workload, "--seed=%d" % seed]
    work = os.path.join(BUILD_ROOT, "work", "%s-%d" % (workload, seed))
    shutil.rmtree(work, ignore_errors=True)
    try:
        if subprocess.run([LOADGEN, "gen", "--dir=" + work] + common + flags,
                          cwd=ROOT).returncode != 0:
            return 1, ""
        run = [LOADGEN, "run", "--dir=" + work, "--seconds=%g" % seconds,
               "--trace=%d" % trace] + common + flags
        if trace:
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            run.append("--trace-out=" + os.path.join(
                traces, "%s-seed%d.jsonl" % (workload, seed)))
        # Its own process group, so nothing it spawned can outlive the run.
        proc = subprocess.Popen(run, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stop_group(proc.pid)
            proc.communicate()
            print("perfbench: run timed out", file=sys.stderr)
            return 1, ""
        stop_group(proc.pid)
        if proc.returncode == 0 and trace:
            out = with_every_per_layer_metric(out, workload)
        return proc.returncode, out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def with_every_per_layer_metric(out, workload):
    """Orders a traced result's metrics as BENCHMARK.json lists them and
    adds the ones this workload cannot measure as 0, each with a note."""
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    measured = result["metrics"]
    result["metrics"] = {}
    per_layer = load_json(os.path.join(ROOT, "BENCHMARK.json"))["per_layer"]
    for metric in per_layer:
        name = metric["name"]
        if name in measured:
            result["metrics"][name] = measured.pop(name)
        else:
            result["metrics"][name] = {"value": 0, "unit": metric["unit"]}
            lines.insert(-1, "# %s = 0: not measured on %s (perfbench/README.md "
                         "lists where it is)" % (name, workload))
    result["metrics"].update(measured)
    lines[-1] = json.dumps(result)
    return "\n".join(lines) + "\n"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def medians(runs):
    return {name: statistics.median(r["metrics"][name]["value"] for r in runs)
            for name in runs[0]["metrics"]}


def steadiness(args):
    """Repeats one workload on successive seeds and reports each metric's
    spread against its bound; with --against, also each median's shift
    from an earlier set saved with --save."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    runs = []
    for i in range(args.repeat):
        code, out = run_once(args.workload, args.seed + i, args.seconds,
                             args.trace)
        if code != 0:
            fail("run %d (seed %d) exited %d" % (i, args.seed + i, code))
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append(result)
        for note in lines[:-1]:
            print("seed %d %s" % (args.seed + i, note))
        print("seed %d: %s" % (args.seed + i, json.dumps(result)), flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f)
    earlier = medians(load_json(args.against)) if args.against else {}

    print("\n%-36s %-9s %12s %12s %12s %8s %8s %6s %8s  %s" % (
        "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med",
        "bound", "shift", "verdict"))
    flagged = 0
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        iqr = (q3 - q1) / median if median else 0.0
        spread = (max(values) - min(values)) / median if median else 0.0
        bound = bounds.get(name)
        # Positive shift = worse than the earlier set.
        shift = None
        if earlier.get(name):
            shift = (median - earlier[name]) / earlier[name]
            if better.get(name) == "higher":
                shift = -shift
        unsteady = bound is not None and iqr > bound
        worse = bound is not None and shift is not None and shift > bound
        verdict = []
        if len(set(values)) == 1:
            verdict.append("same value every run")
        if unsteady:
            verdict.append("UNSTEADY: iqr beyond bound")
        elif bound is not None and iqr > bound / 3:
            verdict.append("loose: iqr above bound/3")
        if bound is not None and spread > bound:
            verdict.append("range beyond bound")
        if worse:
            verdict.append("WORSE: median shift beyond bound")
        flagged += unsteady or worse
        print("%-36s %-9s %12.6g %12.6g %12.6g %8.4f %8.4f %6s %8s  %s" % (
            name, first["unit"], median, q1, q3, iqr, spread,
            "-" if bound is None else "%g" % bound,
            "-" if shift is None else "%+.4f" % shift,
            "; ".join(verdict) or "ok"))
    failed = sum(r["failed"] for r in runs)
    print("\nattempted %d, failed %d, correct in %d of %d runs" % (
        sum(r["attempted"] for r in runs), failed,
        sum(1 for r in runs if r["correct"]), len(runs)))
    return 1 if flagged or failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report over this many seeds")
    parser.add_argument("--save", help="--repeat: write the runs' results "
                        "(a JSON list) to this file")
    parser.add_argument("--against", help="--repeat: compare each median "
                        "with a set written earlier by --save")
    parser.add_argument("--selftest", action="store_true",
                        help="run the generator tests")
    args = parser.parse_args()

    build()
    if args.selftest:
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "test_perfbench.py")],
            cwd=ROOT).returncode
    if not args.workload:
        fail("--workload is required", 2)
    if args.repeat > 0:
        return steadiness(args)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
