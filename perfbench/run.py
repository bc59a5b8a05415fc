#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run it from the root of a checkout.  It builds perfbench/main.exe with
dune (release profile) into .bench_build/, runs the workload in a child
process, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 its
per_layer list, and the spans go to .bench_build/traces/.  A layer the
workload's ops never enter reads 0.

--record FILE appends the host stamp and the result to FILE as one JSON
line, the input of perfbench/compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(env):
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("build failed with exit code %d" % p.returncode)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--record")
    args = ap.parse_args()

    work = os.path.join(BUILD, "work")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    # dune and the program write only inside the checkout
    env = dict(os.environ, TMPDIR=work, DUNE_CACHE="disabled")
    build(env)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", work]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s ran past %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = p.stdout.splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.stderr.write(p.stdout)
        fail("workload %s exited with code %d" % (args.workload, p.returncode))
    host, raw = json.loads(lines[-2]), json.loads(lines[-1])

    values = raw["values"]
    metrics = {}
    for m in declared_metrics(args.trace):
        name = m["name"]
        if name in values:
            v = values.pop(name)
        elif args.trace:
            v = 0.0
        else:
            fail("workload %s did not report %s" % (args.workload, name))
        metrics[name] = {"value": v, "unit": m["unit"]}
    if values:
        fail("undeclared metrics: " + ", ".join(sorted(values)))

    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "host": host, "result": result}) + "\n")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
