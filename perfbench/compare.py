#!/usr/bin/env python3
"""Compare two sets of recorded runs against BENCHMARK.json's bounds.

    python3 perfbench/compare.py --base A.jsonl [...] --change B.jsonl [...]

The inputs are files that `run.py --record FILE` appended to, holding
--trace 0 runs.  For each workload and end-to-end metric it compares
the median of the change's runs with the median of the base's and prints
one of:

  ok          within the bound
  regressed   worse than the base by more than the bound
  improved    better than the base by more than the bound
  unresolved  the run-to-run spread (quartile distance over median) of
              either side is wider than the bound, and not every change
              run is better than every base run

It also flags a workload whose canary (a fixed sort timed before and
after each run) moved by more than 10% between the sides: the host, not
the code, changed speed.  Exits 1 if anything regressed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CANARY_DRIFT = 0.10


def load(paths):
    runs = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                r = json.loads(line)
                if r["trace"] == 0:
                    runs.setdefault(r["workload"], []).append(r)
    return runs


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def canary(runs):
    return statistics.median(
        (r["host"]["canary_ms_before"] + r["host"]["canary_ms_after"]) / 2
        for r in runs)


def verdict(metric, base, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    mb, mc = statistics.median(base), statistics.median(change)
    worse = (mc - mb) / mb if lower else (mb - mc) / mb
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > bound:
        return "improved", worse
    return "ok", worse


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, change = load(args.base), load(args.change)

    regressed = False
    print("%-16s %-17s %5s %12s %12s %8s %8s %8s  %s" % (
        "workload", "metric", "runs", "base p50", "change p50", "worse",
        "spread", "bound", "verdict"))
    for w in sorted(set(base) & set(change)):
        for m in metrics:
            name = m["name"]
            b = [r["result"]["metrics"][name]["value"] for r in base[w]]
            c = [r["result"]["metrics"][name]["value"] for r in change[w]]
            v, worse = verdict(m, b, c)
            regressed |= v == "regressed"
            print("%-16s %-17s %2d/%-2d %12.6g %12.6g %+7.1f%% %7.1f%% %7.0f%%  %s" % (
                w, name, len(b), len(c), statistics.median(b),
                statistics.median(c), 100 * worse,
                100 * max(spread(b), spread(c)), 100 * m["bound"], v))
        cb, cc = canary(base[w]), canary(change[w])
        if abs(cc - cb) / cb > CANARY_DRIFT:
            print("%-16s canary moved %.1f -> %.1f ms: the host changed speed"
                  % (w, cb, cc))
        failed = sum(r["result"]["failed"] for r in base[w] + change[w])
        if failed or not all(r["result"]["correct"] for r in base[w] + change[w]):
            print("%-16s %d failed op(s) or incorrect run(s)" % (w, failed))
    for w in sorted(set(base) ^ set(change)):
        print("%-16s only on one side" % w)
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
