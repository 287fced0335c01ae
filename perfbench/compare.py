#!/usr/bin/env python3
"""Compares the benchmark between two checkouts, or measures its steadiness.

    python3 perfbench/compare.py --parent DIR --change DIR [--pairs 10]
        [--workloads mine,serve,serve-ingest] [--seed 1] [--json OUT]
    python3 perfbench/compare.py --parent DIR [--pairs 10] ...

With --change, it runs `--pairs` parent/change pairs per workload, one seed
per pair (seed, seed+1, ...), alternating which side runs first, and prints
per (metric, workload) each side's median and quartiles, the fraction of
pairs the change won, and a verdict:

  gain        the change wins >= 9/10 of the pairs and the medians differ
              by more than the parent's interquartile range
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's own spread (IQR / median) exceeds the bound, and
              not every change run beats every parent run
  unchanged   none of the above

Running the same checkout as both sides is the steadiness check. Without
--change, it runs the parent alone and prints each metric's spread next to
its bound and a third of it (the target the benchmark is tuned to).

Each DIR is a checkout root holding perfbench/run.py and BENCHMARK.json;
each builds into its own .bench_build unless CARGO_TARGET_DIR is set.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def load_spec(root):
    return json.loads((pathlib.Path(root) / "BENCHMARK.json").read_text())


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"compare.py: {' '.join(cmd)} failed in {root} "
                 f"(exit {proc.returncode})")
    doc = json.loads(lines[-1])
    return {name: m["value"] for name, m in doc["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """1 if a beats b, -1 if b beats a, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (a < b) == (direction == "lower") else -1


def verdict(parent, change, metric):
    bound = metric.get("bound")
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    lower = metric["better"] == "lower"
    wins = sum(better(c, p, metric["better"]) > 0
               for p, c in zip(parent, change))
    win_frac = wins / len(parent)
    worse = (cm - pm) if lower else (pm - cm)
    if bound is not None and pm != 0 and worse > bound * abs(pm):
        return win_frac, "regression"
    all_better = all(better(c, p, metric["better"]) > 0
                     for p in parent for c in change)
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    if bound is not None and spread > bound and not all_better:
        return win_frac, "unresolved"
    if win_frac >= 0.9 and abs(cm - pm) > (p3 - p1):
        return win_frac, "gain"
    return win_frac, "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", help="also write every measured value here")
    args = ap.parse_args()

    spec = load_spec(args.parent)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    record = {}
    for workload in workloads:
        parent, change = [], []
        for i in range(args.pairs):
            seed = args.seed + i
            if args.change is None:
                parent.append(run_once(args.parent, workload, seed, seconds))
            elif i % 2 == 0:
                parent.append(run_once(args.parent, workload, seed, seconds))
                change.append(run_once(args.change, workload, seed, seconds))
            else:
                change.append(run_once(args.change, workload, seed, seconds))
                parent.append(run_once(args.parent, workload, seed, seconds))
            print(f"{workload}: {i + 1}/{args.pairs} done", file=sys.stderr)
        record[workload] = {"parent": parent, "change": change}
        print(f"\n== {workload} ({args.pairs} runs per side, seeds "
              f"{args.seed}..{args.seed + args.pairs - 1})")
        for m in metrics:
            name = m["name"]
            p = [r[name] for r in parent]
            p1, pm, p3 = quartiles(p)
            spread = (p3 - p1) / abs(pm) if pm else float("inf")
            line = (f"{name:<14} parent {pm:10.4g} [{p1:.4g}, {p3:.4g}] "
                    f"spread {spread:6.3f}")
            if args.change is None:
                ok = "ok" if spread <= m["bound"] / 3 else (
                    "within bound" if spread <= m["bound"] else "TOO NOISY")
                line += f"  bound {m['bound']} (target {m['bound'] / 3:.3f}) {ok}"
            else:
                c = [r[name] for r in change]
                c1, cm, c3 = quartiles(c)
                win, v = verdict(p, c, m)
                line += (f" | change {cm:10.4g} [{c1:.4g}, {c3:.4g}] "
                         f"wins {win:4.2f}  {v}")
            print(line)
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
