#!/usr/bin/env python3
"""Builds the krbench driver from source and runs one benchmark workload.

    python3 perfbench/run.py --workload mine|serve|serve-ingest|all \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and reuses the library's own CMakeLists.txt. The last
line of stdout is the result: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The full document (provenance, tail percentiles, ladder, errors)
is written to <build dir>/results/. `--workload all` runs the workloads
BENCHMARK.json lists, in turn, and ends with one combined line whose metrics
are named <workload>/<metric>.
Exits non-zero when the build fails, a run fails, or any output is wrong.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mine", "serve", "serve-ingest")
RUN_TIMEOUT_S = 170


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(bdir):
    """Configures once, then lets CMake rebuild whatever changed."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to {HERE.name}/ (expected "
             f"{ROOT}/CMakeLists.txt and {ROOT}/src)")
    cmake_dir = bdir / "cmake"
    log_path = bdir / "build.log"
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "krbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the build directory too.
    tmp = bdir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return cmake_dir / "krbench"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        paths += [p for p in top.rglob("*") if p.is_file()
                  and "__pycache__" not in p.parts]
    for p in sorted(paths):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, work, workload, args):
    """Runs one workload; returns (correct, result line dict)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result (exit {proc.returncode})")
    doc = json.loads(lines[-1])

    metrics = doc["metrics"]
    want = expected_metrics(args.trace)
    problems = [f"{name}: missing or wrong unit" for name, unit in want.items()
                if metrics.get(name, {}).get("unit") != unit]
    problems += [f"{name}: not finite" for name, m in metrics.items()
                 if not math.isfinite(m["value"])]
    problems += [f"{name}: not in BENCHMARK.json" for name in metrics
                 if name not in want]
    for p in problems:
        print(f"run.py: {workload}: {p}", file=sys.stderr)

    info = doc["info"]
    info["git_commit"] = git_commit()
    info["source_sha256"] = source_digest()
    info["command"] = " ".join(cmd)
    info["wall_seconds"] = time.time() - started
    results = work.parent / "results"
    results.mkdir(exist_ok=True)
    out_path = results / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{workload:>12} {name:<28} {m['value']:.6g} {m['unit']}")
    for err in doc.get("errors", []):
        print(f"error: {workload}: {err}")
    print(f"full result: {out_path}")
    correct = doc["correct"] and proc.returncode == 0 and not problems
    return correct, {"correct": correct, "attempted": doc["attempted"],
                     "failed": doc["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    work = bdir / "work"
    work.mkdir(parents=True, exist_ok=True)
    if args.workload != "all":
        correct, line = run_workload(binary, work, args.workload, args)
        print(json.dumps(line))
        sys.exit(0 if correct else 1)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        correct, line = run_workload(binary, work, workload, args)
        combined["correct"] &= correct
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, m in line["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()
