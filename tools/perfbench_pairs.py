#!/usr/bin/env python3
"""Compare two checkouts on perfbench in alternating pairs of runs.

Usage (from any directory):

    python3 tools/perfbench_pairs.py --base ../parent --change . \\
        --workloads icd10_93k,coding_backlog --pairs 10 --seconds 20 \\
        [--first-seed 101] [--trace 0|1] [--append BENCH_perfbench.json]

Pair i runs `perfbench/run.py --seed FIRST_SEED+i` once in each checkout,
the base first on even pairs and the change first on odd ones, so a drift in
the host's speed falls on both sides alike. Any run whose last output line
is not a result with "correct": true and "failed": 0 stops the script with
exit status 1. Each checkout builds its own `.bench_build/` on its first run.

For every workload and metric the script prints each side's median and
quartiles and the number of pairs the change won (the metric's better
direction comes from the change's BENCHMARK.json). `--append FILE` adds one
row per side to FILE, a JSON list: the commit, nproc, whether the CPU has
AVX2 and FMA (read from /proc/cpuinfo), the seeds and seconds, and the
median, q1 and q3 of each end-to-end metric per workload.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

SIDES = ("base", "change")


def fail(message):
    print(f"perfbench_pairs: {message}", file=sys.stderr)
    sys.exit(1)


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run: (result, provenance) parsed from its output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    where = f"{checkout}: {workload} seed {seed}"
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if (proc.returncode != 0 or not isinstance(result, dict)
            or result.get("correct") is not True or result.get("failed") != 0):
        tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-20:])
        fail(f"{where}: no correct result (exit {proc.returncode})\n{tail}")
    provenance = {}
    for line in lines:
        if line.startswith("# provenance "):
            provenance = json.loads(line[len("# provenance "):])
    return result, provenance


def quartiles(values):
    """(q1, median, q3), inclusive method; a single run is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def commit_of(checkout, provenance):
    """The checkout's git commit (marked -dirty when it has local edits),
    else the source id perfbench reported for it."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=checkout,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return provenance.get("source", "unknown")
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def cpu_flags():
    """Whether /proc/cpuinfo lists avx2 and fma (None when unreadable)."""
    try:
        text = pathlib.Path("/proc/cpuinfo").read_text()
    except OSError:
        return None, None
    for line in text.splitlines():
        if line.startswith("flags"):
            flags = set(line.split(":", 1)[1].split())
            return "avx2" in flags, "fma" in flags
    return None, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated perfbench workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=101,
                        help="pair i runs seed FIRST_SEED + i on both sides")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", metavar="FILE",
                        help="add one row per side to this JSON list")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        fail("--pairs and --seconds must be at least 1")
    if args.append and args.trace:
        fail("--append records the end-to-end metrics of untraced runs")

    checkouts = {"base": pathlib.Path(args.base).resolve(),
                 "change": pathlib.Path(args.change).resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            fail(f"--{side} {path} has no perfbench/run.py")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec.get("per_layer", [])}
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = [args.first_seed + i for i in range(args.pairs)]

    # runs[workload][side]: one metrics dict per pair.
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    provenance = {side: {} for side in SIDES}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result, prov = run_once(checkouts[side], workload, seed,
                                        args.seconds, args.trace)
                provenance[side] = prov
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                runs[workload][side].append(metrics)
                shown = ", ".join(f"{k}={metrics[k]:.4g}" for k in
                                  ("qps", "p50_ms", "p99_ms") if k in metrics)
                print(f"pair {i + 1}/{args.pairs} {workload} {side}: {shown}",
                      file=sys.stderr, flush=True)

    summary = {side: {} for side in SIDES}
    for workload in workloads:
        print(f"\n{workload}: {args.pairs} pairs of {args.seconds} s, "
              f"seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':28} {'base median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34}  wins")
        names = [n for n in runs[workload]["base"][0]
                 if all(n in r for s in SIDES for r in runs[workload][s])]
        for name in names:
            cells = []
            for side in SIDES:
                q1, median, q3 = quartiles([r[name] for r in runs[workload][side]])
                summary[side].setdefault(workload, {})[name] = {
                    "median": median, "q1": q1, "q3": q3}
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
            wins = "-"
            if name in better:
                sign = 1.0 if better[name] == "higher" else -1.0
                won = sum(1 for b, c in zip(runs[workload]["base"],
                                            runs[workload]["change"])
                          if sign * (c[name] - b[name]) > 0)
                wins = f"{won}/{args.pairs}"
            print(f"  {name:28} {cells[0]:>34} {cells[1]:>34}  {wins}")

    if args.append:
        path = pathlib.Path(args.append)
        rows = json.loads(path.read_text()) if path.exists() else []
        avx2, fma = cpu_flags()
        for side in SIDES:
            rows.append({
                "side": side,
                "commit": commit_of(checkouts[side], provenance[side]),
                "nproc": provenance[side].get("nproc", os.cpu_count()),
                "cpu_avx2": avx2,
                "cpu_fma": fma,
                "seeds": seeds,
                "seconds": args.seconds,
                "workloads": {
                    w: {n: summary[side][w][n] for n in end_to_end
                        if n in summary[side][w]}
                    for w in workloads},
            })
        path.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"\nappended {len(SIDES)} rows to {path}")


if __name__ == "__main__":
    main()
