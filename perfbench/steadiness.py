#!/usr/bin/env python3
"""Repeatability check for the benchmark defined in BENCHMARK.json.

Runs the benchmark command once per seed on each chosen workload (tracing
off), then reports for every end-to-end metric the median and the spread:
the distance between the first and third quartile of the runs
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound. A spread under a third of the bound is the target.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--out perfbench/STEADINESS.md]
    python3 perfbench/steadiness.py --compare FIRST.md SECOND.md

The second form reads two tables written by the first and reports, for
each metric, how much worse the second set's median is than the first's
(negative: better), against the metric's bound.

Run from the repository root. Each run takes about `run_seconds` plus
set-up; ten runs of all four workloads take roughly 15 minutes.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    elapsed = time.monotonic() - started
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, elapsed


def medians(path):
    """(workload, metric) -> median from a table this script wrote."""
    out = {}
    with open(path) as f:
        for line in f:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 7 and not cells[1].startswith("("):
                try:
                    out[(cells[0], cells[1])] = float(cells[3])
                except ValueError:
                    pass
    return out


def compare(bench, first, second):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    a, b = medians(first), medians(second)
    lines = ["| workload | metric | first median | second median | worse by | bound |",
             "|---|---|---|---|---|---|"]
    worst = 0.0
    for (workload, name), base in a.items():
        m = metrics[name]
        new = b[(workload, name)]
        worse = (new - base) / base * (1 if m["better"] == "lower" else -1)
        worst = max(worst, worse / m["bound"])
        lines.append(f"| {workload} | {name} | {base:.6g} | {new:.6g} | "
                     f"{worse:+.4f} | {m['bound']} |")
    lines.append("")
    lines.append(f"Largest worsening / bound: {worst:.2f} (must stay at or below 1).")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        print(compare(bench, *args.compare))
        return
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    with open("/proc/cpuinfo") as f:
        cpu = next((l.split(":", 1)[1].strip() for l in f
                    if l.startswith("model name")), platform.processor())
    lines = [f"{args.runs} runs per workload, seeds {seeds.start}..{seeds.stop - 1}, "
             f"run_seconds {bench['run_seconds']}, tracing off; host: {os.cpu_count()} "
             f"CPUs ({cpu}), {time.strftime('%Y-%m-%d')}.", "",
             "| workload | metric | unit | median | spread | bound | spread / bound |",
             "|---|---|---|---|---|---|---|"]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        failed = 0
        durations = []
        for seed in seeds:
            result, elapsed = run(bench["command"], workload, seed, bench["run_seconds"])
            durations.append(elapsed)
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
                  file=sys.stderr)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ratio = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, ratio)
            lines.append(f"| {workload} | {m['name']} | {m['unit']} | {med:.6g} | "
                         f"{spread:.4f} | {m['bound']} | {ratio:.2f} |")
        lines.append(f"| {workload} | (runs: {len(durations)}, failed: {failed}, "
                     f"mean run {statistics.mean(durations):.1f} s) | | | | | |")
    lines.append("")
    lines.append(f"Largest spread / bound, setup_s excluded: {worst:.2f} "
                 "(target: below 0.33).")
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
