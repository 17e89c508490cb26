#!/usr/bin/env python3
"""Steadiness report: runs every workload repeatedly, alternating
workloads, each run with another seed, and prints for each end-to-end
metric its median, quartiles, spread (quartile distance / median) and the
drift between the first and second halves of the runs, next to the bound
BENCHMARK.json fixes for it. A metric is steady when its spread and the
size of its drift both stay within the bound; the exit status is 0 only
when every metric, setup_s included, is steady. It also prints the spread
of the raw wall-time median op and of the reference pass, which the
bounded, scaled times do not show.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads dram-relaxed --seconds 10
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    """The run's end-to-end metrics, plus the raw wall-time median op
    (`wall_p50_ms`) and the median reference pass (`reference_pass_ms`)
    from its table, which show what the scaling took out."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, check=True, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: run not correct: {result}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        if line.startswith("p50_ms"):
            metrics["wall_p50_ms"] = float(line.split("; wall ")[1].split()[0])
        if line.startswith("host "):
            metrics["reference_pass_ms"] = float(line.split("reference_pass_ms=")[1].split()[0])
    return metrics


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload")
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    values = {w: [] for w in workloads}
    for r in range(args.runs):
        for w in workloads:
            seed = args.first_seed + r
            metrics = run_once(bench["command"], w, seed, seconds)
            values[w].append(metrics)
            print(f"run {r + 1}/{args.runs} {w} seed {seed}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)

    print()
    print(f"{'workload':<18}{'metric':<13}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'drift':>9}{'bound':>8}  verdict")
    steady = True
    for w in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            series = [run[name] for run in values[w]]
            med = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            half = len(series) // 2
            drift = worse_by(metric, statistics.median(series[:half]),
                             statistics.median(series[half:])) if half else 0.0
            bound = metric["bound"]
            verdict = "ok" if spread <= bound and abs(drift) <= bound else "OVER"
            if verdict == "ok" and max(spread, abs(drift)) > bound / 3:
                verdict = "ok (above a third of the bound)"
            steady &= verdict.startswith("ok")
            print(f"{w:<18}{name:<13}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.3f}{drift:>9.3f}{bound:>8.2f}  {verdict}")
    print()
    print("not bounded: the raw wall-time median op and the reference pass")
    for w in workloads:
        for name in ("wall_p50_ms", "reference_pass_ms"):
            series = [run[name] for run in values[w]]
            q1, med, q3 = statistics.quantiles(series, n=4)
            print(f"{w:<18}{name:<18}{statistics.median(series):>12.5g}"
                  f"  spread {(q3 - q1) / statistics.median(series):.3f}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
