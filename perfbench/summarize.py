#!/usr/bin/env python3
"""Summarize benchmark runs: median, quartiles and spread per metric.

Each argument is a file holding one run's standard output; its last line
is the result JSON. Files are grouped by workload, read from the run's
first line ("run workload=..."). Quartiles are statistics.quantiles(n=4),
and the spread is (q3 - q1) / median.

    python3 perfbench/summarize.py runs/*.txt
    python3 perfbench/summarize.py --json runs/*.txt > baseline-runs.json
"""
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        lines = f.read().strip().splitlines()
    workload = lines[0].split("workload=")[1].split()[0]
    return workload, json.loads(lines[-1])


def main(args):
    as_json = args[:1] == ["--json"]
    if as_json:
        args = args[1:]
    runs = {}
    for path in args:
        workload, result = load(path)
        if not result["correct"]:
            sys.exit(f"{path}: run failed its correctness checks")
        runs.setdefault(workload, []).append(result)
    out = {}
    for workload, results in sorted(runs.items()):
        metrics = {}
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            metrics[name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "runs": len(values),
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else None,
            }
        out[workload] = metrics
    if as_json:
        json.dump(out, sys.stdout, indent=1, sort_keys=True)
        print()
        return
    for workload, metrics in out.items():
        for name, m in metrics.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:13s} {name:24s} n={m['runs']:<3d} median {m['median']:<12.6g} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {spread} {m['unit']}")


if __name__ == "__main__":
    main(sys.argv[1:])
