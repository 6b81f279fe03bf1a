"""Noise study: is the benchmark steadier than its own bounds?

    python3 benchmarks/stack/repeat.py [--runs 10] [--workloads a,b] [--out NOISE.json]

Runs every workload ``--runs`` times, one seed per run, in alternating order
(w1 w2 w3 w4 w1 ...) so slow drift of the machine hits all workloads alike.
For each metric x workload it prints the median, the quartiles, their
distance as a share of the median (the spread the driver gates on) and how
far the medians of the two interleaved halves (odd runs vs even runs) differ,
each against the bound in ``BENCHMARK.json``; the same table is written to
``NOISE.json`` together with every run's values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

from run import HERE, ROOT, spawn


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    lines = spawn(workload, seed, seconds, trace=0)
    wall = time.perf_counter() - started
    result = json.loads(lines[-1])
    samples = next(
        json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("samples:")
    )
    return {
        "seed": seed,
        "wall_s": wall,
        "failed": result["failed"],
        "values": {name: m["value"] for name, m in result["metrics"].items()},
        "samples": samples,
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--out", default=os.path.join(HERE, "NOISE.json"))
    args = parser.parse_args()
    if args.runs < 8:
        parser.error("--runs must be at least 8: each half needs four runs")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    workloads = [w["name"] for w in contract["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    seconds = contract["run_seconds"]

    runs = {workload: [] for workload in workloads}
    for seed in range(1, args.runs + 1):
        for workload in workloads:
            run = one_run(workload, seed, seconds)
            runs[workload].append(run)
            print(f"seed {seed:>2} {workload:<15} {run['wall_s']:5.1f} s  " + "  ".join(
                f"{name}={value:.4g}" for name, value in run["values"].items()
            ), flush=True)

    table = []
    print(f"\n{'workload':<15} {'metric':<16} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'halves':>7} {'bound':>6}")
    for workload in workloads:
        for spec in contract["end_to_end"]:
            name = spec["name"]
            values = [run["values"][name] for run in runs[workload]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            mid = statistics.median(values)
            halves = worse_by(
                statistics.median(values[0::2]), statistics.median(values[1::2]),
                spec["better"],
            )
            row = {
                "workload": workload, "metric": name, "unit": spec["unit"],
                "median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid,
                "halves_worse_by": halves, "bound": spec["bound"],
            }
            table.append(row)
            flag = ""
            if name != "setup_s" and row["spread"] > spec["bound"] / 3:
                flag += " spread>bound/3"
            if abs(halves) > spec["bound"] / 2:
                flag += " halves>bound/2"
            print(f"{workload:<15} {name:<16} {mid:>11.4f} {q1:>11.4f} {q3:>11.4f} "
                  f"{row['spread']:>7.3f} {halves:>+7.3f} {spec['bound']:>6.2f}{flag}")

    with open(args.out, "w") as handle:
        json.dump({"runs_per_workload": args.runs, "run_seconds": seconds,
                   "table": table, "runs": runs}, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
