"""Write WATERFALL.md: one traced run per workload, one table each.

    python3 benchmarks/stack/waterfall.py [--seed 1]

Answers "what does the socket cost?" from one file.  Each table is what
``run.py --trace 1`` printed; nothing is recomputed here.
"""

from __future__ import annotations

import argparse
import json
import os

from run import HERE, ROOT, SCRATCH, spawn


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)

    parts = [
        "# Waterfall of the `stack` benchmark\n",
        f"One `run.py --trace 1 --seed {args.seed}` per workload on the unchanged "
        "`src/`.  A rung's *added* cost is the rung minus the rung it stands on; "
        "batch rungs are medians over 200 calls of 64 pairs, scalar rungs over "
        "2 000 calls, server rungs wall time over queries at the stated depth.  "
        "Numbers are this machine's; README.md says which end-to-end metric "
        "each rung should move.\n",
    ]
    for workload in (w["name"] for w in contract["workloads"]):
        lines = spawn(workload, args.seed, contract["run_seconds"], trace=1)
        environment = next(line for line in lines if line.startswith("environment:"))
        with open(os.path.join(SCRATCH, f"waterfall-{workload}.md")) as handle:
            parts.append(handle.read())
        print(f"{workload}: traced", flush=True)
    parts.append(f"`{environment}`\n")
    with open(os.path.join(HERE, "WATERFALL.md"), "w") as handle:
        handle.write("\n".join(parts))
    print("wrote WATERFALL.md")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
