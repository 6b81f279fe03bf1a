"""Cluster scaling benchmark: sharded multi-process QPS vs one process.

Builds PMHL on the medium grid analog, snapshots it, and measures sustained
closed-loop batch QPS for

* the single-process :class:`~repro.serving.engine.ServingEngine` (cache off,
  so every query pays the index — the honest baseline), and
* :class:`~repro.cluster.ClusterEngine` at 1, 2 and 4 workers over the same
  mmap-backed snapshot,

asserting along the way that every configuration answers the workload
bit-identically to the in-process index.  A comparison row evaluates exp 6's
analytic thread model (:class:`~repro.throughput.ThroughputEvaluator` at
p = 1/2/4) on the same index and update batch — the paper's virtual-thread
speedup the cluster is the wall-clock realization of.

The headline acceptance bar — **>= 2x sustained QPS at 4 workers over the
single process** — needs 4 actual cores to be physically meaningful; one
worker per core is the whole point of escaping the GIL.  On smaller machines
(this includes single-core CI containers) the bar is recorded as waived in
``BENCH_cluster.json`` together with the measured core count, and the numbers
are still reported honestly.  Run directly::

    PYTHONPATH=src python benchmarks/bench_cluster.py [--out BENCH_cluster.json]
                                                      [--side 50] [--duration 1.5]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from typing import Callable, Dict, List

from repro.cluster import ClusterEngine
from repro.experiments.config import DEFAULT_CONFIG
from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_batch
from repro.registry import create_index, get_spec
from repro.serving.engine import ServingEngine
from repro.store import load_index, save_index
from repro.throughput.evaluator import ThroughputEvaluator
from repro.throughput.workload import sample_query_pairs

SPEEDUP_BAR = 2.0
WORKER_GRID = (1, 2, 4)
DEFAULT_SIDE = 50
DEFAULT_DURATION = 1.5
BATCH_QUERIES = 512


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _closed_loop(
    query_batch: Callable[[List], List[float]],
    pairs: List,
    duration: float,
    expected: List[float],
) -> Dict[str, float]:
    """Drive ``query_batch`` flat out for ``duration`` seconds.

    The first batch is verified bit-identical to ``expected`` (and not
    timed — it pays any lazy warm-up), then batches run back to back and the
    sustained rate is total queries over elapsed wall clock.
    """
    assert query_batch(pairs) == expected, "answers diverged from the index"
    served = 0
    batch_walls: List[float] = []
    started = time.perf_counter()
    deadline = started + duration
    while time.perf_counter() < deadline:
        batch_start = time.perf_counter()
        query_batch(pairs)
        batch_walls.append(time.perf_counter() - batch_start)
        served += len(pairs)
    elapsed = time.perf_counter() - started
    batch_walls.sort()
    return {
        "queries": served,
        "elapsed_seconds": elapsed,
        "qps": served / elapsed,
        "batches": len(batch_walls),
        "batch_wall_p50_ms": 1e3 * batch_walls[len(batch_walls) // 2],
        "batch_wall_p95_ms": 1e3 * batch_walls[int(len(batch_walls) * 0.95)],
    }


def _analytic_rows(snapshot_path: str, workload) -> List[Dict[str, float]]:
    """Exp 6's virtual-thread model on the same index, at p = 1/2/4."""
    index = load_index(snapshot_path)
    batch = generate_update_batch(
        index.graph, DEFAULT_CONFIG.update_volume, seed=DEFAULT_CONFIG.seed
    )
    report = index.apply_batch(batch)
    rows = []
    for threads in WORKER_GRID:
        evaluator = ThroughputEvaluator(
            update_interval=DEFAULT_CONFIG.update_interval,
            response_qos=DEFAULT_CONFIG.response_qos,
            threads=threads,
            query_sample_size=DEFAULT_CONFIG.query_sample_size,
        )
        result = evaluator.evaluate_from_report(index, report, workload)
        rows.append(
            {
                "threads": threads,
                "analytic_max_qps": result.max_throughput,
                "update_wall_seconds": result.update_wall_seconds,
            }
        )
    return rows


def run(
    out_path: str, side: int = DEFAULT_SIDE, duration: float = DEFAULT_DURATION
) -> Dict[str, object]:
    base = grid_road_network(side, side, seed=5)
    workload = sample_query_pairs(base, BATCH_QUERIES, seed=3)
    pairs = list(workload)
    cores = _cores()

    index = create_index(get_spec("PMHL", num_partitions=4, seed=0), base.copy())
    start = time.perf_counter()
    index.build()
    build_seconds = time.perf_counter() - start
    expected = index.query_many(pairs)

    report: Dict[str, object] = {
        "benchmark": "sharded multi-process serving (repro.cluster)",
        "method": "PMHL",
        "graph": {
            "kind": "grid",
            "side": side,
            "vertices": base.num_vertices,
            "edges": base.num_edges,
        },
        "cores": cores,
        "python": platform.python_version(),
        "batch_queries": BATCH_QUERIES,
        "duration_seconds": duration,
        "build_seconds": build_seconds,
        "speedup_bar": SPEEDUP_BAR,
        "cluster": {},
    }

    with tempfile.TemporaryDirectory(prefix="bench_cluster_") as tmp:
        snapshot = os.path.join(tmp, "gen-000000")
        save_index(index, snapshot, atomic=True, generation=0)

        with ServingEngine.from_snapshot(snapshot, cache_capacity=0) as single:
            single_row = _closed_loop(single.query_batch, pairs, duration, expected)
        report["single_process"] = single_row
        print(
            f"single process : {single_row['qps']:10.0f} QPS  "
            f"(p50 batch {single_row['batch_wall_p50_ms']:.2f} ms)"
        )

        for workers in WORKER_GRID:
            cluster = ClusterEngine(
                snapshot,
                num_workers=workers,
                publish_dir=os.path.join(tmp, f"gens-{workers}"),
            )
            with cluster:
                row = _closed_loop(cluster.query_batch, pairs, duration, expected)
                row["speedup_vs_single"] = row["qps"] / single_row["qps"]
                row["per_worker_queries"] = [
                    stats["queries_served"] for stats in cluster.worker_stats()
                ]
            report["cluster"][str(workers)] = row
            print(
                f"{workers} worker(s)    : {row['qps']:10.0f} QPS  "
                f"({row['speedup_vs_single']:4.2f}x single, "
                f"per-reader queries {row['per_worker_queries']})"
            )

        report["analytic_thread_model"] = _analytic_rows(snapshot, workload)
        for row in report["analytic_thread_model"]:
            print(
                f"exp6 analytic p={row['threads']}: "
                f"{row['analytic_max_qps']:10.0f} QPS bound"
            )

    speedup = report["cluster"]["4"]["speedup_vs_single"]
    bar_enforced = cores >= 4
    report["bar_enforced"] = bar_enforced
    if bar_enforced:
        report["bar_waived_reason"] = None
        assert speedup >= SPEEDUP_BAR, (
            f"4 workers must sustain >= {SPEEDUP_BAR}x single-process QPS on a "
            f">=4-core machine, got {speedup:.2f}x"
        )
    else:
        report["bar_waived_reason"] = (
            f"only {cores} core(s) visible: one worker per core is the "
            f"mechanism, so the >= {SPEEDUP_BAR}x bar is physically "
            f"unreachable here and is asserted only on >= 4-core machines"
        )
        print(f"note: speedup bar waived ({report['bar_waived_reason']})")

    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"\nwrote {out_path}")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_cluster.json", help="output JSON path"
    )
    parser.add_argument(
        "--side", type=int, default=DEFAULT_SIDE, help="grid side length"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=DEFAULT_DURATION,
        help="seconds of sustained load per configuration",
    )
    args = parser.parse_args()
    run(args.out, side=args.side, duration=args.duration)


if __name__ == "__main__":
    main()
