"""Network query plane benchmark: closed-loop latency/QPS through the socket.

Builds PMHL on a grid road-network analog and drives the asyncio front end
(:mod:`repro.server`) with the closed-loop async load generator, measuring
sustained QPS and client-observed p50/p99/p999 per-operation latency for

* the **scalar** plane (one one-pair ``query_batch`` frame per round trip),
* the **pipelined** scalar plane (``--depth`` one-pair frames in flight per
  connection — the server gathers them into one engine batch), and
* the **batch** plane (``query_batch`` frames of ``--batch-size`` pairs),

over both backends the server can front:

* a single-process :class:`~repro.serving.engine.ServingEngine` (cache off,
  every query pays the index), and
* a 2-worker :class:`~repro.cluster.ClusterEngine` over an mmap snapshot of
  the same index.

The batch plane amortises framing, the codec, and scheduling across
``--batch-size`` queries per round trip, so the acceptance bar asserted here
— **batch QPS >= 2x scalar QPS on every backend** — is about the protocol,
not the cores, and holds on single-core CI.  Beside it, **pipelined scalar
QPS >= 1.5x depth-1 scalar QPS** keeps the gather working: without it the two
rows are flat, because every frame pays its own executor hop and write.
Results land in ``BENCH_server.json``.  Run directly::

    PYTHONPATH=src python benchmarks/bench_server.py [--out BENCH_server.json]
                                                     [--side 30] [--duration 1.0]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import tempfile
import time
from typing import Dict, List

from repro.cluster import ClusterEngine
from repro.graph.generators import grid_road_network
from repro.registry import create_index, get_spec
from repro.server import QueryServer, run_closed_loop
from repro.serving.engine import ServingEngine
from repro.store import save_index
from repro.throughput.workload import sample_query_pairs

BATCH_SPEEDUP_BAR = 2.0
PIPELINE_SPEEDUP_BAR = 1.5
DEFAULT_SIDE = 30
DEFAULT_DURATION = 1.0
DEFAULT_BATCH = 64
DEFAULT_CONCURRENCY = 4
DEFAULT_DEPTH = 8


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


async def _measure_backend(
    backend, label: str, pairs, args
) -> List[Dict[str, object]]:
    """One server over ``backend``; scalar, pipelined and batch closed-loop runs."""
    server = QueryServer(backend, port=0)
    await server.start()
    try:
        host, port = server.address
        rows = []
        for plane, batch_size, depth in (
            ("scalar", 0, 1),
            ("pipelined", 0, args.depth),
            ("batch", args.batch_size, 1),
        ):
            report = await run_closed_loop(
                host,
                port,
                pairs,
                duration_seconds=args.duration,
                concurrency=args.concurrency,
                batch_size=batch_size,
                label=f"{label}-{plane}",
                depth=depth,
            )
            row = report.to_dict()
            row["backend"] = label
            row["plane"] = plane
            rows.append(row)
            print(
                f"  {row['label']:>16}: {row['qps']:>10.0f} qps  "
                f"p50 {row['p50_seconds'] * 1e3:7.3f} ms  "
                f"p99 {row['p99_seconds'] * 1e3:7.3f} ms  "
                f"p999 {row['p999_seconds'] * 1e3:7.3f} ms",
                flush=True,
            )
        return rows
    finally:
        await server.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_server.json")
    parser.add_argument("--side", type=int, default=DEFAULT_SIDE)
    parser.add_argument("--duration", type=float, default=DEFAULT_DURATION)
    parser.add_argument("--batch-size", type=int, default=DEFAULT_BATCH)
    parser.add_argument("--concurrency", type=int, default=DEFAULT_CONCURRENCY)
    parser.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    graph = grid_road_network(args.side, args.side, seed=7)
    print(
        f"building PMHL on {args.side}x{args.side} grid "
        f"(n={graph.num_vertices}, cores={_cores()})...",
        flush=True,
    )
    index = create_index(get_spec("PMHL", num_partitions=4, seed=0), graph)
    index.build()
    pairs = list(sample_query_pairs(graph, 256, seed=11))

    rows: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="repro_bench_server_") as scratch:
        print("single-process ServingEngine:", flush=True)
        with ServingEngine(index, cache_capacity=0) as engine:
            rows += asyncio.run(_measure_backend(engine, "single", pairs, args))

        snapshot = os.path.join(scratch, "gen-000000")
        save_index(index, snapshot, atomic=True, generation=0)
        print(f"{args.workers}-worker ClusterEngine:", flush=True)
        # fork-before-loop: start the workers outside asyncio.run.
        with ClusterEngine(
            snapshot, num_workers=args.workers, publish_dir=scratch
        ) as cluster:
            rows += asyncio.run(_measure_backend(cluster, "cluster", pairs, args))

    by_label = {row["label"]: row for row in rows}
    checks = []
    pipeline_checks = []
    for backend in ("single", "cluster"):
        scalar_qps = by_label[f"{backend}-scalar"]["qps"]
        for plane, bar, key, into in (
            ("batch", BATCH_SPEEDUP_BAR, "batch_over_scalar_qps", checks),
            ("pipelined", PIPELINE_SPEEDUP_BAR, "pipelined_over_scalar_qps", pipeline_checks),
        ):
            qps = by_label[f"{backend}-{plane}"]["qps"]
            speedup = qps / scalar_qps if scalar_qps else float("inf")
            met = speedup >= bar
            into.append({"backend": backend, "bar": bar, key: speedup, "met": met})
            print(
                f"{backend}: {plane}/scalar QPS = {speedup:.1f}x "
                f"(bar {bar:.1f}x, {'met' if met else 'MISSED'})",
                flush=True,
            )

    payload = {
        "benchmark": "server",
        "created_unix": time.time(),
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cores": _cores(),
        },
        "config": {
            "method": "PMHL",
            "grid_side": args.side,
            "num_vertices": graph.num_vertices,
            "duration_seconds": args.duration,
            "batch_size": args.batch_size,
            "concurrency": args.concurrency,
            "pipeline_depth": args.depth,
            "cluster_workers": args.workers,
        },
        "runs": rows,
        "batch_speedup_checks": checks,
        "pipeline_speedup_checks": pipeline_checks,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}", flush=True)

    assert all(c["met"] for c in checks), (
        "batch plane failed to clear the 2x QPS bar over scalar: "
        f"{checks}"
    )
    assert all(c["met"] for c in pipeline_checks), (
        "pipelined scalar plane failed to clear the 1.5x QPS bar over depth-1 "
        f"scalar (is the server still gathering query frames into one engine "
        f"batch?): {pipeline_checks}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
