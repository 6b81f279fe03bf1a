#!/usr/bin/env python3
"""Live serving: concurrent queries while the index is being maintained.

Builds PostMHL on a synthetic city network, wraps it in the
:class:`~repro.serving.engine.ServingEngine`, then drives it with concurrent
client threads while traffic-update batches install on the maintenance
worker.  Every answer is epoch-stamped; the final block replays a sample of
them against Dijkstra on the matching graph snapshot to show the engine never
served a stale distance.

Run with ``python examples/live_serving.py``.
"""

from repro import (
    PostMHLIndex,
    ServingEngine,
    generate_update_stream,
    grid_road_network,
    run_mixed_workload,
    sample_query_pairs,
)
from repro.algorithms.dijkstra import dijkstra_distance


def main() -> None:
    graph = grid_road_network(14, 14, seed=7)
    print(f"network: {graph.num_vertices} vertices, {graph.num_edges} edges")

    index = PostMHLIndex(graph, bandwidth=12, expected_partitions=6)
    engine = ServingEngine(index, response_qos=0.2)
    print(f"PostMHL built in {index.build_seconds:.2f}s; engine ready at epoch 0")

    pairs = list(sample_query_pairs(graph, 80, seed=3))
    batches = generate_update_stream(graph, num_batches=3, volume=25, seed=5)

    with engine:
        report = run_mixed_workload(
            engine,
            pairs,
            duration_seconds=1.5,
            query_threads=3,
            batches=batches,
            collect_results=True,
            seed=9,
        )

    print(
        f"\nserved {report.queries_served} queries in {report.duration_seconds:.2f}s "
        f"({report.measured_qps:.0f} QPS) while installing "
        f"{report.batches_applied} update batches"
    )
    latency = report.stats["latency"]
    print(
        "latency p50/p95/p99: "
        f"{latency['p50_seconds'] * 1000:.2f} / "
        f"{latency['p95_seconds'] * 1000:.2f} / "
        f"{latency['p99_seconds'] * 1000:.2f} ms"
    )
    print("answers by query stage:", report.stats["by_stage"])
    print("cache:", report.stats["cache"])

    # Replay a sample against the per-epoch Dijkstra oracle.
    sample = report.results[:: max(1, len(report.results) // 200)]
    mismatches = sum(
        1
        for r in sample
        if abs(dijkstra_distance(engine.graph_at(r.epoch), r.source, r.target) - r.distance)
        > 1e-9
    )
    print(
        f"\noracle replay: {len(sample)} answers checked across epochs "
        f"0..{engine.current_epoch}, {mismatches} mismatches"
    )
    assert mismatches == 0


if __name__ == "__main__":
    main()
