#!/usr/bin/env python3
"""Quickstart: build PostMHL on a synthetic city network, query it, update it.

Run with ``python examples/quickstart.py``.
"""

from repro import create_index, generate_update_batch, grid_road_network
from repro.algorithms.dijkstra import dijkstra_distance


def main() -> None:
    # 1. A synthetic road network (20x20 imperfect grid with travel-time weights).
    graph = grid_road_network(20, 20, seed=7)
    print(f"network: {graph.num_vertices} vertices, {graph.num_edges} edges")

    # 2. Build the PostMHL index (tree decomposition + TD-partitioning) via the
    #    typed registry: any method is one `create_index(name, graph, **params)`.
    index = create_index("PostMHL", graph, bandwidth=14, expected_partitions=8)
    build_seconds = index.build()
    print(
        f"PostMHL built in {build_seconds:.3f}s: "
        f"{index.td.num_partitions} partitions, "
        f"{index.overlay_vertex_count} overlay vertices, "
        f"{index.index_size()} index entries"
    )

    # 3. Answer shortest-distance queries (validated against Dijkstra here).
    source, target = 0, graph.num_vertices - 1
    answer = index.query(source, target)
    print(f"d({source}, {target}) = {answer:.2f} "
          f"(Dijkstra says {dijkstra_distance(graph, source, target):.2f})")

    # 4. Apply a batch of traffic updates and query again — every query stage
    #    of the multi-stage index (one `stage_catalog()` row each, in release
    #    order) stays consistent with the updated network.
    batch = generate_update_batch(graph, volume=40, seed=1)
    report = index.apply_batch(batch)
    print("update stages:", ", ".join(f"{s.name}={s.seconds * 1000:.1f}ms" for s in report.stages))
    for stage in index.stage_catalog():
        print(f"  {stage.name:<15} d({source},{target}) = "
              f"{stage.query(source, target):.2f}")

    # 5. The batch query plane answers many pairs in one call (one source-label
    #    fetch per distinct source) with exactly the scalar path's distances.
    pairs = [(source, target), (source, 210), (source, 57), (3, 396)]
    distances = index.query_many(pairs)
    print("batch:", ", ".join(f"d{p} = {d:.2f}" for p, d in zip(pairs, distances)))


if __name__ == "__main__":
    main()
