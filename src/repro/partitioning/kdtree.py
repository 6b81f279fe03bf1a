"""Coordinate-based recursive-bisection partitioner.

Road networks come with a planar embedding; recursively splitting along the
median of the wider coordinate axis yields balanced, geometrically compact
partitions with short boundaries.  This is the cheapest of the provided
partitioners and the most predictable one for the synthetic grid networks, so
the experiment harness uses it by default when coordinates are available.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PartitioningError
from repro.graph.graph import Graph
from repro.partitioning.base import Partitioning


def kdtree_partition(graph: Graph, num_partitions: int) -> Partitioning:
    """Partition by recursive coordinate bisection into ``num_partitions`` cells.

    ``num_partitions`` does not have to be a power of two: at every split the
    requested partition count is divided as evenly as possible between the two
    halves, and the vertex counts are split proportionally.
    """
    if num_partitions < 1:
        raise PartitioningError(f"num_partitions must be >= 1, got {num_partitions}")
    if num_partitions > graph.num_vertices:
        raise PartitioningError(
            f"cannot split {graph.num_vertices} vertices into {num_partitions} partitions"
        )
    if not graph.has_coordinates():
        raise PartitioningError("kdtree_partition requires vertex coordinates")

    coords = graph.coords
    part = np.zeros(graph.num_vertices, dtype=np.int64)
    next_pid = 0

    def split(rows: np.ndarray, parts: int) -> None:
        nonlocal next_pid
        if parts <= 1 or len(rows) <= 1:
            part[rows] = next_pid
            next_pid += 1
            return
        xs, ys = coords[rows, 0], coords[rows, 1]
        axis = 0 if (xs.max() - xs.min()) >= (ys.max() - ys.min()) else 1
        # By the axis coordinate, then the other one, then the id (rows
        # ascend with ids).
        rows = rows[np.lexsort((rows, coords[rows, 1 - axis], coords[rows, axis]))]
        left_parts = parts // 2
        right_parts = parts - left_parts
        cut = int(round(len(rows) * left_parts / parts))
        cut = max(1, min(len(rows) - 1, cut))
        split(rows[:cut], left_parts)
        split(rows[cut:], right_parts)

    split(np.arange(graph.num_vertices), num_partitions)
    return Partitioning(graph, part)
