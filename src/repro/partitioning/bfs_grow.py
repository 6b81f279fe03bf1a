"""Multi-seed region-growing partitioner.

A simple, robust partitioner for road networks: ``k`` seeds are spread over the
graph with a farthest-point heuristic and the partitions are grown around them
with a synchronous multi-source BFS, which yields connected, roughly balanced
regions with compact boundaries — the qualitative properties the paper obtains
from PUNCH (see DESIGN.md §3 for the substitution note).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List

from repro.exceptions import PartitioningError
from repro.graph.graph import Graph
from repro.partitioning.base import Partitioning


def _spread_seeds(rows: List[List[int]], k: int, rng: random.Random) -> List[int]:
    """Pick ``k`` seed rows far apart using a BFS farthest-point heuristic."""
    vertices = range(len(rows))
    seeds = [rng.choice(vertices)]
    while len(seeds) < k:
        # Multi-source BFS from current seeds, measured in hops.
        queue = deque(seeds)
        hop_distance: Dict[int, int] = {seed: 0 for seed in seeds}
        while queue:
            v = queue.popleft()
            for u in rows[v]:
                if u not in hop_distance:
                    hop_distance[u] = hop_distance[v] + 1
                    queue.append(u)
        candidates = [v for v in vertices if v not in seeds]
        if not candidates:
            break
        farthest = max(candidates, key=lambda v: (hop_distance.get(v, -1), -v))
        seeds.append(farthest)
    return seeds


def bfs_partition(graph: Graph, num_partitions: int, seed: int = 0) -> Partitioning:
    """Partition ``graph`` into ``num_partitions`` regions by balanced BFS growth.

    The growth is synchronous and capacity-bounded: in every round each region
    absorbs at most one BFS layer and no region may exceed ``ceil(1.25 * n/k)``
    vertices until every vertex has been assigned, keeping sizes balanced.
    """
    n = graph.num_vertices
    if num_partitions < 1:
        raise PartitioningError(f"num_partitions must be >= 1, got {num_partitions}")
    if num_partitions > n:
        raise PartitioningError(
            f"cannot split {n} vertices into {num_partitions} non-empty partitions"
        )
    rows = graph.neighbor_rows()
    rng = random.Random(seed)
    seeds = _spread_seeds(rows, num_partitions, rng)

    capacity = max(1, int(1.25 * n / num_partitions) + 1)
    assignment = [-1] * n
    frontiers: List[deque] = []
    sizes = [0] * num_partitions
    for pid, s in enumerate(seeds):
        assignment[s] = pid
        sizes[pid] += 1
        frontiers.append(deque([s]))

    # Synchronous capacity-bounded growth.
    active = True
    while active:
        active = False
        for pid in range(num_partitions):
            if sizes[pid] >= capacity:
                continue
            frontier = frontiers[pid]
            next_frontier: deque = deque()
            while frontier:
                v = frontier.popleft()
                for u in rows[v]:
                    if assignment[u] >= 0:
                        continue
                    if sizes[pid] >= capacity:
                        next_frontier.append(v)
                        break
                    assignment[u] = pid
                    sizes[pid] += 1
                    next_frontier.append(u)
                    active = True
                else:
                    continue
                break
            frontiers[pid] = next_frontier

    # Any vertex still unassigned (capacity exhausted everywhere or disconnected
    # leftovers) joins the smallest adjacent region, or the globally smallest.
    unassigned = [v for v in range(n) if assignment[v] < 0]
    # BFS sweep so leftovers attach to already-assigned neighbours first.
    progress = True
    while unassigned and progress:
        progress = False
        still_left = []
        for v in unassigned:
            neighbour_pids = {assignment[u] for u in rows[v] if assignment[u] >= 0}
            if neighbour_pids:
                pid = min(neighbour_pids, key=lambda p: sizes[p])
                assignment[v] = pid
                sizes[pid] += 1
                progress = True
            else:
                still_left.append(v)
        unassigned = still_left
    for v in unassigned:
        pid = sizes.index(min(sizes))
        assignment[v] = pid
        sizes[pid] += 1

    return Partitioning(graph, assignment)


def refine_boundary(
    partitioning: Partitioning, max_passes: int = 3, balance_slack: float = 1.4
) -> Partitioning:
    """Greedy boundary refinement: move boundary vertices to reduce the edge cut.

    A vertex moves to a neighbouring partition when the move strictly reduces
    the number of cut edges and does not push the target partition above
    ``balance_slack`` times the ideal size.  This is the "local improvement"
    flavour of natural-cut partitioners, kept deliberately simple.  Only a
    vertex with a neighbour in another partition can move: the passes visit
    the boundary, plus the neighbours of every vertex that moved.
    """
    graph = partitioning.graph
    rows = graph.neighbor_rows()
    assignment = partitioning.part.tolist()
    k = partitioning.num_partitions
    ideal = graph.num_vertices / k
    limit = int(balance_slack * ideal) + 1
    sizes = partitioning.sizes()
    cut = partitioning.boundary_mask.tolist()

    for _ in range(max_passes):
        moved = 0
        for v in range(graph.num_vertices):
            if not cut[v]:
                continue
            current = assignment[v]
            if sizes[current] <= 1:
                continue
            neighbour_count: Dict[int, int] = {}
            for u in rows[v]:
                neighbour_count[assignment[u]] = neighbour_count.get(assignment[u], 0) + 1
            best_pid, best_gain = current, 0
            internal = neighbour_count.get(current, 0)
            for pid, count in neighbour_count.items():
                if pid == current or sizes[pid] >= limit:
                    continue
                gain = count - internal
                if gain > best_gain:
                    best_gain, best_pid = gain, pid
            if best_pid != current:
                assignment[v] = best_pid
                sizes[current] -= 1
                sizes[best_pid] += 1
                moved += 1
                for u in rows[v]:
                    cut[u] = True
        if moved == 0:
            break
    return Partitioning(graph, assignment)
