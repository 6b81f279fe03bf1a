"""Partitioning result representation and validation.

Every partitioner in this package returns a :class:`Partitioning`, which the
PSP indexes consume: it records which partition each vertex belongs to, the
per-partition boundary vertex sets ``B_i`` (vertices with at least one
neighbour in another partition), the inter-partition edge set ``E_inter`` and
helpers to materialise partition subgraphs.  The assignment is one
``part: int32[n]`` array over the graph's rows; members, boundaries and the
cut are derived from it and the graph's edge arrays in one numpy pass.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import PartitioningError
from repro.graph.graph import Graph


class Partitioning:
    """A planar (single-level) partitioning of a road network.

    Parameters
    ----------
    graph:
        The partitioned graph (held by reference).
    part:
        ``part[r]`` is the partition id of the vertex in row ``r`` of
        ``graph`` (a sequence over the rows), or a ``{vertex: pid}`` mapping
        covering every vertex.  Ids must be ``0..k-1``, none empty.
    """

    def __init__(self, graph: Graph, part):
        self.graph = graph
        n = graph.num_vertices
        if isinstance(part, Mapping):
            if len(part) != n or not all(map(graph.has_vertex, part)):
                raise PartitioningError("a partitioning must assign every graph vertex")
            part = np.fromiter((part[v] for v in graph.id_list), np.int64, n)
        part = np.asarray(part)
        if part.shape != (n,):
            raise PartitioningError("a partitioning must assign every graph vertex")
        if n == 0:
            raise PartitioningError("partitioning has no partitions")
        if part.min() < 0 or not (counts := np.bincount(part)).all():
            raise PartitioningError(
                f"partition ids must be contiguous and zero-based, got {np.unique(part)[:10]}"
            )
        self.part = part.astype(np.int32, copy=False)
        self.num_partitions = len(counts)
        # The cut slots, the boundary rows, and each partition's members and
        # boundary in ascending id.
        tail = graph.slot_rows()
        self._cut = self.part[tail] != self.part[graph.indices]
        self.boundary_mask = np.zeros(n, dtype=bool)
        self.boundary_mask[tail[self._cut]] = True
        members, bounds = np.argsort(self.part, kind="stable"), np.cumsum(counts)[:-1]
        self._members = np.split(graph.ids[members], bounds)
        self._sorted_boundary = [ids[mask].tolist() for ids, mask in zip(
            self._members, np.split(self.boundary_mask[members], bounds))]
        self._boundary = [set(ids) for ids in self._sorted_boundary]
        self._partition_of = self.part.tolist()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def partition_vertices(self, pid: int) -> List[int]:
        """Vertices of partition ``pid`` (sorted)."""
        return self._members[pid].tolist()

    def boundary(self, pid: int) -> Set[int]:
        """Boundary vertex set ``B_i`` of partition ``pid``."""
        return self._boundary[pid]

    def sorted_boundary(self, pid: int) -> List[int]:
        """Boundary vertices of partition ``pid`` in ascending id order."""
        return self._sorted_boundary[pid]

    def all_boundary(self) -> Set[int]:
        """Union of all boundary vertex sets ``B``."""
        return set(self.graph.ids[self.boundary_mask].tolist())

    def non_boundary(self, pid: int) -> List[int]:
        """Non-boundary (interior) vertices ``I_i`` of partition ``pid``."""
        boundary = self._boundary[pid]
        return [v for v in self.partition_vertices(pid) if v not in boundary]

    def partition_of(self, v: int) -> int:
        """Partition id of vertex ``v``."""
        return self._partition_of[self.graph.position(v)]

    def inter_edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(us, vs, weights)`` of ``E_inter``, in :meth:`Graph.edges` order."""
        graph = self.graph
        upper = graph.upper_slots()
        cut = upper[self._cut[upper]]
        return (graph.ids[graph.slot_rows()[cut]], graph.ids[graph.indices[cut]],
                graph.weights[graph.edge[cut]])

    def inter_edges(self) -> List[Tuple[int, int, float]]:
        """Edges whose endpoints lie in different partitions (``E_inter``)."""
        return list(zip(*(array.tolist() for array in self.inter_edge_arrays())))

    def subgraph(self, pid: int) -> Graph:
        """The partition subgraph ``G_i`` (intra-partition edges only)."""
        return self.graph.subgraph(self._members[pid])

    def sizes(self) -> List[int]:
        """Partition sizes in vertex count."""
        return [len(members) for members in self._members]

    def boundary_sizes(self) -> List[int]:
        """Boundary sizes ``|B_i|`` per partition."""
        return [len(b) for b in self._sorted_boundary]

    def max_boundary_size(self) -> int:
        """``|B_max|`` — the largest per-partition boundary size."""
        return max(self.boundary_sizes())

    def edge_cut(self) -> int:
        """Number of inter-partition edges."""
        return int(self._cut.sum()) // 2

    def imbalance(self) -> float:
        """Ratio of the largest partition to the ideal (perfectly balanced) size."""
        sizes = self.sizes()
        ideal = self.graph.num_vertices / self.num_partitions
        return max(sizes) / ideal if ideal else 0.0

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, require_connected: bool = False) -> List[str]:
        """Return a list of structural problems (empty when the partitioning is sound)."""
        problems: List[str] = []
        if require_connected:
            for pid in range(self.num_partitions):
                sub = self.subgraph(pid)
                if not sub.is_connected():
                    problems.append(f"partition {pid} is internally disconnected")
        return problems


def partitioning_from_sets(graph: Graph, groups: Sequence[Sequence[int]]) -> Partitioning:
    """Build a :class:`Partitioning` from explicit vertex groups."""
    vertex_partition: Dict[int, int] = {}
    for pid, members in enumerate(groups):
        for v in members:
            if v in vertex_partition:
                raise PartitioningError(f"vertex {v} assigned to more than one partition")
            vertex_partition[v] = pid
    return Partitioning(graph, vertex_partition)
