"""Partitioning result representation and validation.

Every partitioner in this package returns a :class:`Partitioning`, which the
PSP indexes consume: it records which partition each vertex belongs to, the
per-partition boundary vertex sets ``B_i`` (vertices with at least one
neighbour in another partition), the inter-partition edge set ``E_inter`` and
helpers to materialise partition subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.exceptions import PartitioningError
from repro.graph.graph import Graph


@dataclass
class Partitioning:
    """A planar (single-level) partitioning of a road network.

    Attributes
    ----------
    graph:
        The partitioned graph (held by reference).
    vertex_partition:
        ``vertex_partition[v]`` is the partition id of vertex ``v``.
    """

    graph: Graph
    vertex_partition: Dict[int, int]
    _partitions: List[List[int]] = field(init=False, repr=False)
    _boundary: List[Set[int]] = field(init=False, repr=False)
    _sorted_boundary: List[List[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if set(self.vertex_partition) != set(self.graph.vertices()):
            raise PartitioningError("vertex_partition must assign every graph vertex")
        ids = sorted(set(self.vertex_partition.values()))
        if not ids:
            raise PartitioningError("partitioning has no partitions")
        if ids != list(range(len(ids))):
            raise PartitioningError(
                f"partition ids must be contiguous and zero-based, got {ids[:10]}"
            )
        self._partitions = [[] for _ in ids]
        for v, pid in self.vertex_partition.items():
            self._partitions[pid].append(v)
        for members in self._partitions:
            if not members:
                raise PartitioningError("every partition must be non-empty")
            members.sort()
        self._boundary = [set() for _ in ids]
        for u, v, _ in self.graph.edges():
            pu, pv = self.vertex_partition[u], self.vertex_partition[v]
            if pu != pv:
                self._boundary[pu].add(u)
                self._boundary[pv].add(v)
        self._sorted_boundary = [sorted(b) for b in self._boundary]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    def partition_vertices(self, pid: int) -> List[int]:
        """Vertices of partition ``pid`` (sorted)."""
        return self._partitions[pid]

    def boundary(self, pid: int) -> Set[int]:
        """Boundary vertex set ``B_i`` of partition ``pid``."""
        return self._boundary[pid]

    def sorted_boundary(self, pid: int) -> List[int]:
        """Boundary vertices of partition ``pid`` in ascending id order."""
        return self._sorted_boundary[pid]

    def all_boundary(self) -> Set[int]:
        """Union of all boundary vertex sets ``B``."""
        result: Set[int] = set()
        for b in self._boundary:
            result |= b
        return result

    def non_boundary(self, pid: int) -> List[int]:
        """Non-boundary (interior) vertices ``I_i`` of partition ``pid``."""
        boundary = self._boundary[pid]
        return [v for v in self._partitions[pid] if v not in boundary]

    def partition_of(self, v: int) -> int:
        """Partition id of vertex ``v``."""
        return self.vertex_partition[v]

    def inter_edges(self) -> List[Tuple[int, int, float]]:
        """Edges whose endpoints lie in different partitions (``E_inter``)."""
        return [
            (u, v, w)
            for u, v, w in self.graph.edges()
            if self.vertex_partition[u] != self.vertex_partition[v]
        ]

    def subgraph(self, pid: int) -> Graph:
        """The partition subgraph ``G_i`` (intra-partition edges only)."""
        return self.graph.subgraph(self._partitions[pid])

    def sizes(self) -> List[int]:
        """Partition sizes in vertex count."""
        return [len(members) for members in self._partitions]

    def boundary_sizes(self) -> List[int]:
        """Boundary sizes ``|B_i|`` per partition."""
        return [len(b) for b in self._boundary]

    def max_boundary_size(self) -> int:
        """``|B_max|`` — the largest per-partition boundary size."""
        return max(self.boundary_sizes())

    def edge_cut(self) -> int:
        """Number of inter-partition edges."""
        return len(self.inter_edges())

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
        assigned = sum(len(members) for members in self._partitions)
        if assigned != self.graph.num_vertices:
            problems.append(
                f"{assigned} vertices assigned but the graph has {self.graph.num_vertices}"
            )
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
