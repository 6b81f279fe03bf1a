"""Tree Decomposition-based graph partitioning (TD-partitioning, Algorithm 2).

Section VI-A of the paper inverts the usual PSP pipeline: instead of deriving a
vertex order from an externally computed partitioning, it derives the
partitioning from the high-quality MDE vertex order.  Each partition is the
subtree of a chosen *root vertex* ``u``; the root's tree-node neighbour set
``X(u).N`` is a vertex separator between the subtree and the rest of the graph
and therefore serves as the partition's boundary ``B_i``.  Vertices outside all
partition subtrees form the overlay graph.

Root candidates are constrained by a *bandwidth* ``τ`` (maximum boundary size,
i.e. ``|X(u).N| ≤ τ``) and partition-size bounds ``β_l·|V|/k_e ≤ |subtree(u)| ≤
β_u·|V|/k_e``; among candidates, the "minimum overlay" strategy greedily keeps
the highest-order candidates whose subtrees do not overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.exceptions import PartitioningError
from repro.treedec.tree import TreeDecomposition


@dataclass
class TDPartitioning:
    """Result of TD-partitioning: partition subtrees plus an overlay vertex set.

    Unlike :class:`repro.partitioning.base.Partitioning`, not every vertex
    belongs to a partition: the ancestors of the partition roots (and any
    vertex outside every chosen subtree) form the overlay.
    """

    tree: TreeDecomposition
    roots: List[int]
    partition_vertices: List[List[int]] = field(default_factory=list)
    boundary: List[List[int]] = field(default_factory=list)
    vertex_partition: Dict[int, Optional[int]] = field(default_factory=dict)
    overlay_vertices: Set[int] = field(default_factory=set)

    @property
    def num_partitions(self) -> int:
        return len(self.roots)

    @classmethod
    def from_roots(cls, tree: TreeDecomposition, roots: List[int]) -> "TDPartitioning":
        """Materialise the partitioning implied by chosen subtree roots.

        The roots fully determine the partitioning (members = subtree,
        boundary = the root's tree-node neighbour set, overlay = everything
        else), so this is both the tail of :func:`td_partition` and the way
        snapshots reconstruct a ``TDPartitioning`` from the stored root list.
        """
        result = cls(tree=tree, roots=list(roots))
        vertex_partition: Dict[int, Optional[int]] = dict.fromkeys(tree.keys)
        for pid, root in enumerate(result.roots):
            members = sorted(tree.subtree(root))
            result.partition_vertices.append(members)
            result.boundary.append(sorted(tree.neighbors(root)))
            for v in members:
                vertex_partition[v] = pid
        result.vertex_partition = vertex_partition
        result.overlay_vertices = {
            v for v, pid in vertex_partition.items() if pid is None
        }
        return result

    def partition_of(self, v: int) -> Optional[int]:
        """Partition id of ``v`` or ``None`` when ``v`` is an overlay vertex."""
        return self.vertex_partition[v]

    def max_boundary_size(self) -> int:
        """``|B_max|`` over all partitions (0 when there are no partitions)."""
        return max((len(b) for b in self.boundary), default=0)

    def sizes(self) -> List[int]:
        return [len(members) for members in self.partition_vertices]

    def validate(self) -> List[str]:
        """Structural sanity checks; returns a list of problems found."""
        problems: List[str] = []
        seen: Set[int] = set()
        for pid, members in enumerate(self.partition_vertices):
            overlap = seen.intersection(members)
            if overlap:
                problems.append(f"partition {pid} overlaps earlier partitions: {sorted(overlap)[:5]}")
            seen.update(members)
        if seen & self.overlay_vertices:
            problems.append("overlay vertices overlap partition vertices")
        total = len(seen) + len(self.overlay_vertices)
        if total != self.tree.num_vertices:
            problems.append(
                f"{total} vertices covered but the tree has {self.tree.num_vertices}"
            )
        for pid, boundary in enumerate(self.boundary):
            outside = [b for b in boundary if b not in self.overlay_vertices]
            if outside:
                problems.append(f"partition {pid} boundary vertices not in overlay: {outside[:5]}")
        return problems


def td_partition(
    tree: TreeDecomposition,
    bandwidth: int,
    expected_partitions: int,
    beta_lower: float = 0.1,
    beta_upper: float = 2.0,
) -> TDPartitioning:
    """Algorithm 2 of the paper: TD-partitioning.

    Parameters
    ----------
    tree:
        MDE-based tree decomposition of the road network.
    bandwidth:
        ``τ`` — maximum allowed boundary size (``|X(u).N|``) of a partition.
    expected_partitions:
        ``k_e`` — desired number of partitions (the realised number may be
        smaller when few subtrees satisfy the constraints).
    beta_lower, beta_upper:
        ``β_l`` and ``β_u`` — partition-size imbalance bounds relative to the
        ideal size ``|V| / k_e``.
    """
    if bandwidth < 1:
        raise PartitioningError(f"bandwidth must be >= 1, got {bandwidth}")
    if expected_partitions < 1:
        raise PartitioningError(
            f"expected_partitions must be >= 1, got {expected_partitions}"
        )
    if beta_lower < 0 or beta_upper <= 0 or beta_lower > beta_upper:
        raise PartitioningError(
            f"invalid size bounds beta_lower={beta_lower}, beta_upper={beta_upper}"
        )

    n = tree.num_vertices
    ideal = n / expected_partitions
    pre, size, _ = tree.intervals
    indptr = tree.contraction.arena["indptr"]
    width = indptr[tree.crows + 1] - indptr[tree.crows]

    # Root candidates, scanned in decreasing vertex order (Algorithm 2 line 7).
    # A candidate must have a non-empty neighbour set: a subtree with no
    # separator would swallow the whole component and leave no overlay graph.
    fits = (beta_lower * ideal <= size) & (size <= beta_upper * ideal) & (width >= 1)
    candidates = np.flatnonzero(fits & (width <= bandwidth))
    candidates = candidates[np.argsort(-tree.crows[candidates])].tolist()

    # Minimum-overlay selection: keep candidates whose subtrees (preorder
    # intervals) are disjoint.
    spans = list(zip(pre.tolist(), (pre + size).tolist()))
    roots: List[int] = []
    for r in candidates:
        if len(roots) >= expected_partitions:
            break
        if all(spans[r][1] <= spans[u][0] or spans[u][1] <= spans[r][0] for u in roots):
            roots.append(r)
    return TDPartitioning.from_roots(tree, [tree.keys[r] for r in roots])
