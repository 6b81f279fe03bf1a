"""Tree decomposition built on top of an MDE contraction.

Definition 1 of the paper: every vertex ``v`` owns a tree node
``X(v) = {v} ∪ X(v).N`` where ``X(v).N`` are the neighbours of ``v`` in the
contracted graph at the moment of ``v``'s contraction.  ``X(u)`` is the parent
of ``X(v)`` when ``u`` is the lowest-rank vertex of ``X(v).N``.

The resulting rooted tree is what H2H, MHL, PMHL and PostMHL hang their
distance/position/boundary arrays on.  This module only captures the
*structure* (parents, children, depths, ancestor chains, subtree sizes) plus a
constant-time LCA oracle; the label arrays live with the individual indexes.
The contraction is read for its topology only (``order``, ``rank``,
``neighbors``): it is always a flat contraction
(:mod:`repro.treedec.slots`), whose weights move under the tree each epoch
while the tree itself never changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.exceptions import GraphError
from repro.treedec.lca import LCAOracle


@dataclass
class TreeDecomposition:
    """Rooted tree decomposition derived from a flat contraction.

    Attributes
    ----------
    contraction:
        The underlying flat contraction
        (:class:`~repro.treedec.slots.FlatContraction`); only its topology is
        read.
    root:
        The highest-rank vertex (contracted last).
    parent:
        ``parent[v]`` is the parent vertex of ``v`` (``None`` for the root).
    children:
        ``children[v]`` lists the children of ``v``.
    depth:
        ``depth[v]`` is the number of proper ancestors of ``v`` (root = 0).
    ancestors:
        ``ancestors[v]`` is ``X(v).A``: the vertex chain from the root down to
        and *including* ``v`` (so ``ancestors[v][-1] == v``), matching the
        paper's distance-array convention where the last entry is 0.
    """

    contraction: object
    root: int
    roots: List[int] = field(default_factory=list)
    parent: Dict[int, Optional[int]] = field(default_factory=dict)
    children: Dict[int, List[int]] = field(default_factory=dict)
    depth: Dict[int, int] = field(default_factory=dict)
    ancestors: Dict[int, List[int]] = field(default_factory=dict)
    component: Dict[int, int] = field(default_factory=dict)
    _lca: Optional[LCAOracle] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_contraction(
        cls, contraction, allow_forest: bool = False
    ) -> "TreeDecomposition":
        """Build the tree from a contraction.

        By default the contraction must come from a connected graph (a single
        tree); pass ``allow_forest=True`` to accept one tree per connected
        component, which is what the partition indexes need when a partition
        subgraph is internally disconnected.
        """
        if not contraction.order:
            raise GraphError("cannot build a tree decomposition from an empty contraction")
        rank = contraction.rank
        parent: Dict[int, Optional[int]] = {}
        children: Dict[int, List[int]] = {v: [] for v in contraction.order}
        roots: List[int] = []
        for v in contraction.order:
            nbrs = contraction.neighbors[v]
            if not nbrs:
                parent[v] = None
                roots.append(v)
                continue
            p = min(nbrs, key=lambda u: rank[u])
            parent[v] = p
            children[p].append(v)
        if len(roots) != 1 and not allow_forest:
            raise GraphError(
                f"tree decomposition requires a connected graph; found {len(roots)} roots"
            )

        tree = cls(
            contraction=contraction,
            root=roots[-1],
            roots=roots,
            parent=parent,
            children=children,
        )
        tree._compute_depths_and_ancestors()
        return tree

    def _compute_depths_and_ancestors(self) -> None:
        """Fill depth and ancestor chains with an explicit top-down traversal."""
        self.depth = {}
        self.ancestors = {}
        self.component = {}
        order: List[int] = []
        for component_id, root in enumerate(self.roots):
            stack = [root]
            self.depth[root] = 0
            self.ancestors[root] = [root]
            self.component[root] = component_id
            while stack:
                v = stack.pop()
                order.append(v)
                for child in self.children[v]:
                    self.depth[child] = self.depth[v] + 1
                    self.ancestors[child] = self.ancestors[v] + [child]
                    self.component[child] = component_id
                    stack.append(child)
        if len(order) != len(self.contraction.order):
            raise GraphError("tree traversal did not reach every vertex")
        # Structural change: invalidate every structure-keyed memo (traversal
        # orders, the LCA oracle).
        self._topdown_order = tuple(order)
        self._bottomup_order = tuple(reversed(order))
        self._lca = None

    # ------------------------------------------------------------------
    # Queries on the structure
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.parent)

    @property
    def height(self) -> int:
        """Tree height (max number of nodes on a root-to-leaf path)."""
        return max(self.depth.values()) + 1 if self.depth else 0

    @property
    def treewidth(self) -> int:
        """Width of the decomposition (max neighbour-set size)."""
        return self.contraction.treewidth_upper_bound

    def top_down_order(self) -> Sequence[int]:
        """Vertices in an order where every parent precedes its children.

        Memoised: returns the cached (immutable) tuple rather than a fresh
        list — ``H2HLabels.build`` and the partial-rebuild paths call this on
        every (re)construction, so the per-call O(n) copy was pure waste.
        The memo is invalidated by :meth:`_compute_depths_and_ancestors`,
        the single place the tree structure changes.
        """
        return self._topdown_order

    def bottom_up_order(self) -> Sequence[int]:
        """Vertices in an order where every child precedes its parent (memoised)."""
        return self._bottomup_order

    def neighbors(self, v: int) -> List[int]:
        """``X(v).N`` — the tree-node neighbour set of ``v``."""
        return self.contraction.neighbors[v]

    def subtree(self, v: int) -> Iterator[int]:
        """Iterate over the subtree rooted at ``v`` (including ``v``), top-down."""
        stack = [v]
        while stack:
            x = stack.pop()
            yield x
            stack.extend(self.children[x])

    def subtree_sizes(self) -> Dict[int, int]:
        """Number of descendants (including self) for every vertex."""
        sizes = {v: 1 for v in self.parent}
        for v in self.bottom_up_order():
            p = self.parent[v]
            if p is not None:
                sizes[p] += sizes[v]
        return sizes

    def is_ancestor(self, u: int, v: int) -> bool:
        """Return ``True`` if ``u`` is an ancestor of ``v`` (or equal)."""
        if self.component[u] != self.component[v]:
            return False
        return self.lca(u, v) == u

    def same_component(self, u: int, v: int) -> bool:
        """Return ``True`` if both vertices belong to the same tree of the forest."""
        return self.component[u] == self.component[v]

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v`` (same component required)."""
        if self.component[u] != self.component[v]:
            raise GraphError(
                f"vertices {u} and {v} are in different components; no common ancestor"
            )
        if self._lca is None:
            self._lca = LCAOracle(self.parent, self.children, self.roots, self.depth)
        return self._lca.query(u, v)

    def branch_roots(self, vertices: Sequence[int]) -> List[int]:
        """Return the shallowest vertices of ``vertices`` with no proper ancestor in the set.

        This is the "representative / branch root" selection used by the label
        update phases (U-Stage 3/5 of PMHL, U-Stage 3-5 of PostMHL): updating
        the subtrees rooted at the branch roots covers every affected vertex
        exactly once.
        """
        return list(self.branch_groups(vertices))

    def branch_groups(self, vertices: Sequence[int]) -> Dict[int, List[int]]:
        """``vertices`` grouped under their branch roots (see
        :meth:`branch_roots`), roots by depth.  Every tree vertex is walked
        at most once: the walk up from each vertex stops at the first one
        whose branch root (or lack of one) is already known."""
        depth, parent = self.depth, self.parent
        above: Dict[int, Optional[int]] = {}  # vertex -> branch root over it
        groups: Dict[int, List[int]] = {}
        for v in sorted(set(vertices), key=depth.__getitem__):
            path = []
            u = parent[v]
            while u is not None and u not in above:
                path.append(u)
                u = parent[u]
            root = None if u is None else above[u]
            for w in path:
                above[w] = root
            if root is None:
                root = v
                groups[v] = []
            above[v] = root
            groups[root].append(v)
        return groups
