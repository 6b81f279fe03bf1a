"""Tree decomposition of a flat contraction, as arrays in row space.

Definition 1 of the paper: every vertex ``v`` owns a tree node
``X(v) = {v} ∪ X(v).N`` where ``X(v).N`` are the neighbours of ``v`` in the
contracted graph at the moment of ``v``'s contraction.  ``X(u)`` is the parent
of ``X(v)`` when ``u`` is the lowest-rank vertex of ``X(v).N``.

The contraction's topology fixes the tree, so it is ``int64`` arrays over
*rows* (the vertices in ascending id, the label arena's rows) derived from
the contraction's arena with numpy: ``parent`` is the minimum of each row's
slot columns (columns are contraction rows), ``depth`` and ``comp`` (the
row's tree, in ascending root rank) come from pointer doubling.  So do the
LCA entries the label store packs (:func:`_lca_tables`): the preorder with
roots and siblings in ascending rank, ``first = 2·pre − depth − comp``, the
Euler tour, and its sparse table packed as ``depth << SHIFT | row``.  A tree
over saved labels (``labels=``) reads ``depth`` from the ``dis`` offsets and
``comp`` and the LCA entries from the arena, which
:meth:`~repro.labeling.h2h.H2HLabels.over` checks.  ``X(v).A`` is never
stored: :meth:`TreeDecomposition.chain` walks the parents.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.kernels.arena import build_remap, rows_of
from repro.kernels.label_store import LCA_FIELDS, MASK, SHIFT, floor_log2
from repro.uniques import unique


class TreeDecomposition:
    """Rooted tree decomposition of a flat contraction (see the module docs).

    Row ``r`` is vertex ``keys[r]`` (``verts`` as an array; ``row`` and the
    id map ``remap`` map back) and contraction row ``crows[r]``.  Per row:
    ``parent`` (``-1`` for a root), ``depth``, ``comp``, and the children
    CSR ``child_indptr`` / ``child_rows``.  ``roots``: the roots' vertices in
    ascending rank (``root`` the last).
    """

    def __init__(self, contraction, crows, parent, depth, comp, lca):
        """``lca`` holds the LCA entries by name (a dict, or a label arena)."""
        n = len(crows)
        self.contraction = contraction
        self.crows = crows
        self.verts = contraction.arena["ids"][crows]
        self.keys: List[int] = self.verts.tolist()
        self.row: Dict[int, int] = dict(zip(self.keys, range(n)))
        self.remap = build_remap(self.verts)
        self.parent, self.depth, self.comp = parent, depth, comp
        is_root = parent < 0
        self.child_rows = np.argsort(parent, kind="stable")[np.count_nonzero(is_root):]
        self.child_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(parent[self.child_rows], minlength=n), out=self.child_indptr[1:])
        root_rows = np.flatnonzero(is_root)
        self.roots: List[int] = self.verts[root_rows[np.argsort(crows[root_rows])]].tolist()
        self.root = self.roots[-1]
        self.first, self.logs, self.tbl_flat, self.tbl_off = (lca[name] for name in LCA_FIELDS)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_contraction(
        cls, contraction, allow_forest: bool = False, labels=None
    ) -> "TreeDecomposition":
        """The tree of ``contraction``.

        By default the contraction must come from a connected graph (a single
        tree); pass ``allow_forest=True`` to accept one tree per connected
        component, which is what the partition indexes need when a partition
        subgraph is internally disconnected.  ``labels`` is a saved label
        arena over this contraction: depths, components and the LCA entries
        are read from it instead of derived (its reader checks them).
        """
        arena = contraction.arena
        ids, indptr, indices = arena["ids"], arena["indptr"], arena["indices"]
        n = len(ids)
        if not n:
            raise GraphError("cannot build a tree decomposition from an empty contraction")
        up = np.full(n, -1, dtype=np.int64)
        inner = np.flatnonzero(np.diff(indptr))
        if len(inner):
            up[inner] = np.minimum.reduceat(indices, indptr[inner])
        if (up[inner] <= inner).any() or (up >= n).any():
            raise ValueError("a contraction row's parent is not above it")
        roots = np.flatnonzero(up < 0)
        if len(roots) != 1 and not allow_forest:
            raise GraphError(
                f"tree decomposition requires a connected graph; found {len(roots)} roots"
            )
        crows = np.argsort(ids, kind="stable")
        rows = np.empty(n, dtype=np.int64)
        rows[crows] = np.arange(n, dtype=np.int64)
        up_rows = up[crows]
        parent = np.where(up_rows < 0, -1, rows[up_rows])
        if labels is not None:
            depth = np.diff(labels["dis_indptr"]) - 1
            return cls(contraction, crows, parent, depth, labels["comp"], labels)
        depth, top = _climb(up, (up >= 0).astype(np.int64))
        comp = np.zeros(n, dtype=np.int64)
        comp[roots] = np.arange(len(roots), dtype=np.int64)
        comp = comp[top]
        lca = _lca_tables(up, depth, comp, rows)
        lca["first"] = lca["first"][crows]
        return cls(contraction, crows, parent, depth[crows], comp[crows], lca)

    # ------------------------------------------------------------------
    # Queries on the structure
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.keys)

    @cached_property
    def intervals(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(pre, size, order)``: each row's preorder number and subtree
        size, and the rows in preorder — read from the tour, where ``first``
        gives ``pre`` and a subtree spans its root's first to last position."""
        n, tour = len(self.keys), len(self.logs) - 1
        pre = (self.first + self.depth + self.comp) // 2
        last = np.zeros(n, dtype=np.int64)
        np.maximum.at(last, self.tbl_flat[:tour] & MASK, np.arange(tour, dtype=np.int64))
        order = np.empty(n, dtype=np.int64)
        order[pre] = np.arange(n, dtype=np.int64)
        return pre, (last - self.first) // 2 + 1, order

    def rows(self, vertices: Sequence[int]) -> np.ndarray:
        """The rows of ``vertices`` (``VertexNotFoundError`` for a stranger)."""
        return rows_of(self.remap, vertices)

    def neighbors(self, v: int) -> List[int]:
        """``X(v).N`` — the tree-node neighbour set of ``v``, in slot order."""
        return self.contraction.neighbors[v]

    @cached_property
    def _parents(self) -> List[int]:
        """``parent`` as a list: a walk steps through Python ints."""
        return self.parent.tolist()

    def chain(self, v: int) -> List[int]:
        """``X(v).A``: the vertices from ``v``'s root down to ``v``, by a
        parent walk (the ancestor at depth ``j`` is entry ``j``)."""
        parent, keys = self._parents, self.keys
        chain, r = [], self.row[v]
        while r >= 0:
            chain.append(keys[r])
            r = parent[r]
        return chain[::-1]

    def subtree(self, v: int) -> List[int]:
        """The subtree rooted at ``v`` (``v`` included), in preorder: every
        vertex after its parent."""
        pre, size, order = self.intervals
        r = self.row[v]
        return self.verts[order[pre[r] : pre[r] + size[r]]].tolist()

    def is_ancestor(self, u: int, v: int) -> bool:
        """Return ``True`` if ``u`` is an ancestor of ``v`` (or equal)."""
        pre, size, _ = self.intervals
        ru, rv = self.row[u], self.row[v]
        return bool(pre[ru] <= pre[rv] < pre[ru] + size[ru])

    @cached_property
    def _scalars(self) -> Tuple[List[int], ...]:
        """``comp`` and the LCA entries as lists, for the scalar reads of
        :meth:`lca` (the Python query path; the C query reads the arrays)."""
        arrays = (self.comp, self.first, self.logs, self.tbl_flat, self.tbl_off)
        return tuple(array.tolist() for array in arrays)

    def same_component(self, u: int, v: int) -> bool:
        """Return ``True`` if both vertices belong to the same tree of the forest."""
        comp = self._scalars[0]
        return comp[self.row[u]] == comp[self.row[v]]

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v`` (same component
        required): the shallowest tour entry between their first positions,
        two sparse-table reads."""
        comp, first, logs, tbl, tbl_off = self._scalars
        ru, rv = self.row[u], self.row[v]
        if comp[ru] != comp[rv]:
            raise GraphError(
                f"vertices {u} and {v} are in different components; no common ancestor"
            )
        lo, hi = first[ru], first[rv]
        if lo > hi:
            lo, hi = hi, lo
        k = logs[hi - lo + 1]
        level = tbl_off[k]
        return self.keys[min(tbl[level + lo], tbl[level + hi - (1 << k) + 1]) & MASK]

    def branch_groups(self, vertices: Sequence[int]) -> Dict[int, List[int]]:
        """``vertices`` grouped under their *branch roots* — the members
        with no proper ancestor among them — roots and members in preorder.

        This is the representative selection of the label update phases
        (U-Stage 5 of PMHL): updating the subtrees rooted at the branch
        roots covers every affected vertex exactly once.  Subtrees are
        preorder intervals, so one sort and one running maximum of the
        interval ends find the roots."""
        pre, size, _ = self.intervals
        rows = unique(self.rows(list(vertices)))
        rows = rows[np.argsort(pre[rows])]
        ends = pre[rows] + size[rows]
        reach = np.maximum.accumulate(ends)
        is_root = np.ones(len(rows), dtype=bool)
        is_root[1:] = pre[rows[1:]] >= reach[:-1]
        groups = np.split(self.verts[rows], np.flatnonzero(is_root)[1:]) if len(rows) else []
        return {int(group[0]): group.tolist() for group in groups}


def _climb(up: np.ndarray, weights: np.ndarray):
    """Per row, the sum of ``weights`` over its path to its root (both ends
    included) and that root: pointer doubling, one numpy step per halving of
    the longest path."""
    total, top, jump = weights.copy(), np.arange(len(up), dtype=np.int64), up.copy()
    live = np.flatnonzero(jump >= 0)
    while len(live):
        hop = jump[live]
        total[live] += total[hop]
        top[live] = top[hop]
        jump[live] = jump[hop]
        live = live[jump[live] >= 0]
    return total, top


def _lca_tables(up, depth, comp, rows) -> Dict[str, np.ndarray]:
    """The LCA entries of the tree ``up`` (parents in contraction-row space,
    with its ``depth`` and ``comp``); table entries name label ``rows``.
    The tour has row ``v`` at ``first[v]`` and ``parent[c]`` again at
    ``first[c] + 2·size[c] − 1``; level ``k`` of the table holds the
    shallowest entry of each window of ``2^k`` tour positions."""
    n = len(up)
    # Subtree sizes, bottom-up one level at a time.
    size = np.ones(n, dtype=np.int64)
    by_depth = np.argsort(depth, kind="stable")
    bounds = np.searchsorted(depth[by_depth], np.arange(int(depth.max()) + 2))
    for d in range(len(bounds) - 2, 0, -1):
        level = by_depth[bounds[d] : bounds[d + 1]]
        np.add.at(size, up[level], size[level])
    # Preorder: a root starts after the earlier roots' trees, a child one
    # past its parent plus its earlier siblings' subtrees (ascending rank).
    roots = np.flatnonzero(up < 0)
    kids = np.argsort(up, kind="stable")[len(roots) :]
    step = np.empty(n, dtype=np.int64)
    step[roots] = np.cumsum(size[roots]) - size[roots]
    before = np.cumsum(size[kids]) - size[kids]
    heads = np.flatnonzero(np.diff(up[kids], prepend=-1))
    step[kids] = 1 + before - np.repeat(before[heads], np.diff(heads, append=len(kids)))
    pre, _ = _climb(up, step)
    first = 2 * pre - depth - comp
    # The Euler tour: each row at its first position, each parent again
    # after every child's subtree.
    tour_len = 2 * n - len(roots)
    tour = np.empty(tour_len, dtype=np.int64)
    tour[first] = np.arange(n, dtype=np.int64)
    tour[first[kids] + 2 * size[kids] - 1] = up[kids]
    tour_depth = depth[tour]
    # Sparse table over (depth, tour position) keys: the leftmost of the
    # shallowest entries wins, as the range minimum of the query needs.
    keys = tour_depth * tour_len + np.arange(tour_len, dtype=np.int64)
    levels = [keys]
    span = 1
    while 2 * span <= tour_len:
        keys = np.minimum(keys[:-span], keys[span:])
        levels.append(keys)
        span *= 2
    tbl_off = np.zeros(len(levels) + 1, dtype=np.int64)
    np.cumsum([len(level) for level in levels], out=tbl_off[1:])
    packed = (tour_depth << SHIFT) | rows[tour]
    return {
        "first": first,
        "logs": floor_log2(tour_len),
        "tbl_flat": packed[np.concatenate(levels) % tour_len],
        "tbl_off": tbl_off,
    }
