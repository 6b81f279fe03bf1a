"""Hierarchical 2-Hop Labeling (H2H) and its dynamic version (DH2H).

H2H [Ouyang et al., SIGMOD 2018] builds a tree decomposition via MDE and
keeps, for every vertex ``v``:

* ``X(v).A`` — the ancestor chain from the root down to ``v`` (the index of an
  ancestor inside the chain equals its tree depth): not stored, a parent walk
  of the row-space tree (:meth:`~repro.treedec.tree.TreeDecomposition.chain`),
* ``X(v).dis`` — distances from ``v`` to every vertex of ``X(v).A`` (the last
  entry, the distance to itself, is 0), and
* ``X(v).pos`` — positions inside ``X(v).A`` of the vertices of
  ``X(v) = {v} ∪ X(v).N``.

A query ``q(s, t)`` finds the LCA ``X`` of ``X(s)`` and ``X(t)`` and returns
``min_{i ∈ X.pos} X(s).dis[i] + X(t).dis[i]``.

DH2H [Zhang et al., ICDE 2021] maintains the index in two phases: a bottom-up
*shortcut update* (shared with DCH: one pass over the flat contraction,
:class:`~repro.treedec.slots.SlotContraction`) followed by a top-down *label
update* that only recomputes distance arrays inside the subtrees rooted at the
shallowest affected tree nodes, pruning untouched branches.

:class:`H2HLabels` keeps every ``X(v).dis`` and ``X(v).pos`` flat, as the
arena of a :class:`~repro.kernels.label_store.LabelStore`: the tree fixes
the topology entries (rows in ascending vertex id, the LCA tables, ``pos``,
the ``dis`` offsets; derived in numpy from the contraction's arena, or read
back from saved labels and checked), and one ``float64`` ``dis_data`` holds
the values.
The label update is one pass over those arrays (:func:`update_labels`: the
C kernel's ``update_labels``, or a numpy step per row without it), and
``build`` is the same pass over every row.  A store wraps the arena as it
stands; the first write after a wrap copies the buffer first, so no store
— of an earlier epoch, or of an earlier stage of this one — sees a later
write.  The pass reads each neighbour's shortcut through a gather map built
once per tree: one ``np.take`` per source arena of the tree's contraction
(one for a plain contraction, one per partition and the overlay for PMHL's
``L*``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.base import DistanceIndex, StageTiming, Timer, UpdateReport
from repro.exceptions import IndexNotBuiltError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.kernels.arena import Arena, rows_of
from repro.kernels.label_store import LABEL_FIELDS, LabelStore, check_query_arrays, layout_arrays
from repro.kernels.native import native_kernel
from repro.registry import IndexSpec, register_spec
from repro.treedec.slots import NO_ROWS, SlotContraction
from repro.treedec.tree import TreeDecomposition

INF = math.inf



class H2HLabels:
    """Distance and position arrays of an H2H-style index over a tree
    decomposition, flat in the label store's layout (see the module docs)."""

    def __init__(self, tree: TreeDecomposition, arena: Optional[Arena] = None):
        """``arena`` reattaches saved labels (see :meth:`over`): its rows
        must be the tree's vertices and its offsets, positions and LCA
        entries pass the checks of a load (``ValueError`` otherwise).
        Without it the values are zeros until :meth:`build`."""
        self.tree = tree
        #: Row ``r`` is vertex ``keys[r]``; ``row`` maps back.  The tree in
        #: row space is what the pass walks: depths, parents (-1 for a root)
        #: and a children CSR (children in ascending row order).
        self.keys, self.row, self.remap = tree.keys, tree.row, tree.remap
        self.depth, self.parent = tree.depth, tree.parent
        self.child_indptr, self.child_rows = tree.child_indptr, tree.child_rows
        #: ``True`` while a store or a snapshot payload holds :attr:`arena`:
        #: the next write copies the buffer first.
        self._wrapped = arena is not None
        if arena is None:
            arrays = layout_arrays(tree)
            arrays["dis_data"] = np.zeros(int(arrays["dis_indptr"][-1]), dtype=np.float64)
            arena = Arena.pack(arrays)
        else:
            self._check_saved(arena)
        self.arena = arena
        #: The widest row: the default column range is ``[0, width)``.
        self.width = int(self.depth.max()) + 1
        self._bounds = arena["dis_indptr"].tolist()
        #: ``sc(v, x)`` per position slot of ``pos_data`` (the own-column
        #: slots unused), gathered again by a pass when a source changed since.
        self._sc: Optional[np.ndarray] = None
        #: ``[(source contraction, position slots, source slots)]`` and the
        #: sources' versions at the last gather.
        self._sc_map: List[Tuple[SlotContraction, np.ndarray, np.ndarray]] = []
        self._sc_versions: Optional[Tuple[int, ...]] = None
        #: Rows recomputed, columns recomputed and columns changed, summed
        #: over every pass so far (``UpdateReport`` takes per-batch deltas).
        self.work = np.zeros(3, dtype=np.int64)

    # ------------------------------------------------------------------
    # Construction and the arena
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Compute every distance array: the label pass over all rows."""
        self.update_top_down(self.keys)

    @classmethod
    def over(
        cls, contraction, arena: Optional[Arena] = None, allow_forest: bool = False
    ) -> "H2HLabels":
        """The labels of ``contraction``'s tree: zeros until :meth:`build`,
        or saved ones reattached from ``arena``, whose depths, components
        and LCA entries the tree reads instead of deriving them."""
        return cls(TreeDecomposition.from_contraction(contraction, allow_forest, arena), arena)

    def _check_saved(self, arena: Arena) -> None:
        """Saved labels fit this tree: the store's entries and dtypes, the
        rows, the label pass's checks over the offsets and positions (the
        depths a loaded tree reads from them included), each tree's
        component, and what the C query indexes (:func:`check_query_arrays`)."""
        dtypes = dict.fromkeys(LABEL_FIELDS, "int64")
        dtypes["dis_data"] = "float64"
        if {name: dtype for name, dtype, _, _ in arena.toc} != dtypes:
            raise ValueError("saved labels do not have the label store's entries")
        if not np.array_equal(arena["verts"], self.keys):
            raise ValueError("label rows do not match the tree's vertices")
        pos_data, n = arena["pos_data"], len(self.keys)
        check_label_arrays(
            self.parent, self.depth, self.child_indptr, self.child_rows,
            arena["dis_indptr"], arena["pos_indptr"], pos_data, pos_data,
            arena["dis_data"], np.zeros(0, dtype=np.int64), NO_ROWS, np.zeros(n, dtype=np.int8),
            np.zeros(3, dtype=np.int64), 0, 0,
        )
        comp, roots = arena["comp"], self.tree.rows(self.tree.roots)
        if len(comp) != n or (comp[roots] != np.arange(len(roots))).any() or (
                comp[self.child_rows] != comp[self.parent[self.child_rows]]).any():
            raise ValueError("a row's component is not its tree's")
        check_query_arrays(arena)

    def wrap(self) -> Arena:
        """The arena as it stands, for a store; the next write copies it."""
        self._wrapped = True
        return self.arena

    def _writable(self) -> np.ndarray:
        """``dis_data``, copied first when a store holds the current buffer."""
        if self._wrapped:
            self.arena = Arena(self.arena.buffer.copy(), self.arena.toc)
            self._wrapped = False
        return self.arena["dis_data"]

    def write(self, v: int, lo: int, values: Sequence[float]) -> None:
        """Store ``values`` as ``v``'s columns from ``lo`` on (a row pass
        outside :meth:`update_top_down`: PostMHL's U-Stage 4)."""
        start = self._bounds[self.row[v]] + lo
        self._writable()[start : start + len(values)] = values

    def dis(self, v: int) -> np.ndarray:
        """``X(v).dis``: a view of ``v``'s row (read it; writes go through
        the label pass)."""
        r = self.row[v]
        return self.arena["dis_data"][self._bounds[r] : self._bounds[r + 1]]

    def pos(self, v: int) -> np.ndarray:
        """``X(v).pos``: the columns of ``X(v).N`` in contraction order, then
        ``v``'s own."""
        r, indptr = self.row[v], self.arena["pos_indptr"]
        return self.arena["pos_data"][indptr[r] : indptr[r + 1]]

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> float:
        """2-hop query through the LCA separator.

        Returns ``inf`` when the vertices lie in different components of the
        (forest) decomposition — i.e. they are unreachable in the indexed graph.
        """
        if source == target:
            return 0.0
        if not self.tree.same_component(source, target):
            return INF
        hubs = self.pos(self.tree.lca(source, target))
        return float((self.dis(source)[hubs] + self.dis(target)[hubs]).min())

    def query_one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        """Batched 2-hop queries sharing one fetch of the source's label.

        Per-pair arithmetic is exactly that of :meth:`query`, so the results
        are bit-identical to the scalar path.
        """
        tree = self.tree
        dis_s = self.dis(source)
        results: List[float] = []
        for target in targets:
            if source == target:
                results.append(0.0)
            elif not tree.same_component(source, target):
                results.append(INF)
            else:
                hubs = self.pos(tree.lca(source, target))
                results.append(float((dis_s[hubs] + self.dis(target)[hubs]).min()))
        return results

    def distance_matrix(self, vertices: Sequence[int]) -> np.ndarray:
        """The symmetric ``k x k`` distances among ``vertices`` (distinct),
        zero on the diagonal, over the arena as it stands.  The upper
        triangle is one C ``query_pairs`` call when the kernel is loaded (a
        transient store, so nothing is wrapped), else :meth:`query` per
        pair; bit-identical either way."""
        k = len(vertices)
        matrix = np.zeros((k, k), dtype=np.float64)
        upper = np.triu_indices(k, 1)
        if k < 2:
            return matrix
        kernel = native_kernel()
        if kernel is None:
            verts = list(vertices)
            values = [
                self.query(verts[i], verts[j]) for i, j in zip(*(a.tolist() for a in upper))
            ]
        else:
            rows = rows_of(self.row, self.remap, vertices)
            values = np.empty(len(upper[0]), dtype=np.float64)
            store = LabelStore(self.arena, rows=(self.row, self.remap))
            kernel.query_pairs(store.capsule, rows[upper[0]], rows[upper[1]], values)
        matrix[upper] = values
        matrix[upper[::-1]] = values
        return matrix

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def update_top_down(
        self,
        affected: Iterable[int],
        allowed: Optional[Set[int]] = None,
        columns: Optional[Tuple[int, int]] = None,
    ) -> Set[int]:
        """Top-down label update (the DH2H label phase), one pass.

        ``affected`` is the set of vertices whose shortcut arrays changed.  The
        distance arrays of those vertices and of any descendant whose ancestor
        labels changed are recomputed; the set of vertices whose distance array
        actually changed is returned (the "affected vertex set" ``V_A``
        consumed by later PMHL/PostMHL stages).

        ``allowed`` optionally restricts the update to a vertex subset closed
        under taking ancestors (e.g. the overlay vertices of PostMHL); children
        outside the subset are not descended into.  ``columns`` restricts
        each row's recomputation to ``[lo, hi)`` (default: the whole row).
        """
        row = self.row
        if isinstance(affected, np.ndarray):
            seeds = np.unique(rows_of(row, self.remap, affected))
        else:
            seeds = np.unique(np.fromiter((row[v] for v in affected if v in row), np.int64))
        mask = NO_ROWS
        if allowed is not None:
            mask = np.zeros(len(self.keys), dtype=np.int8)
            mask[rows_of(row, self.remap, [v for v in allowed if v in row])] = 1
            seeds = seeds[mask[seeds] != 0]
        if not seeds.size:
            return set()
        lo, hi = (0, self.width) if columns is None else columns
        sc = self._shortcuts()
        arena = self.arena
        dis_data = self._writable()
        changed = np.zeros(len(self.keys), dtype=np.int8)
        counts = np.zeros(3, dtype=np.int64)
        update_labels(
            self.parent, self.depth, self.child_indptr, self.child_rows,
            arena["dis_indptr"], arena["pos_indptr"], arena["pos_data"], sc, dis_data,
            seeds, mask, changed, counts, lo, hi,
        )
        self.work += counts
        keys = self.keys
        return {keys[r] for r in np.flatnonzero(changed).tolist()}

    def _shortcuts(self) -> np.ndarray:
        """The shortcut of every position slot, in ``pos`` order: gathered
        from the contraction's source arenas (one ``np.take`` each) when one
        of them changed since the last pass."""
        if self._sc is None:
            self._sc = np.zeros(len(self.arena["pos_data"]), dtype=np.float64)
            self._sc_map = self._gather_map()
        versions = tuple(source.version for source, _, _ in self._sc_map)
        if versions != self._sc_versions:
            for source, dst, src in self._sc_map:
                self._sc[dst] = source.arena["weights"].take(src)
            self._sc_versions = versions
        return self._sc

    def _gather_map(self) -> List[Tuple[SlotContraction, np.ndarray, np.ndarray]]:
        """Each position slot's shortcut slot, split by source arena.  Row
        ``r``'s neighbour slots are ``pos_indptr[r] .. pos_indptr[r+1] - 2``,
        in the order of its contraction row's slots."""
        contraction, pos_indptr = self.tree.contraction, self.arena["pos_indptr"]
        crows = self.tree.crows
        indptr = contraction.arena["indptr"]
        counts = indptr[crows + 1] - indptr[crows]
        if not np.array_equal(counts, np.diff(pos_indptr) - 1):
            raise ValueError("shortcut rows do not match the label positions")
        within = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        dst = np.repeat(pos_indptr[:-1], counts) + within
        sources, slot_sid, slot_src = contraction.slot_map()
        slots = np.repeat(indptr[crows], counts) + within
        sid, src = slot_sid[slots], slot_src[slots]
        return [(source, dst[sid == i], src[sid == i]) for i, source in enumerate(sources)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def label_entry_count(self) -> int:
        """Total number of stored distance-label entries."""
        return len(self.arena["dis_data"])


def check_label_arrays(
    parent, depth, child_indptr, child_rows, dis_indptr, pos_indptr, pos_data, sc,
    dis_data, seeds, allowed, changed, counts, lo, hi,
) -> None:
    """The C pass's input checks (``ValueError`` with its messages)."""
    n = len(parent)
    if (
        len(depth) != n or len(child_indptr) != n + 1 or len(dis_indptr) != n + 1
        or len(pos_indptr) != n + 1 or len(sc) != len(pos_data) or len(changed) != n
        or len(counts) != 3 or len(allowed) not in (0, n) or child_indptr[0] != 0
        or child_indptr[-1] != len(child_rows) or dis_indptr[0] != 0
        or dis_indptr[-1] != len(dis_data) or pos_indptr[0] != 0
        or pos_indptr[-1] != len(pos_data)
    ):
        raise ValueError("label array lengths disagree")
    is_root = parent < 0
    up = np.clip(parent, 0, max(n - 1, 0))
    if (
        (depth < 0).any() or (depth >= n).any() or (parent >= n).any()
        or (is_root & ((parent != -1) | (depth != 0))).any()
        or (~is_root & ((depth == 0) | (depth[up] != depth - 1))).any()
    ):
        raise ValueError("a row's parent or depth is out of range")
    if (np.diff(dis_indptr) != depth + 1).any():
        raise ValueError("dis offsets do not match the ancestor depths")
    if (np.diff(child_indptr) < 0).any() or (np.diff(pos_indptr) < 1).any():
        raise ValueError("child or position offsets are not monotone")
    owners = np.repeat(np.arange(n), np.diff(child_indptr))
    in_range = (child_rows >= 0) & (child_rows < n)
    if not in_range.all() or (parent[child_rows] != owners).any():
        raise ValueError("a child row is out of range or names another parent")
    own = np.repeat(depth, np.diff(pos_indptr))
    last = np.zeros(len(pos_data), dtype=bool)
    last[pos_indptr[1:] - 1] = True
    if ((pos_data < 0) | np.where(last, pos_data != own, pos_data >= own)).any():
        raise ValueError("a position is not a column of its row")
    if ((seeds < 0) | (seeds >= n)).any():
        raise ValueError("a seed is not a row")
    if not 0 <= lo <= hi <= (int(depth.max()) + 1 if n else 0):
        raise ValueError("the column range is not inside the widest row")


def update_labels(
    parent, depth, child_indptr, child_rows, dis_indptr, pos_indptr, pos_data, sc,
    dis_data, seeds, allowed, changed, counts, lo, hi,
) -> None:
    """One top-down label pass from the ``seeds`` rows, writing only
    ``dis_data``, ``changed`` and ``counts``: the C kernel's
    ``update_labels`` when it is loaded (its comment has the algorithm),
    else the numpy loop."""
    kernel = native_kernel()
    run = kernel.update_labels if kernel is not None else _update_labels_pure
    run(parent, depth, child_indptr, child_rows, dis_indptr, pos_indptr, pos_data, sc,
        dis_data, seeds, allowed, changed, counts, lo, hi)


def _update_labels_pure(
    parent, depth, child_indptr, child_rows, dis_indptr, pos_indptr, pos_data, sc,
    dis_data, seeds, allowed, changed, counts, lo, hi,
) -> None:
    """The C pass with one numpy gather and one minimum per recomputed row
    (the rung without a compiler); same candidates, same bits."""
    check_label_arrays(parent, depth, child_indptr, child_rows, dis_indptr, pos_indptr,
                       pos_data, sc, dis_data, seeds, allowed, changed, counts, lo, hi)
    parents, depths = parent.tolist(), depth.tolist()
    seed = {r for r in seeds.tolist() if not len(allowed) or allowed[r]}
    order: List[int] = []
    roots: Set[int] = set()
    for root in seeds.tolist():
        if root not in seed or root in roots:
            continue
        p = parents[root]
        while p >= 0 and p not in seed:
            p = parents[p]
        if p >= 0:
            continue
        roots.add(root)
        stack = [root]
        while stack:
            r = stack.pop()
            order.append(r)
            children = child_rows[child_indptr[r] : child_indptr[r + 1]].tolist()
            stack.extend(c for c in children if not len(allowed) or allowed[c])
    changed[:] = 0
    counts[:] = 0
    flag: Dict[int, bool] = {}
    for r in order:
        ancestor_changed = flag.get(parents[r], False)
        flag[r] = ancestor_changed
        if r not in seed and not ancestor_changed:
            continue
        m = depths[r] + 1
        a, b = lo, min(hi, m)
        counts[0] += 1
        if a >= b:
            continue
        chain = [0] * m
        x = r
        for d in range(m - 1, -1, -1):
            chain[d], x = x, parents[x]
        starts = dis_indptr[chain]
        new = np.full(b - a, INF)
        # Column j of neighbour k (at column px): its own row's entry j above
        # px, the ancestor at j's entry px from px down.
        columns = np.arange(a, min(b, m - 1))
        k0, k1 = pos_indptr[r], pos_indptr[r + 1] - 1
        px, shortcut = pos_data[k0:k1, None], sc[k0:k1, None]
        slots = np.where(columns < px, starts[px] + columns, starts[columns] + px)
        new[: len(columns)] = (shortcut + dis_data[slots]).min(axis=0, initial=INF)
        if b == m:
            new[-1] = 0.0
        old = dis_data[starts[-1] + a : starts[-1] + b]
        moved = int(np.count_nonzero(new != old))
        counts[1] += b - a
        counts[2] += moved
        if moved:
            old[:] = new
            changed[r] = 1
            flag[r] = True


class H2HIndex(DistanceIndex):
    """Static H2H index (tree decomposition + distance/position arrays)."""

    name = "H2H"
    final_stage_is_label_lookup = True

    def __init__(
        self,
        graph: Graph,
        order: Optional[Sequence[int]] = None,
        tiers: Optional[Dict[int, int]] = None,
    ):
        super().__init__(graph)
        self._order = list(order) if order is not None else None
        self._tiers = dict(tiers) if tiers is not None else None
        self.contraction: Optional[SlotContraction] = None
        self.tree: Optional[TreeDecomposition] = None
        self.labels: Optional[H2HLabels] = None

    def _build(self) -> None:
        prefix = self.name.lower() + ".build."
        with obs.span(prefix + "contraction"):
            self.contraction = SlotContraction.build(
                self.graph, order=self._order, tiers=self._tiers
            )
        with obs.span(prefix + "tree_decomposition"):
            self.tree = TreeDecomposition.from_contraction(self.contraction)
        with obs.span(prefix + "labels"):
            self.labels = H2HLabels(self.tree)
            self.labels.build()

    def _require_built(self) -> H2HLabels:
        if self.labels is None:
            raise IndexNotBuiltError(f"{self.name} index has not been built")
        return self.labels

    def _label_store(self):
        """The frozen :class:`LabelStore` of this epoch (``None`` = pure path)."""
        labels = self._require_built()
        return self._kernel("labels", lambda: LabelStore.freeze(labels))

    # The final stage: the label store, or the labels themselves.
    def _final_store(self):
        return self._label_store()

    def _reference_query(self, source: int, target: int) -> float:
        return self.labels.query(source, target)

    def _reference_one_to_many(self, source: int, targets: List[int]) -> List[float]:
        """The source label is fetched once."""
        return self.labels.query_one_to_many(source, targets)

    def _apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        raise NotImplementedError("H2HIndex is static; use DH2HIndex for dynamic maintenance")

    def index_size(self) -> int:
        labels = self._require_built()
        return labels.label_entry_count() + self.contraction.shortcut_count()

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        """The flat contraction (arena, graph weights, supporter slots) and
        the label arena.

        The tree decomposition is *not* stored: on load its parents come
        from the contraction and its depths and LCA entries from the label
        arena (:meth:`H2HLabels.over`).
        """
        from repro.store.codec import pack_labels

        labels = self._require_built()
        return {
            "slots": self.contraction.to_state(io),
            "labels": pack_labels(labels, io),
        }

    def from_state(self, state: Dict[str, object], io) -> None:
        self.contraction = SlotContraction.from_state(state["slots"], io)
        self.labels = H2HLabels.over(self.contraction, Arena.from_state(state["labels"], io))
        self.tree = self.labels.tree

    def _kernel_exports(self):
        return {"labels": self._label_store}

    def _label_sets(self):
        return () if self.labels is None else (self.labels,)

    def _contractions(self):
        return () if self.contraction is None else (self.contraction,)

    @property
    def tree_height(self) -> int:
        self._require_built()
        return int(self.tree.depth.max()) + 1

    @property
    def treewidth(self) -> int:
        self._require_built()
        return self.contraction.treewidth_upper_bound


class DH2HIndex(H2HIndex):
    """Dynamic H2H (the paper's DH2H baseline).

    ``apply_batch`` reports three stages:

    1. ``edge_update`` — on-spot refresh of the graph weights,
    2. ``shortcut_update`` — bottom-up shortcut maintenance, and
    3. ``label_update`` — top-down distance-array maintenance.

    Queries on the H2H labels are only correct again after stage 3, which is
    exactly why the paper's Figure 1 shows DH2H with a long index-unavailable
    period.
    """

    name = "DH2H"

    def _apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        labels = self._require_built()
        report = UpdateReport()
        # Before any structure mutates: no query may read a pre-update store.
        self.invalidate_kernels()

        with Timer() as timer:
            self._refresh_edges(batch)
        self._emit_stage(report, StageTiming("edge_update", timer.seconds))

        with Timer() as timer:
            changed = self.contraction.update(batch)
        self._emit_stage(report, StageTiming("shortcut_update", timer.seconds))

        with Timer() as timer:
            self.last_changed_labels = labels.update_top_down(self.contraction.vertices(changed))
        self._emit_stage(report, StageTiming("label_update", timer.seconds))
        self.last_changed_slots = changed
        return report


@register_spec
@dataclass(frozen=True)
class DH2HSpec(IndexSpec):
    """Construction spec for the dynamic H2H baseline (no knobs)."""

    method = "DH2H"

    def create(self, graph: Graph) -> DH2HIndex:
        return DH2HIndex(graph)
