"""Hierarchical 2-Hop Labeling (H2H) and its dynamic version (DH2H).

H2H [Ouyang et al., SIGMOD 2018] builds a tree decomposition via MDE and
stores, for every vertex ``v``:

* ``X(v).A`` — the ancestor chain from the root down to ``v`` (the index of an
  ancestor inside the chain equals its tree depth),
* ``X(v).dis`` — distances from ``v`` to every vertex of ``X(v).A`` (the last
  entry, the distance to itself, is 0), and
* ``X(v).pos`` — positions inside ``X(v).A`` of the vertices of
  ``X(v) = {v} ∪ X(v).N``.

A query ``q(s, t)`` finds the LCA ``X`` of ``X(s)`` and ``X(t)`` and returns
``min_{i ∈ X.pos} X(s).dis[i] + X(t).dis[i]``.

DH2H [Zhang et al., ICDE 2021] maintains the index in two phases: a bottom-up
*shortcut update* (shared with DCH) followed by a top-down *label update* that
only recomputes distance arrays inside the subtrees rooted at the shallowest
affected tree nodes, pruning untouched branches.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set

from dataclasses import dataclass

from repro import obs
from repro.base import DistanceIndex, StageTiming, Timer, UpdateReport
from repro.exceptions import IndexNotBuiltError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.kernels.label_store import LabelStore
from repro.kernels.native import native_kernel
from repro.registry import IndexSpec, register_spec
from repro.treedec.mde import ContractionResult, contract_graph, update_shortcuts_bottom_up
from repro.treedec.tree import TreeDecomposition

INF = math.inf


class H2HLabels:
    """Distance and position arrays of an H2H-style index over a tree decomposition."""

    def __init__(self, tree: TreeDecomposition):
        self.tree = tree
        #: ``dis[v][j]`` = distance from ``v`` to its ancestor at depth ``j``.
        self.dis: Dict[int, List[float]] = {}
        #: ``pos[v]`` = ancestor-chain positions of ``{v} ∪ X(v).N``.
        self.pos: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, vertices: Optional[Iterable[int]] = None) -> None:
        """Build the distance/position arrays top-down.

        ``vertices`` optionally restricts construction to a subset that is
        closed under taking ancestors (used by PostMHL to build the overlay
        index first and the partition indexes later).
        """
        allowed = set(vertices) if vertices is not None else None
        for v in self.tree.top_down_order():
            if allowed is not None and v not in allowed:
                continue
            self.recompute_vertex(v)

    def recompute_vertex(self, v: int) -> List[float]:
        """(Re)compute the distance array of ``v`` from its neighbours' arrays.

        Returns the new distance array (also stored in ``self.dis``).
        """
        tree = self.tree
        anc = tree.ancestors[v]
        depth = tree.depth
        dis = self.dis
        m = len(anc)
        neighbors = tree.neighbors(v)
        shortcuts = tree.contraction.shortcuts[v]

        # Neighbour-outer, column-inner: ``x`` sits at depth ``px < m - 1`` on
        # ``v``'s ancestor chain.  Columns above it relax against ``x``'s own
        # array, columns from it downwards against the ancestor's entry for
        # ``x`` (``0.0`` at ``j == px``, where the ancestor is ``x`` itself).
        # Each column still takes the minimum over the same candidates.
        kernel = native_kernel()
        if kernel is not None:
            # The same loop in C over these same containers (bit-identical).
            new = kernel.recompute_row(dis, anc, neighbors, shortcuts, depth)
        else:
            new = [INF] * m
            for x in neighbors:
                sc = shortcuts[x]
                px = depth[x]
                for j, d in enumerate(dis[x][:px]):
                    candidate = sc + d
                    if candidate < new[j]:
                        new[j] = candidate
                for j in range(px, m - 1):
                    candidate = sc + dis[anc[j]][px]
                    if candidate < new[j]:
                        new[j] = candidate
            new[m - 1] = 0.0
        dis[v] = new
        self.pos[v] = [depth[x] for x in neighbors] + [m - 1]
        return new

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
        lca = self.tree.lca(source, target)
        dis_s = self.dis[source]
        dis_t = self.dis[target]
        best = INF
        for i in self.pos[lca]:
            candidate = dis_s[i] + dis_t[i]
            if candidate < best:
                best = candidate
        return best

    def query_one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        """Batched 2-hop queries sharing one fetch of the source's label.

        The source's distance array is loaded once and intersected against
        every target's array; per-pair arithmetic is exactly that of
        :meth:`query`, so the results are bit-identical to the scalar path.
        """
        tree = self.tree
        dis = self.dis
        pos = self.pos
        dis_s = dis[source]
        results: List[float] = []
        for target in targets:
            if source == target:
                results.append(0.0)
                continue
            if not tree.same_component(source, target):
                results.append(INF)
                continue
            lca = tree.lca(source, target)
            dis_t = dis[target]
            best = INF
            for i in pos[lca]:
                candidate = dis_s[i] + dis_t[i]
                if candidate < best:
                    best = candidate
            results.append(best)
        return results

    def distance_to_ancestor(self, v: int, ancestor: int) -> float:
        """Distance from ``v`` to one of its ancestors (O(1) label lookup)."""
        return self.dis[v][self.tree.depth[ancestor]]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def update_top_down(
        self, affected: Iterable[int], allowed: Optional[Set[int]] = None
    ) -> Set[int]:
        """Top-down label update (the DH2H label phase).

        ``affected`` is the set of vertices whose shortcut arrays changed.  The
        distance arrays of those vertices and of any descendant whose ancestor
        labels changed are recomputed; the set of vertices whose distance array
        actually changed is returned (the "affected vertex set" ``V_A``
        consumed by later PMHL/PostMHL stages).

        ``allowed`` optionally restricts the update to a vertex subset closed
        under taking ancestors (e.g. the overlay vertices of PostMHL); children
        outside the subset are not descended into.
        """
        affected_set = {v for v in affected if v in self.dis}
        if allowed is not None:
            affected_set &= allowed
        changed: Set[int] = set()
        if not affected_set:
            return changed
        for root in self.tree.branch_roots(sorted(affected_set)):
            stack = [(root, False)]
            while stack:
                v, ancestor_changed = stack.pop()
                vertex_changed = False
                if ancestor_changed or v in affected_set:
                    old = self.dis.get(v)
                    new = self.recompute_vertex(v)
                    if old != new:
                        vertex_changed = True
                        changed.add(v)
                flag = ancestor_changed or vertex_changed
                for child in self.tree.children[v]:
                    if child not in self.dis:
                        continue
                    if allowed is not None and child not in allowed:
                        continue
                    stack.append((child, flag))
        return changed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def label_entry_count(self) -> int:
        """Total number of stored distance-label entries."""
        return sum(len(entries) for entries in self.dis.values())


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
        self.contraction: Optional[ContractionResult] = None
        self.tree: Optional[TreeDecomposition] = None
        self.labels: Optional[H2HLabels] = None

    def _build(self) -> None:
        prefix = self.name.lower() + ".build."
        with obs.span(prefix + "contraction"):
            self.contraction = contract_graph(
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
        return self._kernel("labels", lambda _: LabelStore.freeze(labels))

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
        """Contraction (shortcuts + supporters) and the label CSR arrays.

        The tree decomposition and its LCA oracle are *not* stored: they are
        derived from the contraction in O(n·h) on load, which is negligible
        next to the contraction and label-construction work being skipped.
        """
        from repro.store.codec import pack_contraction, pack_labels

        labels = self._require_built()
        return {
            "contraction": pack_contraction(self.contraction, io),
            "labels": pack_labels(labels, io),
        }

    def from_state(self, state: Dict[str, object], io) -> None:
        from repro.store.codec import unpack_contraction, unpack_labels

        self.contraction = unpack_contraction(state["contraction"], io)
        self.tree = TreeDecomposition.from_contraction(self.contraction)
        self.labels = unpack_labels(state["labels"], io, self.tree)

    def _kernel_exports(self):
        return {"labels": self._label_store}

    @property
    def tree_height(self) -> int:
        self._require_built()
        return self.tree.height

    @property
    def treewidth(self) -> int:
        self._require_built()
        return self.tree.treewidth


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
            batch.apply(self.graph)
        self._emit_stage(report, StageTiming("edge_update", timer.seconds))

        with Timer() as timer:
            changed_shortcuts = update_shortcuts_bottom_up(
                self.contraction, self.graph, [update.key() for update in batch]
            )
        self._emit_stage(report, StageTiming("shortcut_update", timer.seconds))

        with Timer() as timer:
            changed_labels = labels.update_top_down(changed_shortcuts.keys())
        self._emit_stage(report, StageTiming("label_update", timer.seconds))

        self.last_changed_shortcuts = changed_shortcuts
        self.last_changed_labels = changed_labels
        return report


@register_spec
@dataclass(frozen=True)
class DH2HSpec(IndexSpec):
    """Construction spec for the dynamic H2H baseline (no knobs)."""

    method = "DH2H"

    def create(self, graph: Graph) -> DH2HIndex:
        return DH2HIndex(graph)
