"""Unit tests for the tree decomposition substrate (MDE, tree, LCA)."""

import re

import numpy as np
import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.exceptions import GraphError
from repro.graph.generators import grid_road_network
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch, generate_update_batch
from repro.treedec.mde import eliminate
from repro.treedec.slots import SlotContraction
from repro.treedec.tree import TreeDecomposition

from tests.conftest import (
    check_build_equals_reference,
    float_bits,
    paper_example_graph,
    reference_weights,
)


class TestContraction:
    def test_order_covers_all_vertices(self):
        graph = paper_example_graph()
        result = SlotContraction.build(graph)
        assert sorted(result.order) == sorted(graph.vertices())
        assert all(result.rank[result.order[i]] == i for i in range(len(result.order)))

    def test_neighbors_have_higher_rank(self):
        graph = grid_road_network(6, 6, seed=0)
        result = SlotContraction.build(graph)
        for v in result.order:
            for u in result.neighbors[v]:
                assert result.rank[u] > result.rank[v]

    def test_explicit_order_respected(self):
        graph = paper_example_graph()
        order = sorted(graph.vertices())
        assert eliminate(graph, order=order)[0] == order
        assert SlotContraction.build(graph, order=order).order == order

    def test_explicit_order_must_cover_all(self):
        graph = paper_example_graph()
        with pytest.raises(GraphError):
            eliminate(graph, order=[0, 1, 2])

    def test_repeated_vertex_in_order_rejected(self):
        graph = paper_example_graph()
        vertices = sorted(graph.vertices())
        # As many distinct ids as vertices, but the first one twice.
        order = [vertices[0], *vertices[:-1], 99]
        with pytest.raises(GraphError, match="twice"):
            eliminate(graph, order=order)

    def test_tiered_order_puts_low_tier_first(self):
        graph = grid_road_network(5, 5, seed=1)
        boundary = {0, 4, 20, 24}
        tiers = {v: (1 if v in boundary else 0) for v in graph.vertices()}
        result = SlotContraction.build(graph, tiers=tiers)
        boundary_ranks = [result.rank[v] for v in boundary]
        non_boundary_ranks = [result.rank[v] for v in graph.vertices() if v not in boundary]
        assert min(boundary_ranks) > max(non_boundary_ranks)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            eliminate(Graph())
        with pytest.raises(GraphError):
            SlotContraction.build(Graph())

    def test_eliminate_order_is_permutation(self):
        graph = grid_road_network(4, 4, seed=0)
        order, rows = eliminate(graph)
        assert sorted(order) == sorted(graph.vertices())
        assert len(rows) == len(order)

    def test_eliminate_tiers_go_lowest_first(self):
        graph = grid_road_network(6, 6, seed=0)
        tiers = {v: v % 3 for v in graph.vertices()}
        order = eliminate(graph, tiers=tiers)[0]
        assert sorted(order) == sorted(graph.vertices())
        assert [tiers[v] for v in order] == sorted(tiers.values())

    def test_shortcut_preserves_distances_between_high_rank_vertices(self):
        """Contracting low vertices must preserve distances among the rest.

        The invariant checked: for every vertex v and higher neighbour u,
        sc(v, u) is the shortest distance between v and u in the subgraph
        induced by v, u and all vertices of rank lower than v... which for the
        top-most vertices means sc equals the true graph distance.
        """
        graph = paper_example_graph()
        result = SlotContraction.build(graph)
        top = result.order[-1]
        second = result.order[-2]
        if top in result.neighbors[second]:
            assert result.upward(second)[top] == pytest.approx(
                dijkstra_distance(graph, second, top)
            )

    def test_supporters_have_lower_rank(self):
        """Every supporter record of a slot ``(v, u)`` is a pair of slots of
        one row below ``v``'s, whose columns are ``v`` and ``u``."""
        graph = grid_road_network(5, 5, seed=3)
        result = SlotContraction.build(graph)
        indptr, indices = result.arena["indptr"], result.arena["indices"]
        targets = np.arange(result.shortcut_count())
        records = np.diff(result.sup_indptr)
        assert records.sum() > 0
        pairs = result.sup_slots.reshape(-1, 2)
        target = np.repeat(targets, records)
        low, high = result.slot_rows(pairs[:, 0]), result.slot_rows(pairs[:, 1])
        assert (low == high).all()
        assert (low < result.slot_rows(target)).all()
        assert (indices[pairs[:, 0]] == result.slot_rows(target)).all()
        assert (indices[pairs[:, 1]] == indices[target]).all()
        # Every pair of every row supports one slot.
        counts = np.diff(indptr)
        assert len(pairs) == int((counts * (counts - 1) // 2).sum())


def _disconnected_partition_subgraph() -> Graph:
    """A partition subgraph in two pieces plus an isolated vertex (a
    partition whose boundary was cut out of it)."""
    grid = grid_road_network(6, 6, seed=3)
    graph = Graph()
    for u, v, w in grid.edges():
        if u < 12 and v < 12 and not {u, v} & {3, 4}:
            graph.add_edge(u, v, w)
    graph.add_vertex(40)
    return graph


def _tiered(graph):
    return {v: int(v % 5 == 0) for v in graph.vertices()}


BUILD_CASES = {
    "plain": (lambda: grid_road_network(9, 9, seed=2), lambda g: {}),
    "tiered": (lambda: grid_road_network(9, 9, seed=2), lambda g: {"tiers": _tiered(g)}),
    "explicit": (
        lambda: grid_road_network(7, 7, seed=4),
        lambda g: {"order": sorted(g.vertices(), key=lambda v: (v * 17) % 49)},
    ),
    "disconnected": (_disconnected_partition_subgraph, lambda g: {}),
    "disconnected-explicit": (
        _disconnected_partition_subgraph,
        lambda g: {"order": sorted(g.vertices(), reverse=True)},
    ),
}


class TestBuild:
    """A build is the maintenance pass seeded with every row: it must equal
    the weighted dict elimination bit for bit, on both rungs."""

    @pytest.mark.parametrize("rung", ("native", "pure"))
    @pytest.mark.parametrize("case", sorted(BUILD_CASES))
    def test_build_equals_the_reference_elimination(self, case, rung, pure_maintenance):
        if rung == "pure":
            pure_maintenance()
        make_graph, options = BUILD_CASES[case]
        graph = make_graph()
        contraction = check_build_equals_reference(graph, **options(graph))
        assert np.isinf(contraction.base).any()


class TestShortcutMaintenance:
    """The flat pass (``SlotContraction.update``) against the weighted dict
    elimination of the updated graph under the same order: the same bits."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_matches_rebuild(self, seed):
        """After a batch update, maintained shortcuts equal rebuilt shortcuts."""
        graph = grid_road_network(6, 6, seed=seed)
        contraction = SlotContraction.build(graph)
        batch = generate_update_batch(graph, volume=10, seed=seed)
        batch.apply(graph)
        assert len(contraction.update(batch))
        weights = float_bits(contraction.arena["weights"])
        assert weights == reference_weights(graph, contraction.order)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_native_and_pure_rungs_agree_bit_for_bit(self, seed, pure_maintenance):
        """Mixed increase / decrease batches through the C ``update_slots`` and
        through its pure loop: same shortcut bits, same changed slots, same
        work counters."""

        def maintain():
            graph = grid_road_network(9, 9, seed=seed)
            contraction = SlotContraction.build(graph)
            reports = []
            for step in range(3):
                batch = generate_update_batch(graph, volume=12, seed=10 * seed + step)
                reports.append(contraction.update(batch).tolist())
            return float_bits(contraction.arena["weights"]), reports, contraction.work.tolist()

        native = maintain()
        pure_maintenance()
        assert maintain() == native
        assert any(native[1])

    def test_update_with_no_changes_reports_nothing(self):
        graph = grid_road_network(4, 4, seed=0)
        contraction = SlotContraction.build(graph)
        assert contraction.update([]).tolist() == []
        assert contraction.work.tolist() == [0, 0, 0]

    def test_decrease_only_and_increase_only(self):
        for fraction in (0.0, 1.0):
            graph = grid_road_network(5, 5, seed=4)
            contraction = SlotContraction.build(graph)
            batch = generate_update_batch(graph, volume=8, seed=4, decrease_fraction=fraction)
            batch.apply(graph)
            contraction.update(batch)
            assert float_bits(contraction.arena["weights"]) == reference_weights(
                graph, contraction.order
            )

    @pytest.mark.parametrize("rung", ("native", "pure"))
    def test_update_without_a_slot_raises_and_writes_nothing(self, rung, pure_maintenance):
        """A pair no row joins, a vertex the contraction lacks and a loop are
        each a ``GraphError`` naming the pair, raised before any weight or
        graph weight is written — also when valid updates come first."""
        if rung == "pure":
            pure_maintenance()
        graph = grid_road_network(6, 6, seed=1)
        contraction = SlotContraction.build(graph)
        u, v, w = next(iter(graph.edges()))
        far = (contraction.order[0], contraction.order[1])
        assert far[1] not in contraction.neighbors[far[0]]
        state = bytes(contraction.arena.buffer), float_bits(contraction.base)
        for bad in (far, (u, 10_000), (u, u)):
            batch = UpdateBatch([EdgeUpdate(u, v, w, 2 * w), EdgeUpdate(*bad, 1.0, 2.0)])
            with pytest.raises(GraphError, match=re.escape(f"({bad[0]}, {bad[1]})")):
                contraction.update(batch)
            assert (bytes(contraction.arena.buffer), float_bits(contraction.base)) == state
        assert contraction.work.tolist() == [0, 0, 0]


class TestTreeDecomposition:
    def test_tree_structure_invariants(self):
        graph = grid_road_network(6, 6, seed=5)
        result = SlotContraction.build(graph)
        tree = TreeDecomposition.from_contraction(result)

        assert tree.root == result.order[-1]
        assert tree.parent[tree.root] is None
        for v in result.order:
            if v == tree.root:
                continue
            parent = tree.parent[v]
            assert result.rank[parent] > result.rank[v]
            assert parent == min(result.neighbors[v], key=lambda u: result.rank[u])
            assert tree.depth[v] == tree.depth[parent] + 1
            assert tree.ancestors[v][-1] == v
            assert tree.ancestors[v][0] == tree.root

    def test_neighbors_are_proper_ancestors(self):
        """X(v).N must lie on the root-to-v path (the separator property)."""
        graph = grid_road_network(6, 6, seed=6)
        tree = TreeDecomposition.from_contraction(SlotContraction.build(graph))
        for v in tree.top_down_order():
            ancestor_set = set(tree.ancestors[v][:-1])
            for u in tree.neighbors(v):
                assert u in ancestor_set

    def test_orders_are_consistent(self):
        graph = grid_road_network(5, 5, seed=7)
        tree = TreeDecomposition.from_contraction(SlotContraction.build(graph))
        seen = set()
        for v in tree.top_down_order():
            parent = tree.parent[v]
            if parent is not None:
                assert parent in seen
            seen.add(v)
        seen = set()
        for v in tree.bottom_up_order():
            for child in tree.children[v]:
                assert child in seen
            seen.add(v)

    def test_subtree_and_sizes(self):
        graph = grid_road_network(5, 5, seed=8)
        tree = TreeDecomposition.from_contraction(SlotContraction.build(graph))
        sizes = tree.subtree_sizes()
        assert sizes[tree.root] == graph.num_vertices
        for v in tree.top_down_order():
            assert sizes[v] == len(list(tree.subtree(v)))

    def test_lca_matches_naive(self):
        graph = grid_road_network(6, 6, seed=9)
        tree = TreeDecomposition.from_contraction(SlotContraction.build(graph))

        def naive_lca(u, v):
            ancestors_u = tree.ancestors[u]
            ancestors_v = set(tree.ancestors[v])
            for x in reversed(ancestors_u):
                if x in ancestors_v:
                    return x
            raise AssertionError("no common ancestor")

        import random

        rng = random.Random(0)
        vertices = sorted(graph.vertices())
        for _ in range(100):
            u, v = rng.choice(vertices), rng.choice(vertices)
            assert tree.lca(u, v) == naive_lca(u, v)

    def test_branch_roots(self):
        graph = grid_road_network(6, 6, seed=10)
        tree = TreeDecomposition.from_contraction(SlotContraction.build(graph))
        leaves = [v for v in tree.top_down_order() if not tree.children[v]]
        chosen = leaves[:3] + [tree.root]
        roots = tree.branch_roots(chosen)
        assert roots == [tree.root]

    def test_disconnected_graph_rejected(self):
        graph = Graph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(2, 3, 1.0)
        with pytest.raises(GraphError):
            TreeDecomposition.from_contraction(SlotContraction.build(graph))

    def test_is_ancestor(self):
        graph = grid_road_network(4, 4, seed=11)
        tree = TreeDecomposition.from_contraction(SlotContraction.build(graph))
        for v in tree.top_down_order():
            for ancestor in tree.ancestors[v]:
                assert tree.is_ancestor(ancestor, v)
            assert tree.is_ancestor(v, v)
