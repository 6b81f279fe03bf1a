"""Unit tests for the tree decomposition substrate (MDE, tree, LCA)."""

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.exceptions import GraphError
from repro.graph.generators import grid_road_network
from repro.graph.graph import Graph
from repro.graph.updates import generate_update_batch
from repro.treedec.mde import contract_graph, mde_order, update_shortcuts_bottom_up
from repro.treedec.tree import TreeDecomposition

from tests.conftest import float_bits, paper_example_graph


class TestContraction:
    def test_order_covers_all_vertices(self):
        graph = paper_example_graph()
        result = contract_graph(graph)
        assert sorted(result.order) == sorted(graph.vertices())
        assert all(result.rank[result.order[i]] == i for i in range(len(result.order)))

    def test_neighbors_have_higher_rank(self):
        graph = grid_road_network(6, 6, seed=0)
        result = contract_graph(graph)
        for v in result.order:
            for u in result.neighbors[v]:
                assert result.rank[u] > result.rank[v]

    def test_explicit_order_respected(self):
        graph = paper_example_graph()
        order = sorted(graph.vertices())
        result = contract_graph(graph, order=order)
        assert result.order == order

    def test_explicit_order_must_cover_all(self):
        graph = paper_example_graph()
        with pytest.raises(GraphError):
            contract_graph(graph, order=[0, 1, 2])

    def test_tiered_order_puts_low_tier_first(self):
        graph = grid_road_network(5, 5, seed=1)
        boundary = {0, 4, 20, 24}
        tiers = {v: (1 if v in boundary else 0) for v in graph.vertices()}
        result = contract_graph(graph, tiers=tiers)
        boundary_ranks = [result.rank[v] for v in boundary]
        non_boundary_ranks = [result.rank[v] for v in graph.vertices() if v not in boundary]
        assert min(boundary_ranks) > max(non_boundary_ranks)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            contract_graph(Graph())

    def test_mde_order_is_permutation(self):
        graph = grid_road_network(4, 4, seed=0)
        order = mde_order(graph)
        assert sorted(order) == sorted(graph.vertices())

    def test_shortcut_preserves_distances_between_high_rank_vertices(self):
        """Contracting low vertices must preserve distances among the rest.

        The invariant checked: for every vertex v and higher neighbour u,
        sc(v, u) is the shortest distance between v and u in the subgraph
        induced by v, u and all vertices of rank lower than v... which for the
        top-most vertices means sc equals the true graph distance.
        """
        graph = paper_example_graph()
        result = contract_graph(graph)
        top = result.order[-1]
        second = result.order[-2]
        if top in result.shortcuts[second]:
            assert result.shortcuts[second][top] == pytest.approx(
                dijkstra_distance(graph, second, top)
            )

    def test_supporters_have_lower_rank(self):
        graph = grid_road_network(5, 5, seed=3)
        result = contract_graph(graph)
        for (u, w), supporters in result.supporters.items():
            for x in supporters:
                assert result.rank[x] < result.rank[u]
                assert result.rank[x] < result.rank[w]


class TestShortcutMaintenance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_matches_rebuild(self, seed):
        """After a batch update, maintained shortcuts equal rebuilt shortcuts."""
        graph = grid_road_network(6, 6, seed=seed)
        result = contract_graph(graph)
        order = list(result.order)

        batch = generate_update_batch(graph, volume=10, seed=seed)
        batch.apply(graph)
        update_shortcuts_bottom_up(result, graph, [u.key() for u in batch])

        rebuilt = contract_graph(graph, order=order)
        for v in order:
            for u in result.neighbors[v]:
                assert result.shortcuts[v][u] == pytest.approx(rebuilt.shortcuts[v][u])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_native_and_pure_rungs_agree_bit_for_bit(self, seed, pure_maintenance):
        """Mixed increase / decrease batches through ``shortcut_row`` and through
        the pure ``recompute_shortcut`` loop: same shortcut bits, same report."""

        def maintain():
            graph = grid_road_network(9, 9, seed=seed)
            result = contract_graph(graph)
            reports = []
            for step in range(3):
                batch = generate_update_batch(graph, volume=12, seed=10 * seed + step)
                batch.apply(graph)
                reports.append(
                    update_shortcuts_bottom_up(result, graph, [u.key() for u in batch])
                )
            rows = {
                v: float_bits(result.shortcuts[v][u] for u in result.neighbors[v])
                for v in result.order
            }
            return rows, reports

        native = maintain()
        pure_maintenance()
        assert maintain() == native
        assert any(native[1])

    def test_update_with_no_changes_reports_nothing(self):
        graph = grid_road_network(4, 4, seed=0)
        result = contract_graph(graph)
        report = update_shortcuts_bottom_up(result, graph, [])
        assert report == {}

    def test_decrease_only_and_increase_only(self):
        for fraction in (0.0, 1.0):
            graph = grid_road_network(5, 5, seed=4)
            result = contract_graph(graph)
            order = list(result.order)
            batch = generate_update_batch(graph, volume=8, seed=4, decrease_fraction=fraction)
            batch.apply(graph)
            update_shortcuts_bottom_up(result, graph, [u.key() for u in batch])
            rebuilt = contract_graph(graph, order=order)
            for v in order:
                for u in result.neighbors[v]:
                    assert result.shortcuts[v][u] == pytest.approx(rebuilt.shortcuts[v][u])


class TestTreeDecomposition:
    def test_tree_structure_invariants(self):
        graph = grid_road_network(6, 6, seed=5)
        result = contract_graph(graph)
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
        tree = TreeDecomposition.from_contraction(contract_graph(graph))
        for v in tree.top_down_order():
            ancestor_set = set(tree.ancestors[v][:-1])
            for u in tree.neighbors(v):
                assert u in ancestor_set

    def test_orders_are_consistent(self):
        graph = grid_road_network(5, 5, seed=7)
        tree = TreeDecomposition.from_contraction(contract_graph(graph))
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
        tree = TreeDecomposition.from_contraction(contract_graph(graph))
        sizes = tree.subtree_sizes()
        assert sizes[tree.root] == graph.num_vertices
        for v in tree.top_down_order():
            assert sizes[v] == len(list(tree.subtree(v)))

    def test_lca_matches_naive(self):
        graph = grid_road_network(6, 6, seed=9)
        tree = TreeDecomposition.from_contraction(contract_graph(graph))

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
        tree = TreeDecomposition.from_contraction(contract_graph(graph))
        leaves = [v for v in tree.top_down_order() if not tree.children[v]]
        chosen = leaves[:3] + [tree.root]
        roots = tree.branch_roots(chosen)
        assert roots == [tree.root]

    def test_disconnected_graph_rejected(self):
        graph = Graph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(2, 3, 1.0)
        with pytest.raises(GraphError):
            TreeDecomposition.from_contraction(contract_graph(graph))

    def test_is_ancestor(self):
        graph = grid_road_network(4, 4, seed=11)
        tree = TreeDecomposition.from_contraction(contract_graph(graph))
        for v in tree.top_down_order():
            for ancestor in tree.ancestors[v]:
                assert tree.is_ancestor(ancestor, v)
            assert tree.is_ancestor(v, v)
