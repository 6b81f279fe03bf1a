"""Unit tests for the tree decomposition substrate (MDE, the row-space tree
and its LCA entries, flat contractions)."""

import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import dijkstra_distance
from repro.exceptions import GraphError
from repro.graph.generators import grid_road_network, random_connected_graph
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch, generate_update_batch
from repro.kernels.label_store import SHIFT, layout_arrays
from repro.kernels.native import native_kernel
from repro.labeling.h2h import H2HLabels
from repro.partitioning.td_partition import TDPartitioning, td_partition
from repro.registry import create_index, get_spec
from repro.store import load_index, save_index
from repro.treedec import slots as slots_module
from repro.treedec.mde import eliminate
from repro.treedec.slots import SlotContraction, _eliminate_slots_pure, eliminate_slots
from repro.treedec.tree import TreeDecomposition

from tests.conftest import (
    NEEDS_NATIVE,
    check_build_equals_reference,
    float_bits,
    maintenance_structures,
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

    @pytest.mark.parametrize("rung", ("native", "pure"))
    def test_vertex_outside_the_graph_in_order_rejected(self, rung, pure_maintenance):
        """An order of the right length naming a stranger says so, on both
        rungs, instead of calling a vertex repeated."""
        if rung == "pure":
            pure_maintenance()
        graph = grid_road_network(3, 3, seed=0)
        order = sorted(graph.vertices())
        order[4] = 999
        for build in (eliminate, SlotContraction.build, eliminate_slots):
            with pytest.raises(GraphError, match="vertex 999 is not in the graph"):
                build(graph, order=order)

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


def reference_tree(contraction):
    """The dict tree the row-space tree replaced, kept as its oracle: each
    vertex's parent is its minimum-rank neighbour, children and roots in
    ascending rank, and the Euler tour an explicit depth-first walk."""
    rank, neighbors = contraction.rank, contraction.neighbors
    parent, children, roots = {}, {v: [] for v in contraction.order}, []
    for v in contraction.order:
        if neighbors[v]:
            parent[v] = min(neighbors[v], key=rank.__getitem__)
            children[parent[v]].append(v)
        else:
            parent[v] = None
            roots.append(v)
    depth, comp, tour, first = {}, {}, [], {}
    for c, root in enumerate(roots):
        depth[root], comp[root], first[root] = 0, c, len(tour)
        tour.append(root)
        stack = [(root, iter(children[root]))]
        while stack:
            v, pending = stack[-1]
            child = next(pending, None)
            if child is None:
                stack.pop()
                if stack:
                    tour.append(stack[-1][0])
                continue
            depth[child], comp[child], first[child] = depth[v] + 1, c, len(tour)
            tour.append(child)
            stack.append((child, iter(children[child])))
    return {"parent": parent, "children": children, "roots": roots, "depth": depth,
            "comp": comp, "tour": tour, "first": first}


def reference_chain(ref, v):
    """``X(v).A`` of the reference tree, root first."""
    chain = [v]
    while ref["parent"][chain[-1]] is not None:
        chain.append(ref["parent"][chain[-1]])
    return chain[::-1]


def reference_layout(contraction, ref):
    """The label arena's topology entries, from the reference tree with
    Python lists: the sparse table keeps the left entry on a depth tie."""
    verts = sorted(contraction.order)
    row = {v: r for r, v in enumerate(verts)}
    depth, tour = ref["depth"], ref["tour"]
    logs = [0] * (len(tour) + 1)
    for i in range(2, len(tour) + 1):
        logs[i] = logs[i // 2] + 1
    levels, span = [list(range(len(tour)))], 1
    while 2 * span <= len(tour):
        below = levels[-1]
        levels.append([
            a if depth[tour[a]] <= depth[tour[b]] else b
            for a, b in zip(below, below[span:])
        ])
        span *= 2
    pos = [[depth[x] for x in contraction.neighbors[v]] + [depth[v]] for v in verts]
    return {
        "verts": verts,
        "comp": [ref["comp"][v] for v in verts],
        "first": [ref["first"][v] for v in verts],
        "logs": logs,
        "tbl_flat": [depth[tour[e]] << SHIFT | row[tour[e]] for level in levels for e in level],
        "tbl_off": list(np.cumsum([0] + [len(level) for level in levels])),
        "pos_indptr": list(np.cumsum([0] + [len(p) for p in pos])),
        "pos_data": [c for p in pos for c in p],
        "dis_indptr": list(np.cumsum([0] + [depth[v] + 1 for v in verts])),
    }


def reference_td_partition(ref, contraction, bandwidth, expected, beta_lower=0.1, beta_upper=2.0):
    """Algorithm 2 over the reference tree: candidates by size and boundary
    width in descending rank, kept while their subtrees are disjoint."""
    sizes = {v: 1 for v in contraction.order}
    for v in contraction.order:  # ascending rank: children first
        if ref["parent"][v] is not None:
            sizes[ref["parent"][v]] += sizes[v]
    ideal = len(contraction.order) / expected
    candidates = [
        v for v in reversed(contraction.order)
        if beta_lower * ideal <= sizes[v] <= beta_upper * ideal
        and 1 <= len(contraction.neighbors[v]) <= bandwidth
    ]
    roots = []
    for v in candidates:
        if len(roots) >= expected:
            break
        if all(u not in reference_chain(ref, v) and v not in reference_chain(ref, u) for u in roots):
            roots.append(v)
    return roots


def reference_subtree(ref, v):
    """``v``'s subtree in preorder, children in ascending rank."""
    out, stack = [], [v]
    while stack:
        x = stack.pop()
        out.append(x)
        stack.extend(reversed(ref["children"][x]))
    return out


def check_tree_against_reference(contraction, tree, rng, pairs=60):
    """Every layout array, ``lca``, ``is_ancestor``, ``chain``, ``subtree``,
    ``branch_groups`` and ``TDPartitioning.from_roots`` of ``tree`` equal the
    reference tree's."""
    ref = reference_tree(contraction)
    layout = layout_arrays(tree)
    for name, expected in reference_layout(contraction, ref).items():
        assert layout[name].dtype == np.int64, name
        assert layout[name].tolist() == [int(x) for x in expected], name
    verts = sorted(contraction.order)
    assert tree.keys == verts
    assert tree.roots == ref["roots"]
    assert tree.parent.tolist() == [
        -1 if ref["parent"][v] is None else tree.row[ref["parent"][v]] for v in verts
    ]
    for _ in range(pairs):
        u, v = rng.choice(verts), rng.choice(verts)
        chain_u, chain_v = reference_chain(ref, u), reference_chain(ref, v)
        assert tree.chain(u) == chain_u
        assert tree.is_ancestor(u, v) == (u in chain_v)
        assert tree.same_component(u, v) == (ref["comp"][u] == ref["comp"][v])
        if ref["comp"][u] == ref["comp"][v]:
            assert tree.lca(u, v) == [a for a, b in zip(chain_u, chain_v) if a == b][-1]
        else:
            with pytest.raises(GraphError):
                tree.lca(u, v)
        assert tree.subtree(u) == reference_subtree(ref, u)
    preorder = sorted(verts, key=ref["first"].__getitem__)
    chosen = set(rng.sample(verts, min(len(verts), rng.randrange(1, 12))))
    roots = [v for v in preorder if v in chosen
             and not any(a in chosen for a in reference_chain(ref, v)[:-1])]
    expected_groups = {
        root: [v for v in preorder if v in chosen and root in reference_chain(ref, v)]
        for root in roots
    }
    assert list(tree.branch_groups(chosen).items()) == list(expected_groups.items())
    picked = [v for v in roots if contraction.neighbors[v]]
    td = TDPartitioning.from_roots(tree, picked)
    assert td.partition_vertices == [sorted(reference_subtree(ref, v)) for v in picked]
    assert td.boundary == [sorted(contraction.neighbors[v]) for v in picked]
    members = {x for v in picked for x in reference_subtree(ref, v)}
    assert td.overlay_vertices == set(verts) - members
    return ref


def _scattered_graph(n, extra, pieces, isolated, seed):
    """A random connected graph plus ``pieces`` more components and
    ``isolated`` lone vertices, with scattered, unsorted ids."""
    rng = random.Random(seed)
    graph = random_connected_graph(n, extra, seed=seed)
    offset = n
    for piece in range(pieces):
        size = rng.randrange(1, 8)
        for u, v, w in random_connected_graph(size, rng.randrange(6), seed=seed + piece).edges():
            graph.add_edge(u + offset, v + offset, w)
        graph.add_vertex(offset)
        offset += size
    for k in range(isolated):
        graph.add_vertex(offset + k)
    return _relabelled(graph, seed)


class TestTreeDecomposition:
    """The row-space tree against the dict reference, and the loaded tree
    (depths and LCA entries read from a saved label arena) against the
    derived one."""

    @given(
        st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
        st.booleans(), st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_graphs(self, n, extra, pieces, isolated, tiered, seed):
        """Connected and disconnected graphs, isolated vertices, scattered
        ids, with and without tiers."""
        rng = random.Random(seed)
        graph = _scattered_graph(n, extra, pieces, isolated, seed)
        tiers = {v: rng.randrange(3) for v in graph.vertices()} if tiered else None
        contraction = SlotContraction.build(graph, tiers=tiers)
        tree = TreeDecomposition.from_contraction(contraction, allow_forest=True)
        check_tree_against_reference(contraction, tree, rng)
        roots = td_partition(tree, bandwidth=6, expected_partitions=3)
        ref = reference_tree(contraction)
        assert roots.roots == reference_td_partition(ref, contraction, 6, 3)

    @pytest.mark.parametrize("method, params", [
        ("DH2H", {}), ("MHL", {}),
        ("P-TD-P", {"num_partitions": 4, "seed": 0}),
        ("N-CH-P", {"num_partitions": 4, "seed": 0}),
        ("PMHL", {"num_partitions": 4, "seed": 0}),
        ("PostMHL", {"bandwidth": 8, "expected_partitions": 3}),
    ])
    def test_every_tree_of_every_method(self, method, params, tmp_path):
        """Every tree a build derives, and every tree a load reads from the
        saved labels, equals the reference on a 12² grid; PostMHL's
        TD-partitioning too."""
        index = create_index(get_spec(method, **params), grid_road_network(12, 12, seed=5))
        index.build()
        save_index(index, str(tmp_path / "snap"))
        loaded = load_index(str(tmp_path / "snap"))
        rng = random.Random(1)
        trees = 0
        for source in (index, loaded):
            for path, labels in maintenance_structures(source):
                if isinstance(labels, H2HLabels):
                    check_tree_against_reference(labels.tree.contraction, labels.tree, rng, 20)
                    trees += 1
            if method in ("N-CH-P", "P-TD-P", "PMHL"):
                overlay = source.overlay.tree
                check_tree_against_reference(overlay.contraction, overlay, rng, 20)
        assert trees >= {"N-CH-P": 0, "P-TD-P": 10, "PMHL": 20}.get(method, 2)
        if method == "PostMHL":
            ref = reference_tree(index.contraction)
            assert index.td.roots == reference_td_partition(ref, index.contraction, 8, 3)

    def test_disconnected_graph_rejected(self):
        graph = Graph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(2, 3, 1.0)
        with pytest.raises(GraphError):
            TreeDecomposition.from_contraction(SlotContraction.build(graph))

    def test_tree_structure_invariants(self):
        graph = grid_road_network(6, 6, seed=5)
        result = SlotContraction.build(graph)
        tree = TreeDecomposition.from_contraction(result)

        assert tree.root == result.order[-1] and tree.roots == [tree.root]
        assert tree.parent[tree.row[tree.root]] == -1
        for v in result.order:
            if v == tree.root:
                continue
            parent = tree.keys[tree.parent[tree.row[v]]]
            assert result.rank[parent] > result.rank[v]
            assert parent == min(result.neighbors[v], key=lambda u: result.rank[u])
            assert tree.depth[tree.row[v]] == tree.depth[tree.row[parent]] + 1
            chain = tree.chain(v)  # a parent walk
            assert chain[-1] == v and chain[0] == tree.root and chain[-2] == parent

    def test_neighbors_are_proper_ancestors(self):
        """X(v).N must lie on the root-to-v path (the separator property)."""
        graph = grid_road_network(6, 6, seed=6)
        tree = TreeDecomposition.from_contraction(SlotContraction.build(graph))
        for v in tree.keys:
            chain = tree.chain(v)
            assert len(chain) == tree.depth[tree.row[v]] + 1
            for u in tree.neighbors(v):
                assert u in chain[:-1]

    def test_orders_are_consistent(self):
        """The subtree walk is a preorder (every parent before its
        children), and the children CSR names each row's children."""
        graph = grid_road_network(5, 5, seed=7)
        tree = TreeDecomposition.from_contraction(SlotContraction.build(graph))
        seen = set()
        for v in tree.subtree(tree.root):
            r = tree.parent[tree.row[v]]
            if r >= 0:
                assert tree.keys[r] in seen
            seen.add(v)
        assert seen == set(tree.keys)
        for r in range(tree.num_vertices):
            children = tree.child_rows[tree.child_indptr[r] : tree.child_indptr[r + 1]]
            assert (tree.parent[children] == r).all()
            assert list(children) == sorted(children)
        assert tree.child_indptr[-1] == tree.num_vertices - 1

    def test_subtree_and_sizes(self):
        graph = grid_road_network(5, 5, seed=8)
        tree = TreeDecomposition.from_contraction(SlotContraction.build(graph))
        assert tree.intervals[1][tree.row[tree.root]] == graph.num_vertices
        for v in tree.keys:
            members = tree.subtree(v)
            assert tree.intervals[1][tree.row[v]] == len(members) == len(set(members))
            assert all(v in tree.chain(x) for x in members)

    def test_lca_matches_naive(self):
        graph = grid_road_network(6, 6, seed=9)
        tree = TreeDecomposition.from_contraction(SlotContraction.build(graph))

        def naive_lca(u, v):
            ancestors_u = tree.chain(u)  # parent walks
            ancestors_v = set(tree.chain(v))
            for x in reversed(ancestors_u):
                if x in ancestors_v:
                    return x
            raise AssertionError("no common ancestor")

        rng = random.Random(0)
        vertices = sorted(graph.vertices())
        for _ in range(100):
            u, v = rng.choice(vertices), rng.choice(vertices)
            assert tree.lca(u, v) == naive_lca(u, v)

    def test_branch_roots(self):
        graph = grid_road_network(6, 6, seed=10)
        tree = TreeDecomposition.from_contraction(SlotContraction.build(graph))
        leaves = [v for v in tree.keys if tree.intervals[1][tree.row[v]] == 1]
        chosen = leaves[:3] + [tree.root]
        groups = tree.branch_groups(chosen)
        assert list(groups) == [tree.root]
        assert sorted(groups[tree.root]) == sorted(chosen)
        assert tree.branch_groups(leaves[:3]) == {leaf: [leaf] for leaf in sorted(
            leaves[:3], key=lambda v: tree.intervals[0][tree.row[v]])}

    def test_is_ancestor(self):
        graph = grid_road_network(4, 4, seed=11)
        tree = TreeDecomposition.from_contraction(SlotContraction.build(graph))
        for v in tree.keys:
            chain = tree.chain(v)  # a parent walk
            for ancestor in chain:
                assert tree.is_ancestor(ancestor, v)
            for other in tree.keys:
                assert tree.is_ancestor(other, v) == (other in chain)
            assert tree.is_ancestor(v, v)


def _topology_bits(topology):
    """The six outputs of ``eliminate_slots`` as comparable bytes, dtypes
    included."""
    return [(array.dtype.str, array.tobytes()) for array in topology]


def _relabelled(graph: Graph, seed: int) -> Graph:
    """``graph`` with scattered, unsorted vertex ids, inserted in a shuffled
    order (so the C entry's id sort and the CSR's row order both matter)."""
    rng = random.Random(seed)
    vertices = sorted(graph.vertices())
    rng.shuffle(vertices)
    name = {v: 7919 * v + rng.randrange(7919) for v in vertices}
    relabelled = Graph()
    for v in vertices:
        relabelled.add_vertex(name[v])
    edges = list(graph.edges())
    rng.shuffle(edges)
    for u, v, w in edges:
        relabelled.add_edge(name[u], name[v], w)
    return relabelled


def _set(index, position, value):
    def corrupt(args):
        args[index][position] = value
    return corrupt


def _replace(index, values):
    def corrupt(args):
        args[index] = np.array(values(args), dtype=np.int64)
    return corrupt


def _asymmetric(args):
    """Row 0's first neighbour becomes a row that does not list row 0."""
    indptr, positions = args[1], args[2]
    listed = set(positions[indptr[0] : indptr[1]].tolist())
    positions[0] = next(r for r in range(1, len(args[0])) if r not in listed)


def _repeated_neighbour(args):
    indptr, positions = args[1], args[2]
    positions[indptr[0] + 1] = positions[indptr[0]]


def _no_vertices(args):
    args[0], args[6] = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    args[1] = np.zeros(1, dtype=np.int64)


#: Corruptions of ``eliminate``'s arguments (ids, indptr, positions,
#: weights, tiers, order, out_order, sizes), each a ``ValueError``.
MALFORMED = {
    "non-monotone offsets": _set(1, 2, 10**6),
    "neighbour out of range": _set(2, 0, 9),
    "negative neighbour": _set(2, 0, -1),
    "self neighbour": _set(2, 0, 0),
    "asymmetric adjacency": _asymmetric,
    "repeated neighbour": _repeated_neighbour,
    "repeated id": lambda args: args[0].__setitem__(1, args[0][0]),
    "tiers of the wrong length": _replace(4, lambda args: [0] * (len(args[0]) - 1)),
    "duplicate order id": _replace(5, lambda args: [args[0][0], *args[0][:-1]]),
    "missing order id": _replace(5, lambda args: args[0][:-1]),
    "foreign order id": _replace(5, lambda args: [*args[0][:-1], 999]),
    "short out_order": _replace(6, lambda args: args[0][:-1]),
    "no vertices": _no_vertices,
}


@NEEDS_NATIVE
class TestEliminationEntry:
    """The C ``eliminate`` / ``eliminate_slots`` entries against the pure
    rung (``eliminate`` + ``supporter_slots``): all six outputs, and the
    built weights, bit for bit; and their input checks."""

    @staticmethod
    def check_rungs_agree(graph, **options):
        native = eliminate_slots(graph, **options)
        pure = _eliminate_slots_pure(graph, options.get("order"), options.get("tiers"))
        assert _topology_bits(native) == _topology_bits(pure)
        return native

    @pytest.mark.parametrize("case", sorted(BUILD_CASES))
    def test_build_cases(self, case, pure_maintenance):
        make_graph, options = BUILD_CASES[case]
        graph = make_graph()
        self.check_rungs_agree(graph, **options(graph))
        built = SlotContraction.build(graph, **options(graph))
        pure_maintenance()
        pure = SlotContraction.build(graph, **options(graph))
        assert bytes(built.arena.buffer) == bytes(pure.arena.buffer)
        assert _topology_bits([built.base, built.sup_indptr, built.sup_slots]) == _topology_bits(
            [pure.base, pure.sup_indptr, pure.sup_slots]
        )

    @given(
        st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
        st.sampled_from(("heuristic", "tiers", "order")), st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_graphs(self, n, extra, pieces, isolated, mode, seed):
        """Connected and disconnected random graphs (``pieces`` more
        components, ``isolated`` lone vertices) with scattered ids, under the
        heuristic, random tiers or a random explicit order."""
        rng = random.Random(seed)
        graph = _scattered_graph(n, extra, pieces, isolated, seed)
        vertices = sorted(graph.vertices())
        options = {}
        if mode == "tiers":
            options["tiers"] = {v: rng.randrange(3) for v in vertices if rng.random() < 0.7}
        elif mode == "order":
            rng.shuffle(vertices)
            options["order"] = vertices
        ids = self.check_rungs_agree(graph, **options)[0]
        assert eliminate(graph, **options)[0] == ids.tolist()

    @pytest.mark.parametrize("method, params", [
        ("DCH", {}), ("DH2H", {}), ("MHL", {}), ("TOAIN", {"checkin_fraction": 0.25}),
        ("N-CH-P", {"num_partitions": 4, "seed": 0}),
        ("P-TD-P", {"num_partitions": 4, "seed": 0}),
        ("PMHL", {"num_partitions": 4, "seed": 0}),
        ("PostMHL", {"bandwidth": 8, "expected_partitions": 3}),
    ])
    def test_every_contraction_of_every_method(self, method, params, monkeypatch):
        """Each elimination a build runs (partitions, overlay, extended
        partitions, the boundary-first order, PostMHL's and TOAIN's) equals
        the pure rung's."""
        import repro.partitioning.ordering as ordering_module

        seen = []
        order_only = ordering_module.elimination_order

        def checked(graph, order=None, tiers=None):
            seen.append("topology")
            return self.check_rungs_agree(graph, order=order, tiers=tiers)

        def checked_order(graph, tiers=None):
            seen.append("order")
            ids = order_only(graph, tiers=tiers)
            assert ids == eliminate(graph, tiers=tiers)[0]
            return ids

        monkeypatch.setattr(slots_module, "eliminate_slots", checked)
        monkeypatch.setattr(ordering_module, "elimination_order", checked_order)
        create_index(get_spec(method, **params), grid_road_network(12, 12, seed=5)).build()
        assert "topology" in seen
        if method in ("N-CH-P", "P-TD-P", "PMHL"):
            assert "order" in seen and seen.count("topology") > 4

    @staticmethod
    def csr_arguments(graph):
        """``eliminate``'s arguments for ``graph`` (no tiers, no order), as
        mutable arrays; the outputs hold -7."""
        ids, indptr, positions, weights = graph.to_csr()
        return [
            np.array(ids, dtype=np.int64), np.array(indptr, dtype=np.int64),
            np.array(positions, dtype=np.int64), np.array(weights, dtype=np.float64),
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.full(len(ids), -7, dtype=np.int64), np.full(2, -7, dtype=np.int64),
        ]

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_inputs_raise_before_any_write(self, case):
        args = self.csr_arguments(grid_road_network(3, 3, seed=0))
        MALFORMED[case](args)
        before = [array.copy() for array in args]
        with pytest.raises(ValueError):
            native_kernel().eliminate(*args)
        for array, kept in zip(args, before):
            assert np.array_equal(array, kept)

    def test_wrong_dtypes_and_arity_are_type_errors(self):
        kernel = native_kernel()
        graph = grid_road_network(3, 3, seed=0)
        args = self.csr_arguments(graph)
        args[3] = args[3].astype(np.float32)
        with pytest.raises(TypeError):
            kernel.eliminate(*args)
        with pytest.raises(TypeError):
            kernel.eliminate(*args[:7])

    def test_slot_arrays_of_the_wrong_length_are_rejected(self):
        graph = grid_road_network(4, 4, seed=1)
        kernel = native_kernel()
        args = self.csr_arguments(graph)
        elimination = kernel.eliminate(*args)
        m, records = args[7].tolist()
        shapes = [(len(args[0]) + 1, np.int64), (m, np.int64), (m, np.float64),
                  (m + 1, np.int64), (2 * records, np.int32)]
        for wrong in range(len(shapes)):
            arrays = [np.full(size + (i == wrong), 3, dtype=dtype)
                      for i, (size, dtype) in enumerate(shapes)]
            with pytest.raises(ValueError):
                kernel.eliminate_slots(elimination, *arrays)
            assert all((array == 3).all() for array in arrays)
        with pytest.raises(ValueError):
            kernel.eliminate_slots(object(), *[np.zeros(s, d) for s, d in shapes])
        arrays = [np.empty(size, dtype=dtype) for size, dtype in shapes]
        kernel.eliminate_slots(elimination, *arrays)
        assert _topology_bits([args[6], *arrays]) == _topology_bits(eliminate_slots(graph))
