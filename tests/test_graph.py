"""Unit tests for the graph substrate (repro.graph.graph)."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    EdgeNotFoundError,
    GraphError,
    InvalidWeightError,
    VertexNotFoundError,
)
from repro.graph.graph import Graph
from repro.partitioning.base import Partitioning
from repro.psp.overlay import build_overlay_graph
from repro.store.snapshot import graph_fingerprint

from tests.conftest import neighbors


def edges_graph(*edges, vertices=()):
    """``Graph.from_edges`` over ``(u, v, weight)`` triples."""
    us, vs, ws = zip(*edges) if edges else ((), (), ())
    return Graph.from_edges(us, vs, ws, vertices=vertices)


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph.from_edges()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert list(graph.edges()) == []

    def test_prebuilt_vertices(self):
        graph = Graph.from_edges(vertices=range(5))
        assert graph.num_vertices == 5
        assert all(graph.has_vertex(v) for v in range(5))
        assert all(graph.degree(v) == 0 for v in range(5))

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            edges_graph((-1, 0, 1.0))

    def test_add_vertex_idempotent(self):
        graph = Graph.from_edges(vertices=[3, 3])
        assert graph.num_vertices == 1

    def test_negative_vertex_id_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges(vertices=[-2])

    def test_mismatched_edge_arrays_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges([0, 1], [1], [1.0, 2.0])


class TestEdges:
    def test_add_edge_creates_vertices(self):
        graph = edges_graph((0, 1, 2.5))
        assert graph.num_vertices == 2
        assert graph.num_edges == 1
        assert graph.edge_weight(0, 1) == 2.5
        assert graph.edge_weight(1, 0) == 2.5

    def test_add_edge_keeps_minimum_weight(self):
        graph = edges_graph((0, 1, 5.0), (0, 1, 3.0))
        assert graph.edge_weight(0, 1) == 3.0
        graph = edges_graph((0, 1, 5.0), (0, 1, 3.0), (1, 0, 7.0))
        assert graph.edge_weight(0, 1) == 3.0
        assert graph.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            edges_graph((2, 2, 1.0))

    @pytest.mark.parametrize("weight", [0, -1.0, math.inf, math.nan, "bad"])
    def test_invalid_weights_rejected(self, weight):
        with pytest.raises(InvalidWeightError):
            edges_graph((0, 1, weight))

    def test_first_refusal_in_input_order_is_reported(self):
        with pytest.raises(InvalidWeightError, match="-3"):
            edges_graph((0, 1, 1.0), (1, 2, -3.0), (2, 2, 1.0))
        with pytest.raises(GraphError, match="self-loops"):
            edges_graph((0, 1, 1.0), (2, 2, 1.0), (1, 2, -3.0))

    def test_set_edge_weight(self):
        graph = edges_graph((0, 1, 4.0))
        graph.set_edge_weight(0, 1, 9.0)
        assert graph.edge_weight(0, 1) == 9.0
        assert graph.edge_weight(1, 0) == 9.0

    def test_set_edge_weight_missing_edge(self):
        graph = Graph.from_edges(vertices=range(2))
        with pytest.raises(EdgeNotFoundError):
            graph.set_edge_weight(0, 1, 1.0)

    def test_edge_weight_or_default(self):
        graph = Graph.from_edges(vertices=range(2))
        assert graph.weights_of([0], [1]).tolist() == [math.inf]
        assert graph.weights_of([0], [1], -1.0).tolist() == [-1.0]

    def test_remove_edge(self):
        """An edge left out of the builder's input is no edge."""
        graph = edges_graph((1, 2, 1.0), vertices=[0])
        assert not graph.has_edge(0, 1)
        assert graph.num_edges == 1
        with pytest.raises(EdgeNotFoundError):
            graph.edge_weight(0, 1)

    def test_remove_vertex_removes_incident_edges(self):
        graph = edges_graph((0, 1, 1.0), (1, 2, 1.0)).subgraph([0, 2])
        assert not graph.has_vertex(1)
        assert graph.num_edges == 0

    def test_edges_iteration_unique(self):
        graph = edges_graph((0, 1, 1.0), (1, 2, 2.0))
        edges = sorted(graph.edges())
        assert edges == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_degree_and_neighbors(self):
        graph = edges_graph((0, 1, 1.0), (0, 2, 2.0))
        assert graph.degree(0) == 2
        assert neighbors(graph, 0) == {1: 1.0, 2: 2.0}
        with pytest.raises(VertexNotFoundError):
            graph.degree(99)

    def test_rows_keep_first_insertion_order(self):
        graph = edges_graph((5, 9, 1.0), (5, 2, 2.0), (9, 5, 0.5), (7, 5, 3.0))
        assert list(neighbors(graph, 5).items()) == [(9, 0.5), (2, 2.0), (7, 3.0)]
        assert graph.ids.tolist() == [2, 5, 7, 9]


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        graph = edges_graph((0, 1, 1.0))
        clone = graph.copy()
        clone.set_edge_weight(0, 1, 9.0)
        assert graph.edge_weight(0, 1) == 1.0
        assert clone.edge_weight(0, 1) == 9.0

    def test_subgraph_keeps_internal_edges_only(self):
        graph = edges_graph((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
        sub = graph.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        assert not sub.has_vertex(3)

    def test_subgraph_unknown_vertex(self):
        graph = Graph.from_edges(vertices=range(2))
        with pytest.raises(VertexNotFoundError):
            graph.subgraph([0, 5])

    def test_read_only_weights_are_copied_on_first_write(self):
        graph = edges_graph((0, 1, 1.0), (1, 2, 2.0))
        frozen = graph.weights
        frozen.flags.writeable = False
        graph.set_edge_weight(1, 2, 5.0)
        assert frozen.tolist() == [1.0, 2.0]
        assert graph.edge_weight(1, 2) == 5.0


class TestConnectivity:
    def test_connected_components(self):
        graph = edges_graph((0, 1, 1.0), (2, 3, 1.0), vertices=[4])
        components = sorted(sorted(c) for c in graph.connected_components())
        assert components == [[0, 1], [2, 3], [4]]
        assert not graph.is_connected()

    def test_single_component(self):
        graph = edges_graph((0, 1, 1.0), (1, 2, 1.0))
        assert graph.is_connected()

    def test_empty_graph_is_connected(self):
        assert Graph.from_edges().is_connected()


class TestCoordinates:
    def test_coordinates_roundtrip(self):
        graph = Graph.from_edges(vertices=range(2))
        graph.set_coordinate(0, 1.5, 2.5)
        assert graph.coordinate(0) == (1.5, 2.5)
        assert graph.coordinate(1) is None
        assert not graph.has_coordinates()
        graph.set_coordinate(1, 0.0, 0.0)
        assert graph.has_coordinates()

    def test_contains_and_len(self):
        graph = Graph.from_edges(vertices=range(3))
        assert 2 in graph
        assert 5 not in graph
        assert len(graph) == 3

    def test_scattered_ids_membership(self):
        graph = edges_graph((10, 40, 1.0), vertices=[7])
        assert [v in graph for v in (7, 10, 40, 0, 8, -1, "x")] == [
            True, True, True, False, False, False, False,
        ]
        # the batch check: the first missing vertex, and its position
        with pytest.raises(VertexNotFoundError) as excinfo:
            graph.positions(np.array([(7, 10), (40, 8)]))
        assert (excinfo.value.vertex, excinfo.value.position) == (8, 3)


class TestVersionCounter:
    """Every mutation path reachable from ``graph.updates`` must bump
    ``Graph.version`` — the counter frozen ``GraphSnapshot``\\ s key their
    staleness detection to (the regression suite for out-of-band edits)."""

    def test_every_mutator_bumps(self):
        graph = edges_graph((0, 1, 2.0), (1, 2, 4.0))
        version = graph.version
        graph.set_edge_weight(0, 1, 3.0)
        assert graph.version > version
        version = graph.version
        graph.set_edge_weight(0, 1, 3.0)  # a write, even of the same value
        assert graph.version > version

    def test_noop_mutations_do_not_bump(self):
        graph = edges_graph((0, 1, 2.0))
        version = graph.version
        graph.edge_weight(0, 1)
        graph.subgraph([0])
        graph.copy()
        graph.set_coordinate(0, 1.0, 1.0)
        assert graph.version == version

    def test_batch_apply_and_revert_bump(self):
        from repro.graph.updates import EdgeUpdate, UpdateBatch

        graph = edges_graph((0, 1, 2.0), (1, 2, 4.0))
        batch = UpdateBatch([EdgeUpdate(0, 1, 2.0, 6.0), EdgeUpdate(1, 2, 4.0, 1.0)])
        version = graph.version
        batch.apply(graph)
        assert graph.version > version
        version = graph.version
        batch.revert(graph)
        assert graph.version > version

    def test_copy_preserves_version(self):
        graph = edges_graph((0, 1, 2.0))
        copied = graph.copy()
        assert copied.version == graph.version
        copied.set_edge_weight(0, 1, 9.0)
        assert copied.version > graph.version

    def test_out_of_band_edit_invalidates_frozen_snapshot(self):
        """A weight edit outside ``apply_batch`` must refreeze the CSR
        snapshot before the next query — never serve a stale distance."""
        from repro.baselines.bidijkstra_index import BiDijkstraIndex

        graph = edges_graph((0, 1, 2.0), (1, 2, 4.0))
        index = BiDijkstraIndex(graph)
        index.build()
        assert index.query(0, 2) == 6.0  # freezes the snapshot
        graph.set_edge_weight(1, 2, 10.0)  # out of band: no apply_batch
        assert index.query(0, 2) == 12.0


# ----------------------------------------------------------------------
# The array graph against a dict-of-dict reference
# ----------------------------------------------------------------------
class DictGraph:
    """The adjacency-dict graph the array ``Graph`` replaced: each row in
    insertion order, and a repeated edge keeps its place and the minimum.
    Rows are reported in ascending vertex id."""

    def __init__(self, vertices=(), edges=()):
        self.adj = {v: {} for v in vertices}
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def add_edge(self, u, v, w):
        w = min(w, self.adj.setdefault(u, {}).get(v, math.inf))
        self.adj[u][v] = self.adj.setdefault(v, {})[u] = w

    def rows(self):
        return [(v, list(self.adj[v].items())) for v in sorted(self.adj)]

    def edges(self):
        return [(u, v, w) for u, row in self.rows() for v, w in row if u < v]

    def subgraph(self, keep):
        """Induced on ``keep``: every row filtered, in its order."""
        ref = DictGraph()
        ref.adj = {v: {u: w for u, w in self.adj[v].items() if u in keep} for v in keep}
        return ref


def rows_of(graph):
    return [(v, list(neighbors(graph, v).items())) for v in graph.vertices()]


@st.composite
def random_graphs(draw):
    """Scattered ids, isolated vertices, duplicate edges (in either
    direction) and several components; returns ``(vertices, edges)``."""
    ids = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=24, unique=True))
    weights = st.one_of(st.integers(1, 9).map(float), st.floats(0.01, 50.0))
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids), weights)
    edges = [(u, v, w) for u, v, w in draw(st.lists(pairs, max_size=60)) if u != v]
    return ids, edges


GRAPH_SETTINGS = settings(max_examples=80, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


class TestArrayGraphAgainstDictReference:
    @GRAPH_SETTINGS
    @given(random_graphs(), st.randoms(use_true_random=False))
    def test_rows_weights_and_edges(self, spec, rng):
        vertices, edges = spec
        graph = edges_graph(*edges, vertices=vertices)
        ref = DictGraph(vertices, edges)
        assert rows_of(graph) == ref.rows()
        assert list(graph.edges()) == ref.edges()
        assert graph.num_edges == len(ref.edges())
        probes = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(20)]
        for u, v in probes:
            expected = ref.adj[u].get(v, math.inf)
            assert graph.has_edge(u, v) == (v in ref.adj[u])
            assert graph.weights_of([u], [v]).tolist() == [expected]
        us, vs = zip(*probes)
        assert graph.weights_of(us, vs).tolist() == [ref.adj[u].get(v, math.inf)
                                                     for u, v in probes]
        # set_edge_weight writes the one entry both directions read.
        for u, v, w in rng.sample(ref.edges(), min(3, len(ref.edges()))):
            graph.set_edge_weight(v, u, w * 3)
            ref.adj[u][v] = ref.adj[v][u] = w * 3
        assert rows_of(graph) == ref.rows()

    @GRAPH_SETTINGS
    @given(random_graphs(), st.randoms(use_true_random=False))
    def test_subgraph_and_with_edges(self, spec, rng):
        vertices, edges = spec
        graph = edges_graph(*edges, vertices=vertices)
        ref = DictGraph(vertices, edges)
        keep = rng.sample(vertices, rng.randint(1, len(vertices)))
        sub = graph.subgraph(keep)
        expected = ref.subgraph(set(keep))
        assert rows_of(sub) == expected.rows()
        # A clique over some kept vertices, appended with min-dedupe: the
        # extended partitions' boundary insert.
        clique = sorted(rng.sample(keep, min(len(keep), 5)))
        extra = [(a, b, rng.uniform(0.01, 60.0)) for i, a in enumerate(clique)
                 for b in clique[i + 1:]]
        extended = sub.with_edges(*(zip(*extra) if extra else ((), (), ())))
        for u, v, w in extra:
            expected.add_edge(u, v, w)
        assert rows_of(extended) == expected.rows()

    @GRAPH_SETTINGS
    @given(random_graphs(), st.randoms(use_true_random=False))
    def test_partitioning_and_overlay(self, spec, rng):
        vertices, edges = spec
        graph = edges_graph(*edges, vertices=vertices)
        ref = DictGraph(vertices, edges)
        k = rng.randint(1, min(4, len(vertices)))
        order = sorted(vertices)
        pids = list(range(k)) + [rng.randrange(k) for _ in range(len(order) - k)]
        rng.shuffle(pids)
        assignment = dict(zip(order, pids))
        partitioning = Partitioning(graph, assignment)
        assert partitioning.num_partitions == k
        boundary = [set() for _ in range(k)]
        inter = []
        for u, v, w in ref.edges():
            if assignment[u] != assignment[v]:
                boundary[assignment[u]].add(u)
                boundary[assignment[v]].add(v)
                inter.append((u, v, w))
        for pid in range(k):
            members = [v for v in order if assignment[v] == pid]
            assert partitioning.partition_vertices(pid) == members
            assert partitioning.boundary(pid) == boundary[pid]
            assert partitioning.sorted_boundary(pid) == sorted(boundary[pid])
            assert rows_of(partitioning.subgraph(pid)) == ref.subgraph(set(members)).rows()
        assert partitioning.inter_edges() == inter
        assert partitioning.edge_cut() == len(inter)
        assert all(partitioning.partition_of(v) == assignment[v] for v in order)

        # The overlay: every boundary vertex, the inter edges, then each
        # partition's boundary shortcuts (duplicates keep the minimum).
        shortcuts = []
        for pid in range(k):
            ordered = sorted(boundary[pid])
            pairs = [(a, b, rng.uniform(0.01, 60.0)) for a in ordered for b in ordered
                     if a < b and rng.random() < 0.5]
            shortcuts.append(pairs + pairs[: len(pairs) // 2])

        class Family:
            def boundary_shortcuts(self, pid):
                us, vs, ws = zip(*shortcuts[pid]) if shortcuts[pid] else ((), (), ())
                return np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64), \
                    np.asarray(ws, dtype=np.float64)

        overlay = build_overlay_graph(partitioning, Family())
        expected = DictGraph(sorted(set().union(*boundary)))
        for u, v, w in inter + [e for pairs in shortcuts for e in pairs]:
            expected.add_edge(u, v, w)
        assert rows_of(overlay) == expected.rows()

    @GRAPH_SETTINGS
    @given(random_graphs(), st.randoms(use_true_random=False))
    def test_fingerprint_order_insensitive_and_bit_exact(self, spec, rng):
        vertices, edges = spec
        graph = edges_graph(*edges, vertices=vertices)
        shuffled = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in edges]
        rng.shuffle(shuffled)
        # Shuffling changes rows and edge ids, but not which minimum wins.
        ref = DictGraph(vertices, edges)
        again = edges_graph(*[(u, v, ref.adj[u][v]) for u, v, _ in shuffled],
                            vertices=list(reversed(vertices)))
        assert graph_fingerprint(again) == graph_fingerprint(graph)
        if graph.num_edges:
            u, v, w = rng.choice(list(graph.edges()))
            again.set_edge_weight(u, v, float(np.nextafter(w, math.inf)))
            assert graph_fingerprint(again) != graph_fingerprint(graph)


def test_pure_searches_read_one_list_per_weight_version():
    """The Python searches' rows are made once per weight version, so a weight
    write is seen and repeated searches reuse the lists."""
    from repro.algorithms.dijkstra import bidijkstra, dijkstra_distance

    graph = edges_graph((10, 20, 1.0), (20, 30, 1.0), (10, 30, 5.0))
    rows = graph.adjacency()
    assert graph.adjacency() is rows
    assert dijkstra_distance(graph, 10, 30) == bidijkstra(graph, 10, 30) == 2.0
    graph.set_edge_weight(20, 30, 9.0)
    assert graph.adjacency() is not rows
    assert dijkstra_distance(graph, 10, 30) == bidijkstra(graph, 10, 30) == 5.0
