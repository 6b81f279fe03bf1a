"""Unit tests for the PSP framework: overlay, no-boundary and post-boundary indexes."""

import math

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.core.pmhl import PMHLIndex
from repro.exceptions import PartitioningError
from repro.graph.generators import grid_road_network, highway_network
from repro.graph.updates import generate_update_batch, generate_update_stream
from repro.partitioning.base import Partitioning
from repro.partitioning.natural_cut import natural_cut_partition
from repro.partitioning.ordering import boundary_first_order
from repro.psp.no_boundary import NCHPIndex, NoBoundaryPSPIndex
from repro.psp.overlay import OverlayIndex, build_overlay_graph
from repro.psp.partition_family import PartitionIndexFamily
from repro.psp.post_boundary import PostBoundaryPSPIndex, PTDPIndex
from repro.registry import create_index
from repro.store import load_index, save_index

from tests.conftest import random_query_pairs


def build_family(graph, k=4, seed=0, with_labels=True):
    partitioning = natural_cut_partition(graph, k, seed=seed)
    order = boundary_first_order(graph, partitioning)
    family = PartitionIndexFamily(partitioning, order, with_labels=with_labels)
    family.build()
    return partitioning, order, family


def endpoint_cases(partitioning):
    """Boundary / interior endpoints in the same and in different partitions,
    in both directions, plus ``s == t`` for either kind of vertex."""
    def pick(pid):
        boundary = partitioning.sorted_boundary(pid)
        interior = partitioning.non_boundary(pid)
        return boundary[0], boundary[-1], interior[0], interior[-1]

    b0, b0_other, i0, i0_other = pick(0)
    b1, _, i1, _ = pick(1)
    same = [(b0, b0_other), (b0, i0), (i0, b0), (i0, i0_other)]
    cross = [(b0, b1), (b0, i1), (i0, b1), (i0, i1)]
    return same + cross + [(t, s) for s, t in cross] + [(b0, b0), (i0, i0)]


class TestOverlay:
    def test_overlay_preserves_boundary_distances(self):
        graph = grid_road_network(8, 8, seed=1)
        partitioning, order, family = build_family(graph)
        overlay = OverlayIndex(partitioning, family, order)
        overlay.build()
        boundary = sorted(partitioning.all_boundary())
        for b1 in boundary[:6]:
            for b2 in boundary[-6:]:
                assert overlay.query(b1, b2) == pytest.approx(
                    dijkstra_distance(graph, b1, b2)
                ), (b1, b2)

    def test_overlay_graph_vertices_are_boundary(self):
        graph = grid_road_network(8, 8, seed=2)
        partitioning, order, family = build_family(graph)
        overlay_graph = build_overlay_graph(partitioning, family)
        assert set(overlay_graph.vertices()) == partitioning.all_boundary()

    def test_boundary_pair_distances_match_global(self):
        graph = grid_road_network(8, 8, seed=3)
        partitioning, order, family = build_family(graph)
        overlay = OverlayIndex(partitioning, family, order)
        overlay.build()
        for pid in range(partitioning.num_partitions):
            distances = overlay.boundary_pair_distances(pid)
            for (b1, b2), d in list(distances.items())[:20]:
                assert d == pytest.approx(dijkstra_distance(graph, b1, b2))

    def test_overlay_update_keeps_boundary_distances(self):
        graph = grid_road_network(8, 8, seed=4)
        partitioning, order, family = build_family(graph)
        overlay = OverlayIndex(partitioning, family, order)
        overlay.build()

        batch = generate_update_batch(graph, volume=12, seed=4)
        batch.apply(graph)
        # Maintain partitions then feed boundary changes into the overlay.
        changed_boundary = {}
        per_partition = {}
        for update in batch:
            pu, pv = partitioning.partition_of(update.u), partitioning.partition_of(update.v)
            if pu == pv:
                per_partition.setdefault(pu, []).append(update)
        for pid, updates in per_partition.items():
            changed_edges = family.apply_edge_updates(pid, updates)
            changed_report = family.update_shortcuts(pid, changed_edges)
            family.update_labels(pid, changed_report.keys())
            boundary = partitioning.boundary(pid)
            for v, neighbours in changed_report.items():
                if v in boundary:
                    for u in neighbours:
                        if u in boundary:
                            changed_boundary[(v, u)] = family.contractions[pid].shortcuts[v][u]
        inter = [
            u for u in batch
            if partitioning.partition_of(u.u) != partitioning.partition_of(u.v)
        ]
        overlay.apply_updates(inter, changed_boundary)

        boundary = sorted(partitioning.all_boundary())
        for b1 in boundary[:5]:
            for b2 in boundary[-5:]:
                assert overlay.query(b1, b2) == pytest.approx(
                    dijkstra_distance(graph, b1, b2)
                )


class TestPartitionFamily:
    def test_partition_queries_are_local_distances(self):
        graph = grid_road_network(8, 8, seed=5)
        partitioning, order, family = build_family(graph)
        for pid in range(partitioning.num_partitions):
            subgraph = family.graphs[pid]
            members = partitioning.partition_vertices(pid)
            for s in members[:4]:
                for t in members[-4:]:
                    assert family.query(pid, s, t) == pytest.approx(
                        dijkstra_distance(subgraph, s, t)
                    )

    def test_ch_family_matches_h2h_family(self):
        graph = grid_road_network(7, 7, seed=6)
        partitioning, order, family_h2h = build_family(graph, with_labels=True)
        family_ch = PartitionIndexFamily(partitioning, order, with_labels=False)
        family_ch.build()
        for pid in range(partitioning.num_partitions):
            members = partitioning.partition_vertices(pid)
            for s in members[:3]:
                for t in members[-3:]:
                    assert family_ch.query(pid, s, t) == pytest.approx(
                        family_h2h.query(pid, s, t)
                    )

    def test_index_size_positive(self):
        graph = grid_road_network(6, 6, seed=7)
        _, _, family = build_family(graph)
        assert family.index_size() > 0


@pytest.mark.parametrize("index_cls", [NoBoundaryPSPIndex, PostBoundaryPSPIndex])
@pytest.mark.parametrize("underlying", ["h2h", "ch"])
class TestPSPIndexCorrectness:
    def test_queries_match_dijkstra(self, index_cls, underlying):
        graph = grid_road_network(8, 8, seed=8)
        index = index_cls(graph, num_partitions=4, underlying=underlying, seed=8)
        index.build()
        pairs = endpoint_cases(index.partitioning) + random_query_pairs(graph, 40, seed=8)
        for decrease_fraction in (None, 0.0, 1.0):  # fresh, increases, decreases
            if decrease_fraction is not None:
                index.apply_batch(generate_update_batch(
                    graph, volume=10, seed=8, decrease_fraction=decrease_fraction
                ))
            for s, t in pairs:
                assert index.query(s, t) == pytest.approx(
                    dijkstra_distance(graph, s, t)
                ), (s, t, decrease_fraction)

    def test_join_is_the_concatenation_to_the_ulp(self, index_cls, underlying):
        """The lift-then-join regroups the Section III-C concatenation, so it
        may round differently; the bound, set beforehand, is 4 ulp."""
        graph = grid_road_network(8, 8, seed=12)
        index = index_cls(graph, num_partitions=4, underlying=underlying, seed=12)
        index.use_kernels = False
        index.build()
        family, direct = index._query_strategy()
        partition_of = index.partitioning.partition_of

        def concatenation(s, t):
            ps, pt = partition_of(s), partition_of(t)
            best = family.query(ps, s, t) if ps == pt else math.inf
            if ps == pt and direct:
                return best
            for bp in index.partitioning.boundary(ps):
                for bq in index.partitioning.boundary(pt):
                    best = min(best, family.query(ps, s, bp) + index.overlay.query(bp, bq)
                               + family.query(pt, bq, t))
            return best

        for s, t in random_query_pairs(graph, 30, seed=12):
            if s != t:
                expected = concatenation(s, t)
                assert abs(index.query(s, t) - expected) <= 4 * math.ulp(expected), (s, t)

    def test_queries_after_updates(self, index_cls, underlying):
        graph = grid_road_network(7, 7, seed=9)
        index = index_cls(graph, num_partitions=4, underlying=underlying, seed=9)
        index.build()
        for batch in generate_update_stream(graph, num_batches=3, volume=8, seed=9):
            index.apply_batch(batch)
            for s, t in random_query_pairs(graph, 25, seed=9):
                assert index.query(s, t) == pytest.approx(
                    dijkstra_distance(graph, s, t)
                ), (s, t)


PSP_STAGES = ["edge_update", "partition_update", "overlay_update"]


@pytest.mark.parametrize("use_kernels", [True, False])
@pytest.mark.parametrize(
    "make, stages, parallel, registered",
    [
        (lambda g: NoBoundaryPSPIndex(g, num_partitions=4, seed=11),
         PSP_STAGES, {"partition_update"}, False),
        (lambda g: NCHPIndex(g, num_partitions=4, seed=11),
         PSP_STAGES, {"partition_update"}, True),
        (lambda g: PTDPIndex(g, num_partitions=4, seed=11),
         PSP_STAGES + ["post_boundary_update"],
         {"partition_update", "post_boundary_update"}, True),
    ],
    ids=["N-PSP", "N-CH-P", "P-TD-P"],
)
class TestPSPBatchPlaneAndReports:
    """The batch plane runs the scalar routine: same bits fresh, updated and
    reloaded; the composed maintenance phases keep each strategy's stage names."""

    def test_query_many_is_query_and_stage_names_hold(
        self, make, stages, parallel, registered, use_kernels, tmp_path
    ):
        index = make(grid_road_network(8, 8, seed=11))
        index.use_kernels = use_kernels
        index.build()
        pairs = random_query_pairs(index.graph, 40, seed=11)

        def check():
            scalar = [index.query(s, t) for s, t in pairs]
            assert scalar == pytest.approx(
                [dijkstra_distance(index.graph, s, t) for s, t in pairs]
            )
            batch = index.query_many(pairs)
            assert [d.hex() for d in batch] == [d.hex() for d in scalar]

        def apply(batch_seed, decrease_fraction):
            report = index.apply_batch(
                generate_update_batch(
                    index.graph, volume=10, seed=batch_seed,
                    decrease_fraction=decrease_fraction,
                )
            )
            assert [s.name for s in report.stages] == stages
            assert {
                s.name for s in report.stages if s.parallel_times is not None
            } == parallel

        check()
        for i, decrease_fraction in enumerate((0.0, 1.0, 0.5)):
            apply(110 + i, decrease_fraction)
        check()
        if registered:  # snapshots cover the registry's methods only
            save_index(index, str(tmp_path / "snap"))
            index = load_index(str(tmp_path / "snap"), use_kernels=use_kernels)
            check()
            apply(113, 0.5)
            check()


class TestPSPBaselines:
    def test_nchp_and_ptdp_names(self):
        graph = grid_road_network(5, 5, seed=0)
        assert NCHPIndex(graph).name == "N-CH-P"
        assert PTDPIndex(graph).name == "P-TD-P"

    def test_nchp_on_highway_network(self):
        graph = highway_network(clusters=4, cluster_size=16, seed=1)
        index = NCHPIndex(graph, num_partitions=4, seed=1)
        index.build()
        for s, t in random_query_pairs(graph, 30, seed=1):
            assert index.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_ptdp_update_report_stages(self):
        graph = grid_road_network(6, 6, seed=2)
        index = PTDPIndex(graph, num_partitions=4, seed=2)
        index.build()
        report = index.apply_batch(generate_update_batch(graph, volume=8, seed=2))
        names = [s.name for s in report.stages]
        assert names == [
            "edge_update",
            "partition_update",
            "overlay_update",
            "post_boundary_update",
        ]
        assert report.total_seconds >= 0.0

    def test_index_sizes_ordering(self):
        """Post-boundary stores strictly more than no-boundary (extra {L'_i})."""
        graph = grid_road_network(6, 6, seed=3)
        no_boundary = NoBoundaryPSPIndex(graph.copy(), num_partitions=4, seed=3)
        no_boundary.build()
        post_boundary = PostBoundaryPSPIndex(graph.copy(), num_partitions=4, seed=3)
        post_boundary.build()
        assert post_boundary.index_size() > no_boundary.index_size()

    def test_same_partition_queries(self):
        graph = grid_road_network(8, 8, seed=10)
        index = PostBoundaryPSPIndex(graph, num_partitions=4, seed=10)
        index.build()
        partitioning = index.partitioning
        for pid in range(partitioning.num_partitions):
            members = partitioning.partition_vertices(pid)
            for s in members[:4]:
                for t in members[-4:]:
                    assert index.query(s, t) == pytest.approx(
                        dijkstra_distance(graph, s, t)
                    )


def two_grids(side=5, seed=0):
    """Two disjoint ``side`` x ``side`` grids, the second shifted far to the
    right (at k=2 the partitioner gives each grid a partition of its own)."""
    graph = grid_road_network(side, side, seed=seed)
    other = grid_road_network(side, side, seed=seed + 1)
    offset = graph.num_vertices
    for v in other.vertices():
        x, y = other.coordinate(v)
        graph.add_vertex(v + offset)
        graph.set_coordinate(v + offset, x + 1000.0, y)
    for u, v, w in other.edges():
        graph.add_edge(u + offset, v + offset, w)
    return graph


PSP_METHODS = ["N-CH-P", "P-TD-P", "PMHL"]


def psp_planes(index, sources, targets):
    """Every plane answering ``sources x targets`` through the PSP join, per
    strategy (PMHL's Q3 and Q4 are two): ``{strategy: {plane: answers}}``."""
    if isinstance(index, PMHLIndex):
        strategies = {"Q3": (index.family, False), "Q4": (index.extended_family, True)}
    else:
        strategies = {"query": index._query_strategy()}
    pairs = [(s, t) for s in sources for t in targets]
    planes = {}
    for name, (family, direct) in strategies.items():
        planes[name] = {
            "scalar": [index._psp_query(s, t, family, direct) for s, t in pairs],
            "batch": index._psp_query_many(pairs, family, direct),
            "one-to-many": [
                d for s in sources
                for d in index._psp_query_many([(s, t) for t in targets], family, direct)
            ],
        }
    if not isinstance(index, PMHLIndex):
        planes["query"]["public batch"] = index.query_many(pairs)
        planes["query"]["public one-to-many"] = [
            d for s in sources for d in index.query_one_to_many(s, targets)
        ]
    return pairs, planes


class TestOverlayEdgeCases:
    """A partitioning without any boundary vertex is refused at build; one
    whose overlay is a forest answers ``inf`` across its trees."""

    @pytest.mark.parametrize("method", PSP_METHODS)
    @pytest.mark.parametrize(
        "make_graph, k",
        [(lambda: grid_road_network(6, 6, seed=0), 1), (two_grids, 2)],
        ids=["one-partition", "one-partition-per-component"],
    )
    def test_empty_overlay_is_a_partitioning_error(self, method, make_graph, k):
        index = create_index(method, make_graph(), num_partitions=k)
        with pytest.raises(PartitioningError, match="no boundary vertex"):
            index.build()

    @pytest.mark.parametrize("method", PSP_METHODS)
    @pytest.mark.parametrize("k", [3, 4, None], ids=["k3", "k4", "boundaryless"])
    def test_forest_overlay(self, method, k):
        """``k=None`` makes the first grid one partition without a boundary
        (its lift is an empty reduction) and splits the second in two."""
        indexes = []
        for use_kernels in (True, False):
            graph = two_grids()
            index = create_index(method, graph, num_partitions=k or 3,
                                 use_kernels=use_kernels)
            if k is None:
                index.partitioning = Partitioning(graph, {
                    v: 0 if v < 25 else 1 + ((v - 25) % 5 >= 3) for v in graph.vertices()
                })
            index.build()
            indexes.append(index)
        if k is None:
            assert indexes[0].partitioning.boundary_sizes()[0] == 0
        else:
            assert len(indexes[0].overlay.tree.roots) > 1
        component = {v: v // 25 for v in indexes[0].graph.vertices()}
        sources = [0, 7, 12, 24, 25, 33, 49]
        targets = [0, 6, 18, 24, 25, 31, 44, 49]

        def check():
            answers = []
            for index in indexes:
                pairs, planes = psp_planes(index, sources, targets)
                hexed = {}
                for strategy, by_plane in planes.items():
                    scalar = by_plane["scalar"]
                    for (s, t), d in zip(pairs, scalar):
                        if component[s] != component[t]:
                            assert d == math.inf, (strategy, s, t)
                        else:
                            assert d == pytest.approx(
                                dijkstra_distance(index.graph, s, t)
                            ), (strategy, s, t)
                    for plane, distances in by_plane.items():
                        hexed[strategy, plane] = [d.hex() for d in distances]
                        assert hexed[strategy, plane] == hexed[strategy, "scalar"], plane
                answers.append(hexed)
            assert answers[0] == answers[1]  # both rungs, bit for bit

        check()
        for index in indexes:  # same seed on equal graphs: the same batch
            index.apply_batch(generate_update_batch(index.graph, volume=12, seed=k or 5))
        check()
