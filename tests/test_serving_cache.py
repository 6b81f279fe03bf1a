"""Cache and epoch-invalidation coverage: stale-epoch rejection, per-partition
invalidation on ``apply_batch``, hit/miss accounting under a mixed
query/update workload, and the rule that the cache fronts search stages only
(the integration cases run on search-based indexes; a label index's final
stage never probes it)."""

from __future__ import annotations

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.core.pmhl import PMHLIndex
from repro.graph.generators import grid_road_network
from repro.hierarchy.ch import DCHIndex
from repro.psp.no_boundary import NCHPIndex
from repro.graph.updates import EdgeUpdate, UpdateBatch, generate_update_stream
from repro.serving.cache import OVERLAY, EpochDistanceCache
from repro.serving.engine import ServingEngine
from repro.throughput.workload import sample_query_pairs


class TestEpochDistanceCache:
    def test_hit_and_miss_accounting(self):
        cache = EpochDistanceCache(capacity=8)
        assert cache.get(1, 2, epoch=0) is None
        cache.put(1, 2, 5.0, epoch=0, tags=(0, 1))
        assert cache.get(1, 2, epoch=0) == 5.0
        assert cache.get(2, 1, epoch=0) == 5.0  # canonical key: order-insensitive
        stats = cache.snapshot()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_stale_epoch_rejection_drops_entry(self):
        cache = EpochDistanceCache(capacity=8)
        cache.put(1, 2, 5.0, epoch=0)
        assert cache.get(1, 2, epoch=1) is None
        assert cache.stats.stale_rejections == 1
        assert len(cache) == 0  # the stale entry is gone, not just skipped
        # And a lookup at the original epoch is now a plain miss.
        assert cache.get(1, 2, epoch=0) is None
        assert cache.stats.stale_rejections == 1

    def test_partition_invalidation_is_selective(self):
        cache = EpochDistanceCache(capacity=8)
        cache.put(1, 2, 5.0, epoch=0, tags=(0,))
        cache.put(3, 4, 6.0, epoch=0, tags=(1,))
        cache.put(5, 6, 7.0, epoch=0, tags=(0, 1))
        cache.put(7, 8, 8.0, epoch=0, tags=(None,))  # overlay-tagged
        removed = cache.invalidate_partitions({0})
        assert removed == 2
        assert cache.get(3, 4, epoch=0) == 6.0
        assert cache.get(7, 8, epoch=0) == 8.0
        assert cache.get(1, 2, epoch=0) is None
        # None in the affected set matches OVERLAY-tagged entries.
        assert cache.invalidate_partitions({None}) == 1
        assert cache.stats.invalidated == 3

    def test_overlay_sentinel_normalisation(self):
        cache = EpochDistanceCache(capacity=8)
        cache.put(1, 2, 5.0, epoch=0, tags=(None,))
        assert cache.invalidate_partitions({OVERLAY}) == 1

    def test_lru_eviction(self):
        cache = EpochDistanceCache(capacity=2)
        cache.put(1, 2, 1.0, epoch=0)
        cache.put(3, 4, 2.0, epoch=0)
        assert cache.get(1, 2, epoch=0) == 1.0  # refresh (1, 2)
        cache.put(5, 6, 3.0, epoch=0)  # evicts (3, 4), the LRU entry
        assert cache.get(3, 4, epoch=0) is None
        assert cache.get(1, 2, epoch=0) == 1.0
        assert cache.stats.evictions == 1

    def test_invalidate_all(self):
        cache = EpochDistanceCache(capacity=8)
        cache.put(1, 2, 1.0, epoch=0)
        cache.put(3, 4, 2.0, epoch=0)
        assert cache.invalidate_all() == 2
        assert len(cache) == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            EpochDistanceCache(capacity=0)


class TestEngineCacheIntegration:
    def _engine(self, graph, index_cls=DCHIndex, **index_kwargs):
        return ServingEngine(index_cls(graph, **index_kwargs), snapshot_limit=8)

    def test_repeat_query_hits_cache_within_epoch(self):
        graph = grid_road_network(6, 6, seed=7)
        engine = self._engine(graph)
        first = engine.serve(0, 35)
        second = engine.serve(0, 35)
        assert not first.from_cache
        assert second.from_cache and second.stage == "cache"
        assert second.distance == first.distance
        assert engine.cache.stats.hits == 1

    def test_apply_batch_invalidates_affected_partitions_only(self):
        graph = grid_road_network(6, 6, seed=7)
        # N-CH-P: search-based (so cached) *and* partitioned (so selective).
        engine = self._engine(graph, NCHPIndex, num_partitions=4, seed=0)
        index = engine.index
        partitioning = index.partitioning

        # One intra-partition update confined to the partition of vertex 0.
        pid = partitioning.partition_of(0)
        edge = next(
            (u, v, w)
            for u, v, w in graph.edges()
            if partitioning.partition_of(u) == pid
            and partitioning.partition_of(v) == pid
        )
        u, v, w = edge
        batch = UpdateBatch([EdgeUpdate(u, v, w, w * 2.0)])

        # Warm the cache with a pair inside the affected partition and a pair
        # entirely outside it.
        inside = [x for x in partitioning.partition_vertices(pid)][:2]
        outside_pid = next(p for p in range(partitioning.num_partitions) if p != pid)
        outside = [x for x in partitioning.partition_vertices(outside_pid)][:2]
        engine.serve(inside[0], inside[1])
        engine.serve(outside[0], outside[1])
        assert len(engine.cache) == 2

        with engine:
            engine.submit_batch(batch)
            engine.wait_for_maintenance()

        # The affected partition's entry is eagerly evicted; the other remains
        # resident but is epoch-stale.
        assert (inside[0], inside[1]) not in engine.cache
        assert (outside[0], outside[1]) in engine.cache
        assert engine.cache.stats.invalidated == 1

        # Serving the untouched pair again rejects the stale entry and
        # recomputes at the new epoch — still exactly the Dijkstra answer.
        result = engine.serve(outside[0], outside[1])
        assert not result.from_cache
        assert result.epoch == 1
        assert engine.cache.stats.stale_rejections == 1
        assert result.distance == pytest.approx(
            dijkstra_distance(engine.graph_at(1), outside[0], outside[1])
        )

    def test_mixed_workload_accounting_consistency(self):
        graph = grid_road_network(6, 6, seed=9)
        engine = self._engine(graph)
        pairs = list(sample_query_pairs(graph, 10, seed=2))
        batches = generate_update_stream(graph, 2, volume=5, seed=4)
        with engine:
            for batch in batches:
                for source, target in pairs:
                    engine.serve(source, target)
                    engine.serve(source, target)  # immediate repeat: cache hit
                engine.submit_batch(batch)
                engine.wait_for_maintenance()
        stats = engine.cache.snapshot()
        assert stats["hits"] > 0
        assert stats["misses"] > 0
        assert stats["hits"] + stats["misses"] == engine.metrics.queries_served
        # Every cache answer was correct for its epoch (sanity via metrics):
        assert engine.metrics.snapshot()["by_stage"]["cache"] == stats["hits"]

    def test_label_final_stage_bypasses_cache_but_install_fallback_uses_it(
        self, monkeypatch
    ):
        graph = grid_road_network(6, 6, seed=7)
        engine = self._engine(graph, PMHLIndex, num_partitions=4, seed=0)
        pairs = list(sample_query_pairs(graph, 10, seed=2))
        batch = generate_update_stream(graph, 1, volume=5, seed=4)[0]
        assert [row["cached"] for row in engine.stats()["stages"]] == [
            True, True, True, True, False,
        ]

        # Steady state: the label lookup answers, batch and scalar, and the
        # cache is neither probed nor filled.
        assert engine.serve_batch(pairs).stage == "CROSS_BOUNDARY"
        assert engine.serve(*pairs[0]).stage == "CROSS_BOUNDARY"
        assert engine.serve_batch(pairs).stage == "CROSS_BOUNDARY"
        assert engine.cache.stats.lookups == 0
        assert len(engine.cache) == 0

        # Mid-install (index write lock held, graph lock released — the hook
        # runs on the installing thread at the first later-stage boundary)
        # the BiDijkstra fallback answers, and that search stage is cached.
        during = []
        real_release = engine.router.release

        def release(update_stage, epoch):
            if not during:
                during.extend(engine.serve_batch(pairs) for _ in range(2))
            real_release(update_stage, epoch)

        monkeypatch.setattr(engine.router, "release", release)
        with engine:
            engine.apply_batch(batch)
        computed, cached = during
        assert (computed.stage, computed.epoch) == ("BIDIJKSTRA", 1)
        assert (cached.stage, cached.epoch) == ("cache", 1)
        assert cached.distances == computed.distances
        assert engine.cache.stats.lookups == 2 * len(pairs)
        assert engine.cache.stats.hits == len(pairs)
        snapshot = engine.graph_at(1)
        for (source, target), distance in zip(pairs, computed.distances):
            assert distance == pytest.approx(dijkstra_distance(snapshot, source, target))

        # Installed: the final stage is back, and bypasses the cache again.
        after = engine.serve_batch(pairs)
        assert (after.stage, after.epoch) == ("CROSS_BOUNDARY", 1)
        assert after.distances == pytest.approx(computed.distances)
        assert engine.cache.stats.lookups == 2 * len(pairs)

    def test_cache_disabled(self):
        graph = grid_road_network(5, 5, seed=3)
        index = PMHLIndex(graph, num_partitions=4, seed=0)
        engine = ServingEngine(index, cache_capacity=0)
        engine.serve(0, 20)
        engine.serve(0, 20)
        assert engine.cache is None
        assert "cache" not in engine.stats()
