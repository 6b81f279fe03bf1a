"""Cache and epoch-invalidation coverage: stale-epoch rejection, the whole
cache cleared on ``apply_batch``, hit/miss accounting under a mixed
query/update workload, and the rule that the cache fronts search stages only
(the integration cases run on search-based indexes; a label index's final
stage never probes it)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import dijkstra_distance
from repro.core.pmhl import PMHLIndex
from repro.graph.generators import grid_road_network
from repro.hierarchy.ch import DCHIndex
from repro.graph.updates import EdgeUpdate, UpdateBatch, generate_update_stream
from repro.serving.cache import EpochDistanceCache
from repro.serving.engine import ServingEngine
from repro.throughput.workload import sample_query_pairs


class TestEpochDistanceCache:
    def test_hit_and_miss_accounting(self):
        cache = EpochDistanceCache(capacity=8)
        assert cache.get(1, 2, epoch=0) is None
        cache.put(1, 2, 5.0, epoch=0)
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


#: A pair over few vertices (so keys repeat, in both orders), an epoch of
#: three (so entries go stale), and the operations a cache sees.
_PAIRS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12)
_EPOCHS = st.integers(0, 2)
_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), _PAIRS, _EPOCHS),
        st.tuples(st.just("put"), _PAIRS, _EPOCHS),
        st.tuples(st.just("invalidate"), st.just([]), st.just(0)),
    ),
    max_size=25,
)


class TestBatchedCacheCalls:
    """``get_many`` / ``put_many`` leave a cache exactly as one ``get`` /
    ``put`` per pair would: the answers, the entries in LRU order and every
    stats field, after every operation of a random sequence -- repeated and
    reversed pairs, stale epochs, batches larger than the capacity."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), _OPERATIONS)
    def test_batches_equal_per_pair_calls(self, capacity, operations):
        batched, single = EpochDistanceCache(capacity), EpochDistanceCache(capacity)
        for step, (kind, pairs, epoch) in enumerate(operations):
            distances = [float(step * 100 + i) for i in range(len(pairs))]
            if kind == "get":
                assert batched.get_many(pairs, epoch) == [
                    single.get(source, target, epoch) for source, target in pairs
                ]
            elif kind == "put":
                batched.put_many(pairs, distances, epoch)
                for (source, target), distance in zip(pairs, distances):
                    single.put(source, target, distance, epoch)
            else:
                assert batched.invalidate_all() == single.invalidate_all()
            assert list(batched._entries.items()) == list(single._entries.items())
            assert dataclasses.asdict(batched.stats) == dataclasses.asdict(single.stats)

class TestEngineCacheIntegration:
    def _engine(self, graph, index_cls=DCHIndex, **index_kwargs):
        return ServingEngine(index_cls(graph, **index_kwargs))

    def test_repeat_query_hits_cache_within_epoch(self):
        graph = grid_road_network(6, 6, seed=7)
        engine = self._engine(graph)
        first = engine.serve(0, 35)
        second = engine.serve(0, 35)
        assert not first.from_cache
        assert second.from_cache and second.stage == "cache"
        assert second.distance == first.distance
        assert engine.cache.stats.hits == 1

    def test_apply_batch_clears_the_cache(self):
        graph = grid_road_network(6, 6, seed=7)
        engine = self._engine(graph)
        u, v, w = next(iter(graph.edges()))
        batch = UpdateBatch([EdgeUpdate(u, v, w, w * 2.0)])
        pairs = [(0, 35), (5, 30), (12, 17)]
        for pair in pairs:
            engine.serve(*pair)
        assert len(engine.cache) == len(pairs)

        with engine:
            engine.submit_batch(batch)
            engine.wait_for_maintenance()

        # Every entry is gone at the install, not left to stale-reject later.
        assert len(engine.cache) == 0
        assert engine.cache.stats.invalidated == len(pairs)
        for source, target in pairs:
            result = engine.serve(source, target)
            assert not result.from_cache and result.epoch == 1
            assert result.distance == pytest.approx(
                dijkstra_distance(engine.graph_at(1), source, target)
            )
        assert engine.cache.stats.stale_rejections == 0

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

        # Mid-install the hook runs on the installing thread at the first
        # boundary after the edge refresh, *before* that stage's release: only
        # the BiDijkstra stage has been released, it answers, and that search
        # stage is cached.
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
