"""Cache and epoch-invalidation coverage: stale-epoch rejection, the whole
cache cleared on ``apply_batch``, hit/miss accounting under a mixed
query/update workload, and the rule that the cache fronts search stages only
(the integration cases run on search-based indexes; a label index's final
stage never probes it)."""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
from collections import Counter

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import dijkstra_distance
from repro.core.pmhl import PMHLIndex
from repro.exceptions import VertexNotFoundError
from repro.graph.generators import grid_road_network
from repro.hierarchy.ch import DCHIndex
from repro.graph.updates import EdgeUpdate, UpdateBatch, generate_update_stream
from repro.serving.cache import EpochDistanceCache
from repro.serving.engine import ServingEngine
from repro.throughput.workload import sample_query_pairs
from tests.oracles.cache import EpochDistanceCache as OracleCache


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

    @pytest.mark.parametrize("capacity", [0, -1, 2**30 + 1, 2**64, 1.5])
    def test_rejects_bad_capacity(self, capacity):
        """Below 1, past the table's int32 slots and past ``Py_ssize_t``
        alike, refused before the table allocates anything."""
        with pytest.raises(ValueError):
            EpochDistanceCache(capacity=capacity)


#: A pair over few vertices (so keys repeat, in both orders), an epoch of
#: three (so entries go stale), and the operations a cache sees.
_VERTICES = range(5)
_PAIRS = st.lists(st.tuples(st.sampled_from(_VERTICES), st.sampled_from(_VERTICES)), max_size=12)
_EPOCHS = st.integers(0, 2)
_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), _PAIRS, _EPOCHS),
        st.tuples(st.just("put"), _PAIRS, _EPOCHS),
        st.tuples(st.just("invalidate"), st.just([]), st.just(0)),
    ),
    max_size=25,
)
_KEYS = [(s, t) for s in _VERTICES for t in _VERTICES if s <= t]


class TestBatchedCacheCalls:
    """The C table against its oracle (the ``OrderedDict`` cache in
    ``tests/oracles/cache.py``) on random operation sequences -- repeated
    and reversed pairs, stale epochs, batches larger than the capacity: after
    every operation, the ``get_many`` answers, ``len``, which keys were
    evicted and every stats counter are the oracle's, for the C cache called
    a batch at a time and a pair at a time."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from([1, 2]), st.integers(1, 6)), _OPERATIONS)
    def test_batches_and_pairs_equal_the_oracle(self, capacity, operations):
        batched, single = EpochDistanceCache(capacity), EpochDistanceCache(capacity)
        oracle = OracleCache(capacity)
        for step, (kind, pairs, epoch) in enumerate(operations):
            distances = [float(step * 100 + i) for i in range(len(pairs))]
            before = [key for key in _KEYS if key in oracle]
            if kind == "get":
                expected = oracle.get_many(pairs, epoch)
                assert batched.get_many(pairs, epoch) == expected
                assert [single.get(source, target, epoch) for source, target in pairs] == expected
            elif kind == "put":
                oracle.put_many(pairs, distances, epoch)
                batched.put_many(pairs, distances, epoch)
                for (source, target), distance in zip(pairs, distances):
                    single.put(source, target, distance, epoch)
            else:
                count = oracle.invalidate_all()
                assert batched.invalidate_all() == count == single.invalidate_all()
            present = [key for key in _KEYS if key in oracle]
            dropped = [key for key in before if key not in present]
            for cache in (batched, single):
                assert len(cache) == len(oracle)
                assert [key for key in _KEYS if key in cache] == present
                assert [key for key in before if key not in cache] == dropped
                assert dataclasses.asdict(cache.stats) == dataclasses.asdict(oracle.stats)
                assert cache.snapshot() == oracle.snapshot()

    def test_eviction_sequence_equals_the_oracle(self):
        """A longer run over more keys than the capacity: the key each insert
        evicts, in order, is the oracle's."""
        rng = random.Random(5)
        cache, oracle = EpochDistanceCache(16), OracleCache(16)
        evicted, expected = [], []
        for step in range(3000):
            pair = (rng.randrange(40), rng.randrange(40))
            if rng.random() < 0.5:
                assert cache.get(*pair, step // 500) == oracle.get(*pair, step // 500)
                continue
            keys = [key for key in oracle._entries]
            oracle.put(*pair, float(step), step // 500)
            cache.put(*pair, float(step), step // 500)
            expected += [key for key in keys if key not in oracle]
            evicted += [key for key in keys if key not in cache]
        assert evicted == expected and len(expected) > 500
        assert cache.snapshot() == oracle.snapshot()


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


class TestCachedSearchStage:
    """A cached stage answers a batch with one probe, its compute on the
    misses and one fill (``EpochDistanceCache.answer``): its answers, stage
    columns and cache counters equal the per-pair ``OrderedDict`` path's
    (the oracle's ``answer``), bit for bit."""

    def test_batch_path_equals_the_per_pair_oracle(self):
        graph = grid_road_network(12, 12, seed=5)
        pairs = list(sample_query_pairs(graph, 40, seed=6))
        # Each batch twice in a row: the repeat is answered from the cache.
        batches = [random.Random(i // 2).choices(pairs, k=16) for i in range(60)]

        def serve_all(cache):
            engine = ServingEngine(DCHIndex(graph), cache_capacity=24)
            engine.cache = cache
            results = [engine.serve_batch(batch) for batch in batches]
            return [(r.stage, r.distances, r.stages) for r in results], cache.snapshot()

        served = serve_all(EpochDistanceCache(24))
        assert served == serve_all(OracleCache(24))
        assert {stage for stage, _, _ in served[0]} == {"cache", "mixed", "native"}

    def test_answer_fills_only_what_it_computed(self):
        graph = grid_road_network(8, 8, seed=1)
        index = DCHIndex(graph)
        index.build()
        cache, computed = EpochDistanceCache(8), []

        def compute(misses):
            computed.append(misses.tolist())
            return index.query_ids(misses)

        pairs = numpy.array([[0, 63], [5, 9], [0, 63], [63, 0]], dtype=numpy.int64)
        out, stages = numpy.full(4, numpy.nan), numpy.full(4, 9, dtype=numpy.uint8)
        assert cache.answer(pairs, 3, compute, out, stages) == 0
        assert out.tolist() == index.query_ids(pairs).tolist()
        assert stages.tolist() == [1, 1, 1, 1] and len(cache) == 2
        assert cache.answer(pairs, 3, compute, out, stages) == 4
        assert stages.tolist() == [0, 0, 0, 0] and len(computed) == 1
        # A vertex with no row fails the compute: nothing is filled, and the
        # hit beside it was counted.
        bad = numpy.array([[0, 63], [1, 10_000], [2, 3]], dtype=numpy.int64)
        with pytest.raises(VertexNotFoundError):
            cache.answer(bad, 3, compute, numpy.empty(3), numpy.empty(3, numpy.uint8))
        assert computed[-1] == [[1, 10_000], [2, 3]]
        assert (2, 3) not in cache and cache.stats.hits == 5 and cache.stats.misses == 6
        # Another epoch: every entry is stale.
        assert cache.answer(pairs[:2], 4, compute, out[:2], stages[:2]) == 0
        assert cache.stats.stale_rejections == 2


class TestStageCounts:
    """``BatchResult.stage_counts`` counts the stage column without a Python
    object per pair: equal to counting the rows' stages, for a batch one
    stage answered, an all-cache batch and a mixed one."""

    def test_counts_equal_counting_the_rows(self):
        graph = grid_road_network(6, 6, seed=7)
        engine = ServingEngine(DCHIndex(graph))
        pairs = list(sample_query_pairs(graph, 12, seed=2))
        results = [
            engine.serve_batch(pairs[:6]),
            engine.serve_batch(pairs[:6]),
            engine.serve_batch(pairs),
        ]
        assert [r.stage for r in results] == ["native", "cache", "mixed"]
        for result in results:
            assert result.stage_counts() == Counter(row.stage for row in result)
        assert results[2].stage_counts() == Counter(results[2].stages) == {
            "cache": 6, "native": 6,
        }


class TestConcurrentServing:
    """Two threads serve batches on one cached DCH engine while a third
    installs update batches: every answer equals Dijkstra on the graph of
    the epoch its reply names, and the cache counted every pair probed
    once."""

    def test_answers_and_counters_under_installs(self):
        graph = grid_road_network(10, 10, seed=11)
        engine = ServingEngine(DCHIndex(graph), cache_capacity=64)
        pairs = list(sample_query_pairs(graph, 60, seed=3))
        updates = generate_update_stream(graph, 6, volume=6, seed=8)
        replies, errors = [[], []], []
        done = threading.Event()

        def serve(lane):
            rng = random.Random(lane)
            try:
                while not done.is_set() or len(replies[lane]) < 40:
                    replies[lane].append(engine.serve_batch(rng.choices(pairs, k=16)))
            except Exception as exc:  # reported below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the GIL changes hands mid-probe and mid-fill
        try:
            with engine:
                threads = [threading.Thread(target=serve, args=(lane,)) for lane in (0, 1)]
                for thread in threads:
                    thread.start()
                for batch in updates:
                    engine.apply_batch(batch)
                done.set()
                for thread in threads:
                    thread.join(60.0)
        finally:
            done.set()
            sys.setswitchinterval(switch)
        assert errors == [] and not any(thread.is_alive() for thread in threads)
        served = [result for lane in replies for result in lane]
        epochs = {result.epoch for result in served}
        assert len(epochs) > 1
        graphs = {epoch: engine.graph_at(epoch) for epoch in epochs}
        for result in served:
            for row in result:
                assert row.distance == pytest.approx(
                    dijkstra_distance(graphs[result.epoch], row.source, row.target)
                )
        stats = engine.cache.stats
        assert stats.hits + stats.misses == sum(len(result) for result in served)
        assert stats.hits == sum(result.stage_counts().get("cache", 0) for result in served)
