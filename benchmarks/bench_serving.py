"""Exp 9 — live serving engine: measured QPS versus the analytic λ*_q bound —
and the engine batch plane's asserted bar: ``ServingEngine.serve_batch`` costs
at most :data:`BATCH_PLANE_BAR` x ``index.query_many`` per query (ROADMAP 2a)."""

import time

from repro.experiments import exp9_live_serving
from repro.experiments.runner import print_experiment
from repro.graph.generators import grid_road_network
from repro.registry import create_index, get_spec
from repro.serving.engine import ServingEngine
from repro.throughput.workload import sample_query_pairs

from conftest import run_once

#: ``serve_batch`` per-query cost over ``query_many``'s, PMHL, 64-pair batches.
BATCH_PLANE_BAR = 2.0
BATCH_PLANE_SIDE = 48
BATCH_SIZE = 64


def test_live_serving(benchmark, quick_config):
    rows = run_once(benchmark, lambda: exp9_live_serving.run(quick_config, quick=True))
    print_experiment("Exp 9 — live serving (measured vs analytic)", rows)
    by_method = {row["method"]: row for row in rows}
    assert by_method["PostMHL"]["measured_qps"] > 0
    assert by_method["PostMHL"]["analytic_max_throughput"] > 0
    # The engine must actually have interleaved maintenance with serving.
    assert all(row["batches_applied"] >= 1 for row in rows)


def _us_per_query(answer, batches, passes: int = 9) -> float:
    """Fastest of ``passes`` sweeps over ``batches`` (interference only adds
    time, so the minimum is the least disturbed reading), in µs per query."""
    best = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        for batch in batches:
            answer(batch)
        best = min(best, time.perf_counter() - started)
    return 1e6 * best / sum(len(batch) for batch in batches)


def test_batch_plane_within_2x_of_query_many():
    graph = grid_road_network(BATCH_PLANE_SIDE, BATCH_PLANE_SIDE, seed=7)
    index = create_index(get_spec("PMHL", num_partitions=8, seed=0), graph)
    index.build()
    pairs = list(sample_query_pairs(graph, BATCH_SIZE * 128, seed=11))
    batches = [pairs[i:i + BATCH_SIZE] for i in range(0, len(pairs), BATCH_SIZE)]
    engine = ServingEngine(index)  # shipped defaults: cache on, obs off
    assert engine.query_batch(batches[0]) == index.query_many(batches[0])
    # Interleave the two sides so a slow stretch of the machine hits both.
    kernel = engine_plane = float("inf")
    for _ in range(3):
        kernel = min(kernel, _us_per_query(index.query_many, batches))
        engine_plane = min(engine_plane, _us_per_query(engine.serve_batch, batches))
    ratio = engine_plane / kernel
    print(
        f"\nPMHL {BATCH_PLANE_SIDE}x{BATCH_PLANE_SIDE}, {BATCH_SIZE}-pair batches: "
        f"index.query_many {kernel:.2f} us/query, ServingEngine.serve_batch "
        f"{engine_plane:.2f} us/query = {ratio:.2f}x (bar {BATCH_PLANE_BAR:.1f}x)"
    )
    assert engine.cache.stats.lookups == 0  # the label stage bypasses the cache
    assert ratio <= BATCH_PLANE_BAR
