"""Exp 9 — live serving: measured QPS versus the analytic throughput bound.

The throughput experiments (Exp 3-6) report the *analytic* maximum
sustainable rate ``λ*_q`` computed from sequential stage timings via Lemma 1.
This experiment closes the loop: it runs each method inside the real
:class:`~repro.serving.engine.ServingEngine` — concurrent client threads,
update batches installing on the maintenance worker, stage-aware routing,
distance cache and QoS admission control all live — and reports the
*measured* served QPS and latency quantiles next to the analytic bound.

The two figures are not expected to coincide numerically (the analytic bound
assumes Poisson arrivals and abstracts away lock contention, cache hits and
the GIL), but they must tell the same story: the multi-stage methods sustain
far higher live rates than the baselines that either block queries during
maintenance or pay search-based query costs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import prepare_dataset, prepare_workload
from repro.experiments.build_cache import load_or_build
from repro.registry import spec_from_config
from repro.graph.updates import generate_update_batch, generate_update_stream
from repro.serving.driver import run_mixed_workload
from repro.serving.engine import ServingEngine
from repro.throughput.evaluator import ThroughputEvaluator


def live_serving_rows(
    dataset: str,
    methods: Sequence[str],
    config: ExperimentConfig = DEFAULT_CONFIG,
    duration_seconds: float = 1.5,
    query_threads: int = 2,
    num_batches: int = 2,
    cache_capacity: int = 0,
) -> List[Dict[str, object]]:
    """One row per method: measured serving figures next to the Lemma-1 bound.

    The distance cache is off by default: the sampled workload re-asks the
    same pairs often enough that a warm cache serves >95 % of queries and
    hides the per-method differences this experiment is about.  Pass a
    positive ``cache_capacity`` to measure the cached configuration instead.
    """
    base_graph = prepare_dataset(dataset)
    rows: List[Dict[str, object]] = []
    for method in methods:
        index = load_or_build(spec_from_config(method, config), base_graph)
        graph = index.graph
        workload = prepare_workload(graph, config)

        # Analytic bound first: installs one batch and times its stages.
        evaluator = ThroughputEvaluator(
            update_interval=config.update_interval,
            response_qos=config.response_qos,
            threads=config.threads,
            query_sample_size=config.query_sample_size,
        )
        batch = generate_update_batch(graph, config.update_volume, seed=config.seed)
        analytic = evaluator.evaluate(index, batch, workload)

        # Then the live run on the updated index, with fresh batches drawn
        # against the evolved weights.
        batches = generate_update_stream(
            graph, num_batches, config.update_volume, seed=config.seed + 1
        )
        engine = ServingEngine(
            index,
            response_qos=config.response_qos,
            cache_capacity=cache_capacity,
        )
        with engine:
            report = run_mixed_workload(
                engine,
                list(workload),
                duration_seconds,
                query_threads=query_threads,
                batches=batches,
                seed=config.seed,
            )
        latency = report.stats["latency"]
        cache = report.stats.get("cache", {})
        rows.append(
            {
                "dataset": dataset,
                "method": method,
                "measured_qps": report.measured_qps,
                "analytic_max_throughput": analytic.max_throughput,
                "p50_ms": latency["p50_seconds"] * 1000.0,
                "p95_ms": latency["p95_seconds"] * 1000.0,
                "p99_ms": latency["p99_seconds"] * 1000.0,
                "cache_hit_rate": cache.get("hit_rate", 0.0),
                "shed_fraction": report.shed_fraction,
                "batches_applied": report.batches_applied,
            }
        )
    return rows


def run(config: ExperimentConfig = DEFAULT_CONFIG, quick: bool = False) -> List[Dict[str, object]]:
    """Measured-versus-analytic serving comparison (PostMHL + baselines)."""
    if quick:
        datasets: Sequence[str] = config.quick_datasets[:1]
        methods: Sequence[str] = ("BiDijkstra", "DH2H", "PostMHL")
        duration = 0.6
    else:
        datasets = config.quick_datasets
        methods = ("BiDijkstra", "DH2H", "TOAIN", "PMHL", "PostMHL")
        duration = 1.5
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        rows.extend(
            live_serving_rows(dataset, methods, config, duration_seconds=duration)
        )
    return rows
