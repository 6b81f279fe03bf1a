"""Ablation studies for the design choices called out in DESIGN.md.

* **A1 — cross-boundary strategy**: Section IV-A claims that pre-concatenating
  the overlay and partition labels removes the ``O(|B_max|²)`` per-query
  concatenation.  The ablation compares PMHL's Q-Stage-3/4 (concatenation
  based) query time with Q-Stage-5 (cross-boundary) query time.

* **A2 — multi-stage scheme**: Sections V-A/V-B argue that releasing
  intermediate query stages during maintenance raises throughput.  The
  ablation evaluates PostMHL twice with identical measurements: once with its
  full stage timeline and once pretending only the final stage exists (queries
  before the update finishes fall back to BiDijkstra), which is how a
  single-stage index behaves.

* **A3 — vertex-ordering quality (Theorem 1)**: the upper bound of PSP query
  efficiency says a boundary-first order can never beat the canonical labeling
  it induces, and Section VI motivates TD-partitioning by the *quality gap*
  between partition-imposed orders and the plain MDE order.  The ablation
  builds H2H twice on the same network — once with the pure MDE order (what
  PostMHL uses) and once with the partition-imposed boundary-first order (what
  PMHL and the PSP baselines must use) — and compares tree height, label size
  and query time.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

from repro.core.pmhl import PMHLIndex
from repro.core.postmhl import PostMHLIndex
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import prepare_dataset, prepare_workload
from repro.graph.updates import generate_update_batch
from repro.throughput.evaluator import ThroughputEvaluator


def cross_boundary_ablation_rows(
    dataset: str, config: ExperimentConfig = DEFAULT_CONFIG
) -> List[Dict[str, object]]:
    """A1: per-stage query time of PMHL (concatenation vs cross-boundary)."""
    graph = prepare_dataset(dataset)
    index = PMHLIndex(graph, num_partitions=config.partition_number, seed=config.seed)
    index.build()
    workload = prepare_workload(graph, config)
    stage_queries = {
        "no_boundary (concatenation)": index.query_no_boundary,
        "post_boundary (concatenation)": index.query_post_boundary,
        "cross_boundary (2-hop)": index.query_cross_boundary,
    }
    rows: List[Dict[str, object]] = []
    for stage_name, query in stage_queries.items():
        samples = []
        for source, target in list(workload)[: config.query_sample_size]:
            start = time.perf_counter()
            query(source, target)
            samples.append(time.perf_counter() - start)
        rows.append(
            {
                "dataset": dataset,
                "query_stage": stage_name,
                "mean_query_seconds": statistics.fmean(samples),
                "max_boundary": index.partitioning.max_boundary_size(),
            }
        )
    return rows


def multistage_ablation_rows(
    dataset: str, config: ExperimentConfig = DEFAULT_CONFIG
) -> List[Dict[str, object]]:
    """A2: PostMHL throughput with and without the multi-stage scheme."""
    graph = prepare_dataset(dataset)
    index = PostMHLIndex(
        graph,
        bandwidth=config.bandwidth,
        expected_partitions=config.expected_partitions,
    )
    index.build()
    workload = prepare_workload(graph, config)
    evaluator = ThroughputEvaluator(
        update_interval=config.update_interval,
        response_qos=config.response_qos,
        threads=config.threads,
        query_sample_size=config.query_sample_size,
    )
    batch = generate_update_batch(graph, config.update_volume, seed=config.seed)
    report = index.apply_batch(batch)

    with_stages = evaluator.evaluate_from_report(index, report, workload)

    full_catalog = index.stage_catalog()
    single_stage_catalog = (full_catalog[0], full_catalog[-1])
    original = index.stage_catalog
    index.stage_catalog = lambda: single_stage_catalog  # type: ignore[assignment]
    try:
        without_stages = evaluator.evaluate_from_report(index, report, workload)
    finally:
        index.stage_catalog = original  # type: ignore[assignment]

    return [
        {
            "dataset": dataset,
            "variant": "multi-stage (Q1-Q4 released progressively)",
            "throughput": with_stages.max_throughput,
            "update_wall_seconds": with_stages.update_wall_seconds,
        },
        {
            "dataset": dataset,
            "variant": "single-stage (BiDijkstra until full update)",
            "throughput": without_stages.max_throughput,
            "update_wall_seconds": without_stages.update_wall_seconds,
        },
    ]


def ordering_ablation_rows(
    dataset: str, config: ExperimentConfig = DEFAULT_CONFIG
) -> List[Dict[str, object]]:
    """A3: H2H built with the MDE order vs the partition-imposed boundary-first order."""
    from repro.labeling.h2h import H2HIndex
    from repro.partitioning.natural_cut import natural_cut_partition
    from repro.partitioning.ordering import boundary_first_order

    graph = prepare_dataset(dataset)
    workload = prepare_workload(graph, config)
    pairs = list(workload)[: config.query_sample_size]

    partitioning = natural_cut_partition(graph, config.partition_number, seed=config.seed)
    variants = {
        "MDE order (PostMHL / DH2H)": H2HIndex(graph.copy()),
        "boundary-first order (PMHL / PSP baselines)": H2HIndex(
            graph.copy(), order=boundary_first_order(graph, partitioning)
        ),
    }
    rows: List[Dict[str, object]] = []
    for variant, index in variants.items():
        index.build()
        index.query(*pairs[0])  # warm the LCA oracle outside the timed loop
        samples = []
        for source, target in pairs:
            start = time.perf_counter()
            index.query(source, target)
            samples.append(time.perf_counter() - start)
        rows.append(
            {
                "dataset": dataset,
                "vertex_order": variant,
                "tree_height": index.tree_height,
                "treewidth": index.treewidth,
                "label_entries": index.labels.label_entry_count(),
                "mean_query_seconds": statistics.fmean(samples),
            }
        )
    return rows


def run(config: ExperimentConfig = DEFAULT_CONFIG, quick: bool = False) -> List[Dict[str, object]]:
    """Run all three ablations on the quick datasets."""
    datasets = config.quick_datasets if quick else ("NY", "FLA")
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        rows.extend(cross_boundary_ablation_rows(dataset, config))
        rows.extend(multistage_ablation_rows(dataset, config))
        rows.extend(ordering_ablation_rows(dataset, config))
    return rows
