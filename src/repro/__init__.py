"""repro — reproduction of "High Throughput Shortest Distance Query Processing
on Large Dynamic Road Networks" (ICDE 2025).

The package provides, in Python over one small C kernel compiled on first
use (:mod:`repro.kernels.native`):

* a road-network graph substrate with synthetic dataset generators
  (:mod:`repro.graph`),
* classic shortest-path algorithms and dynamic indexes — Dijkstra/BiDijkstra,
  CH/DCH, H2H/DH2H, MHL (:mod:`repro.algorithms`, :mod:`repro.hierarchy`,
  :mod:`repro.labeling`),
* graph partitioning including the paper's TD-partitioning
  (:mod:`repro.partitioning`),
* the Partitioned Shortest Path framework with the no-/post-boundary
  strategies and the N-CH-P / P-TD-P baselines (:mod:`repro.psp`),
* the paper's contributions: the cross-boundary strategy, PMHL and PostMHL
  (:mod:`repro.core`),
* a throughput-evaluation substrate with the paper's Lemma-1 bound, a queue
  simulator and a simulated-parallelism cost model (:mod:`repro.throughput`),
* a live concurrent query-serving engine — epoch-consistent snapshots,
  stage-aware routing, distance caching, QoS admission control and a
  single-epoch batch endpoint (:mod:`repro.serving`),
* a typed method registry: per-method :class:`~repro.registry.IndexSpec`
  dataclasses and the :func:`~repro.registry.create_index` factory
  (:mod:`repro.registry`),
* versioned index persistence: schema-versioned snapshots with mmap-backed
  payloads, :func:`~repro.store.save_index` / :func:`~repro.store.load_index`
  and warm-start serving (:mod:`repro.store`),
* experiment drivers regenerating every table and figure of the evaluation
  (:mod:`repro.experiments`).

Quickstart::

    from repro import create_index, grid_road_network, generate_update_batch

    graph = grid_road_network(20, 20, seed=7)
    index = create_index("PostMHL", graph, bandwidth=12, expected_partitions=8)
    index.build()
    print(index.query(0, 399))

    batch = generate_update_batch(graph, volume=50, seed=1)
    index.apply_batch(batch)
    print(index.query_many([(0, 399), (0, 200), (37, 311)]))
"""

from repro.base import DistanceIndex, QueryStage, StageTiming, UpdateReport
from repro.baselines.bidijkstra_index import BiDijkstraIndex
from repro.baselines.toain import TOAINIndex
from repro.core.pmhl import PMHLIndex
from repro.core.postmhl import PostMHLIndex
from repro.exceptions import (
    EngineStoppedError,
    GraphError,
    IndexNotBuiltError,
    NativeKernelError,
    PartitioningError,
    QueryRejectedError,
    ReproError,
    ServingError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotGraphMismatchError,
    SnapshotUnsupportedError,
    SnapshotVersionError,
    WorkloadError,
)
from repro.graph.generators import (
    DATASET_SPECS,
    dataset_names,
    grid_road_network,
    highway_network,
    load_dataset,
    random_connected_graph,
)
from repro.graph.graph import Graph
from repro.graph.updates import (
    EdgeUpdate,
    UpdateBatch,
    generate_update_batch,
    generate_update_stream,
)
from repro.hierarchy.ch import CHIndex, DCHIndex
from repro.labeling.h2h import DH2HIndex, H2HIndex
from repro.labeling.mhl import MHLIndex
from repro.partitioning.natural_cut import natural_cut_partition
from repro.partitioning.td_partition import td_partition
from repro.psp.no_boundary import NCHPIndex, NoBoundaryPSPIndex
from repro.psp.post_boundary import PostBoundaryPSPIndex, PTDPIndex
from repro.registry import (
    PAPER_METHODS,
    IndexSpec,
    create_index,
    get_spec,
    registered_methods,
    spec_from_config,
)
from repro.registry import load_index, save_index
from repro.serving.admission import AdmissionController
from repro.serving.cache import EpochDistanceCache
from repro.serving.core import QueryResult
from repro.serving.driver import MixedWorkloadReport, run_mixed_workload
from repro.serving.engine import ServingEngine
from repro.serving.metrics import ServingMetrics
from repro.serving.router import StageRouter
from repro.throughput.evaluator import ThroughputEvaluator, ThroughputResult
from repro.throughput.workload import sample_query_pairs

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Base interfaces
    "DistanceIndex",
    "QueryStage",
    "StageTiming",
    "UpdateReport",
    # Exceptions
    "ReproError",
    "GraphError",
    "IndexNotBuiltError",
    "NativeKernelError",
    "PartitioningError",
    "WorkloadError",
    "ServingError",
    "QueryRejectedError",
    "EngineStoppedError",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotVersionError",
    "SnapshotGraphMismatchError",
    "SnapshotUnsupportedError",
    # Graph substrate
    "Graph",
    "grid_road_network",
    "highway_network",
    "random_connected_graph",
    "load_dataset",
    "dataset_names",
    "DATASET_SPECS",
    "EdgeUpdate",
    "UpdateBatch",
    "generate_update_batch",
    "generate_update_stream",
    # Indexes
    "CHIndex",
    "DCHIndex",
    "H2HIndex",
    "DH2HIndex",
    "MHLIndex",
    "BiDijkstraIndex",
    "TOAINIndex",
    "NoBoundaryPSPIndex",
    "NCHPIndex",
    "PostBoundaryPSPIndex",
    "PTDPIndex",
    "PMHLIndex",
    "PostMHLIndex",
    # Typed registry / factory
    "IndexSpec",
    "create_index",
    "get_spec",
    "spec_from_config",
    "registered_methods",
    "PAPER_METHODS",
    # Persistence
    "save_index",
    "load_index",
    # Partitioning
    "natural_cut_partition",
    "td_partition",
    # Throughput
    "ThroughputEvaluator",
    "ThroughputResult",
    "sample_query_pairs",
    # Serving
    "ServingEngine",
    "QueryResult",
    "StageRouter",
    "EpochDistanceCache",
    "AdmissionController",
    "ServingMetrics",
    "MixedWorkloadReport",
    "run_mixed_workload",
]
