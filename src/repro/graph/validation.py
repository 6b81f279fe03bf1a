"""Structural validation helpers for road-network graphs.

Index construction assumes a connected graph with strictly positive finite
weights; these helpers let callers (and the test-suite) assert those
preconditions explicitly instead of failing deep inside an index build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.exceptions import DisconnectedGraphError, GraphError
from repro.graph.graph import Graph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a graph (used in Table I style reports)."""

    num_vertices: int
    num_edges: int
    min_degree: int
    max_degree: int
    avg_degree: float
    min_weight: float
    max_weight: float
    num_components: int

    @property
    def is_connected(self) -> bool:
        return self.num_components <= 1


def graph_stats(graph: Graph) -> GraphStats:
    """Compute summary statistics of ``graph``."""
    degrees = np.diff(graph.indptr)
    weights = graph.weights
    return GraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        min_degree=int(degrees.min()) if len(degrees) else 0,
        max_degree=int(degrees.max()) if len(degrees) else 0,
        avg_degree=(2.0 * graph.num_edges / graph.num_vertices) if graph.num_vertices else 0.0,
        min_weight=float(weights.min()) if len(weights) else 0.0,
        max_weight=float(weights.max()) if len(weights) else 0.0,
        num_components=len(graph.connected_components()),
    )


def validate_graph(graph: Graph, require_connected: bool = True) -> List[str]:
    """Validate a graph for index construction.

    Returns a list of problems found (empty when the graph is valid) and
    raises for conditions that would make any index build meaningless.
    """
    problems: List[str] = []
    if graph.num_vertices == 0:
        raise GraphError("graph has no vertices")
    isolated = graph.ids[np.diff(graph.indptr) == 0].tolist()
    if isolated:
        problems.append(f"{len(isolated)} isolated vertices (e.g. {isolated[:5]})")
    if require_connected and not graph.is_connected():
        raise DisconnectedGraphError(
            f"graph has {len(graph.connected_components())} connected components"
        )
    return problems


def assert_valid(graph: Graph, require_connected: bool = True) -> None:
    """Raise :class:`GraphError` if ``validate_graph`` reports any problem."""
    problems = validate_graph(graph, require_connected=require_connected)
    if problems:
        raise GraphError("; ".join(problems))
