"""Synthetic road-network generators.

The paper evaluates on eight real road networks (DIMACS USA subsets and
proprietary NavInfo China networks) ranging from 0.26M to 24M vertices.  Those
inputs are not available offline and are far beyond what a pure-Python
reproduction can index within the session budget, so this module provides
*scaled-down synthetic analogs* that preserve the structural properties the
algorithms rely on:

* sparsity (average degree ~2.5-3, like road networks),
* near-planarity and low treewidth (grid-like layout with local shortcuts),
* locally varying edge weights (travel times), and
* a natural planar embedding (coordinates), which the coordinate-based
  partitioner and A* use.

See DESIGN.md §3 for the substitution rationale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graph.graph import Graph


def grid_road_network(
    rows: int,
    cols: int,
    seed: int = 0,
    min_weight: float = 1.0,
    max_weight: float = 10.0,
    removal_probability: float = 0.1,
    diagonal_probability: float = 0.05,
) -> Graph:
    """Generate an imperfect grid road network.

    Starts from a ``rows x cols`` lattice with uniformly random travel-time
    weights, removes a fraction of edges (keeping the graph connected) to
    mimic irregular street layouts, and adds a few diagonal "shortcut" streets.

    Parameters
    ----------
    rows, cols:
        Grid dimensions; the generated graph has ``rows * cols`` vertices.
    seed:
        Seed for the deterministic pseudo-random generator.
    min_weight, max_weight:
        Edge weights are drawn uniformly from this range.
    removal_probability:
        Probability that a lattice edge is removed (skipped when removal would
        disconnect the graph).
    diagonal_probability:
        Probability that a diagonal edge is added inside a grid cell.
    """
    if rows < 1 or cols < 1:
        raise GraphError(f"grid dimensions must be positive, got {rows}x{cols}")
    rng = random.Random(seed)
    n = rows * cols
    # ``rng.uniform(lo, hi)`` is ``lo + (hi - lo) * rng.random()``: spelled
    # out, the same draws without a method call per edge.
    draw, span = rng.random, max_weight - min_weight

    candidate_edges: List[Tuple[int, int]] = []
    for v in range(n):
        if (v + 1) % cols:
            candidate_edges.append((v, v + 1))
        if v + cols < n:
            candidate_edges.append((v, v + cols))

    # The live edges in insertion order (a re-inserted edge moves to the
    # end, which is where the builder then lists it in both rows), plus
    # each vertex's neighbour set for the removal's degree and reach tests.
    live: Dict[Tuple[int, int], float] = {
        edge: min_weight + span * draw() for edge in candidate_edges
    }
    adjacent: List[set] = [set() for _ in range(n)]
    for u, v in candidate_edges:
        adjacent[u].add(v)
        adjacent[v].add(u)

    # Remove a fraction of edges while preserving connectivity.
    removable = list(candidate_edges)
    rng.shuffle(removable)
    target_removals = int(removal_probability * len(removable))
    removed = 0
    for u, v in removable:
        if removed >= target_removals:
            break
        if len(adjacent[u]) <= 1 or len(adjacent[v]) <= 1:
            continue
        weight = live.pop((u, v))
        adjacent[u].discard(v)
        adjacent[v].discard(u)
        if _still_connected_locally(adjacent, u, v):
            removed += 1
        else:
            live[(u, v)] = weight
            adjacent[u].add(v)
            adjacent[v].add(u)

    # Add diagonal shortcut streets.
    for r in range(rows - 1):
        for v in range(r * cols, r * cols + cols - 1):
            if draw() < diagonal_probability:
                live[(v, v + cols + 1)] = (min_weight + span * draw()) * math.sqrt(2)

    row, col = np.divmod(np.arange(n), cols)
    return _from_pairs(live, range(n), np.stack([col, row], axis=1))


def _from_pairs(edges: Dict[Tuple[int, int], float], vertices, coords=None) -> Graph:
    """:meth:`Graph.from_edges` over an insertion-ordered ``{(u, v): weight}``."""
    us, vs = zip(*edges) if edges else ((), ())
    return Graph.from_edges(us, vs, list(edges.values()), vertices=vertices, coords=coords)


def _still_connected_locally(
    adjacent: List[set], u: int, v: int, hop_limit: int = 64
) -> bool:
    """Check whether ``u`` can still reach ``v`` within a bounded BFS.

    A bounded search keeps the generator fast; if the bound is exceeded the
    edge removal is rolled back conservatively.
    """
    if u == v:
        return True
    frontier = [u]
    seen = {u}
    for _ in range(hop_limit):
        next_frontier = []
        for x in frontier:
            for y in adjacent[x]:
                if y == v:
                    return True
                if y not in seen:
                    seen.add(y)
                    next_frontier.append(y)
        if not next_frontier:
            return False
        frontier = next_frontier
    return False


def random_connected_graph(
    num_vertices: int,
    extra_edges: int,
    seed: int = 0,
    min_weight: float = 1.0,
    max_weight: float = 10.0,
) -> Graph:
    """Generate a small random connected graph (random tree plus extra edges).

    Used by the property-based tests: not road-like, but exercises every code
    path of the indexes on adversarially irregular topologies.
    """
    if num_vertices < 1:
        raise GraphError("num_vertices must be at least 1")
    rng = random.Random(seed)
    edges: Dict[Tuple[int, int], float] = {}
    order = list(range(num_vertices))
    rng.shuffle(order)
    for i in range(1, num_vertices):
        u = order[i]
        v = order[rng.randrange(i)]
        edges[(u, v)] = rng.uniform(min_weight, max_weight)
    attempts = 0
    added = 0
    while added < extra_edges and attempts < extra_edges * 10:
        attempts += 1
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v or (u, v) in edges or (v, u) in edges:
            continue
        edges[(u, v)] = rng.uniform(min_weight, max_weight)
        added += 1
    return _from_pairs(edges, range(num_vertices))


def highway_network(
    clusters: int,
    cluster_size: int,
    seed: int = 0,
    min_weight: float = 1.0,
    max_weight: float = 10.0,
    highway_factor: float = 0.5,
) -> Graph:
    """Generate a multi-city network: dense city grids joined by fast highways.

    This mimics the paper's motivation of cross-province long-range queries:
    same-partition queries stay inside a city cluster while cross-partition
    queries must traverse highway edges between clusters.
    """
    if clusters < 1 or cluster_size < 1:
        raise GraphError("clusters and cluster_size must be positive")
    rng = random.Random(seed)
    side = max(2, int(math.sqrt(cluster_size)))
    edges: Dict[Tuple[int, int], float] = {}
    coords: List[Tuple[float, float]] = []
    cluster_vertices: List[List[int]] = []
    offset = 0
    grid_cols = int(math.ceil(math.sqrt(clusters)))
    for cluster_index in range(clusters):
        city = grid_road_network(
            side,
            side,
            seed=seed + cluster_index + 1,
            min_weight=min_weight,
            max_weight=max_weight,
        )
        base_x = (cluster_index % grid_cols) * (side * 3)
        base_y = (cluster_index // grid_cols) * (side * 3)
        coords.extend((base_x + x, base_y + y) for x, y in city.coords.tolist())
        for u, v, w in city.edges():
            edges[(offset + u, offset + v)] = w
        cluster_vertices.append(list(range(offset, offset + city.num_vertices)))
        offset += city.num_vertices

    # Highways: connect each cluster to the next in a ring plus a few chords.
    def highway(i: int, j: int) -> None:
        u = rng.choice(cluster_vertices[i])
        v = rng.choice(cluster_vertices[j])
        if u != v and (u, v) not in edges and (v, u) not in edges:
            edges[(u, v)] = rng.uniform(min_weight, max_weight) * highway_factor * side

    for i in range(clusters):
        if clusters == 1:
            break
        highway(i, (i + 1) % clusters)
    for _ in range(max(0, clusters - 2)):
        highway(*rng.sample(range(clusters), 2))
    return _from_pairs(edges, range(offset), coords)


@dataclass(frozen=True)
class DatasetSpec:
    """Specification of a synthetic analog of one of the paper's datasets."""

    name: str
    paper_name: str
    paper_vertices: int
    paper_edges: int
    rows: int
    cols: int
    seed: int
    default_k: int
    default_ke: int
    default_tau: int

    @property
    def num_vertices(self) -> int:
        return self.rows * self.cols

    def build(self) -> Graph:
        """Build the synthetic analog network."""
        return grid_road_network(self.rows, self.cols, seed=self.seed)


#: Scaled-down analogs of Table I.  Sizes keep the same *ordering* as the paper
#: (NY smallest ... USA largest) so size-dependent trends remain visible, while
#: staying small enough for pure-Python index construction.
DATASET_SPECS: Dict[str, DatasetSpec] = {
    "NY": DatasetSpec("NY", "New York City", 264_346, 730_100, 20, 20, 101, 8, 32, 12),
    "GD": DatasetSpec("GD", "Guangdong", 938_957, 2_452_156, 25, 28, 102, 8, 32, 12),
    "FLA": DatasetSpec("FLA", "Florida", 1_070_376, 2_687_902, 28, 30, 103, 8, 32, 12),
    "SC": DatasetSpec("SC", "South China", 1_326_091, 3_388_770, 30, 32, 104, 16, 64, 16),
    "EC": DatasetSpec("EC", "East China", 3_008_173, 7_793_146, 34, 36, 105, 16, 32, 16),
    "W": DatasetSpec("W", "Western USA", 6_262_104, 15_119_284, 38, 40, 106, 16, 32, 20),
    "CTR": DatasetSpec("CTR", "Central USA", 14_081_816, 33_866_826, 44, 46, 107, 16, 64, 24),
    "USA": DatasetSpec("USA", "Full USA", 23_947_347, 57_708_624, 50, 52, 108, 16, 64, 24),
}


def load_dataset(name: str) -> Graph:
    """Build the synthetic analog of one of the paper's datasets by name."""
    try:
        spec = DATASET_SPECS[name.upper()]
    except KeyError as exc:
        known = ", ".join(sorted(DATASET_SPECS))
        raise GraphError(f"unknown dataset {name!r}; known datasets: {known}") from exc
    return spec.build()


def dataset_names(small_only: bool = False) -> List[str]:
    """Return the dataset analog names in the paper's (size) order."""
    names = ["NY", "GD", "FLA", "SC", "EC", "W", "CTR", "USA"]
    if small_only:
        return names[:4]
    return names
