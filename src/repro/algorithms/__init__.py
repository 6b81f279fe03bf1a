"""Index-free shortest-path algorithms (baselines, ground truth)."""

from repro.algorithms.dijkstra import (
    bidijkstra,
    dijkstra,
    dijkstra_distance,
    dijkstra_path,
)

__all__ = [
    "dijkstra",
    "dijkstra_distance",
    "dijkstra_path",
    "bidijkstra",
]
