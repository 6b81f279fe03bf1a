"""Batch edge-weight updates.

The paper adopts a *batch update arrival model*: every ``δt`` seconds a batch
``U`` of edge weight changes arrives (reflecting traffic changes in the last
period) and must be applied to the index before query processing resumes.
This module defines the update representation and the workload generator used
by every experiment: for each selected edge the weight is decreased to
``0.5 × |e|`` or increased to ``2 × |e|`` (following the paper's Section
VII-A, which follows [32], [39]).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

from repro.exceptions import EdgeNotFoundError, GraphError
from repro.graph.graph import Graph, _check_weight


@dataclass(frozen=True)
class EdgeUpdate:
    """A single edge-weight change.

    Attributes
    ----------
    u, v:
        Edge endpoints (order is not significant for undirected graphs).
    old_weight:
        Weight before the update (as observed when the batch was generated).
    new_weight:
        Weight after the update.
    """

    u: int
    v: int
    old_weight: float
    new_weight: float

    @property
    def is_increase(self) -> bool:
        """Return ``True`` if this update increases the edge weight."""
        return self.new_weight > self.old_weight

    @property
    def is_decrease(self) -> bool:
        """Return ``True`` if this update decreases the edge weight."""
        return self.new_weight < self.old_weight

    def key(self) -> Tuple[int, int]:
        """Return the canonical ``(min, max)`` endpoint pair."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass
class UpdateBatch:
    """An ordered batch of edge updates arriving at the same instant."""

    updates: List[EdgeUpdate] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self) -> Iterator[EdgeUpdate]:
        return iter(self.updates)

    def __getitem__(self, index: int) -> EdgeUpdate:
        return self.updates[index]

    @property
    def increases(self) -> List[EdgeUpdate]:
        """Updates that increase edge weights."""
        return [u for u in self.updates if u.is_increase]

    @property
    def decreases(self) -> List[EdgeUpdate]:
        """Updates that decrease edge weights."""
        return [u for u in self.updates if u.is_decrease]

    def apply(self, graph: Graph) -> None:
        """Apply every update in the batch to ``graph`` in place.

        All or nothing: every update is validated (the edge exists, the new
        weight is positive and finite) before the first one is written, so a
        rejected batch raises with ``graph`` untouched.
        """
        for update in self.updates:
            if not graph.has_edge(update.u, update.v):
                raise EdgeNotFoundError(update.u, update.v)
            _check_weight(update.new_weight)
        for update in self.updates:
            graph.set_edge_weight(update.u, update.v, update.new_weight)

    def revert(self, graph: Graph) -> None:
        """Undo the batch on ``graph`` (restore the recorded old weights)."""
        for update in reversed(self.updates):
            graph.set_edge_weight(update.u, update.v, update.old_weight)


def generate_update_batch(
    graph: Graph,
    volume: int,
    seed: int = 0,
    decrease_factor: float = 0.5,
    increase_factor: float = 2.0,
    decrease_fraction: float = 0.5,
) -> UpdateBatch:
    """Generate one random update batch following the paper's protocol.

    ``volume`` distinct edges are selected uniformly at random; each becomes a
    weight decrease to ``decrease_factor × |e|`` with probability
    ``decrease_fraction`` and otherwise an increase to ``increase_factor × |e|``.
    """
    if volume < 0:
        raise GraphError(f"update volume must be non-negative, got {volume}")
    edges = list(graph.edges())
    if volume > len(edges):
        raise GraphError(
            f"cannot select {volume} distinct edges from a graph with {len(edges)} edges"
        )
    rng = random.Random(seed)
    selected = rng.sample(edges, volume)
    updates = []
    for u, v, w in selected:
        if rng.random() < decrease_fraction:
            new_weight = w * decrease_factor
        else:
            new_weight = w * increase_factor
        updates.append(EdgeUpdate(u, v, w, new_weight))
    return UpdateBatch(updates)


def generate_update_stream(
    graph: Graph,
    num_batches: int,
    volume: int,
    seed: int = 0,
    decrease_factor: float = 0.5,
    increase_factor: float = 2.0,
) -> List[UpdateBatch]:
    """Generate a sequence of update batches, each drawn against the evolving graph.

    The graph passed in is *not* modified: a private copy tracks the evolving
    weights so that ``old_weight`` values recorded in later batches reflect the
    earlier batches, exactly as a live system would observe them.
    """
    if num_batches < 0:
        raise GraphError(f"num_batches must be non-negative, got {num_batches}")
    evolving = graph.copy()
    batches = []
    for batch_index in range(num_batches):
        batch = generate_update_batch(
            evolving,
            volume,
            seed=seed + batch_index,
            decrease_factor=decrease_factor,
            increase_factor=increase_factor,
        )
        batch.apply(evolving)
        batches.append(batch)
    return batches


def split_intra_inter(
    batch: UpdateBatch, vertex_partition: Sequence[int]
) -> Tuple[UpdateBatch, UpdateBatch]:
    """Split a batch into intra-partition and inter-partition updates.

    ``vertex_partition[v]`` is the partition id of vertex ``v``.  Updates whose
    endpoints lie in the same partition are *intra* updates (they touch a
    partition index); the rest are *inter* updates (they only touch the
    overlay index).  This mirrors U-Stage 2 of PMHL.
    """
    intra, inter = [], []
    for update in batch:
        if vertex_partition[update.u] == vertex_partition[update.v]:
            intra.append(update)
        else:
            inter.append(update)
    return UpdateBatch(intra), UpdateBatch(inter)
