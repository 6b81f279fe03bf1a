"""Boundary-first vertex ordering for PSP indexes.

Section IV-B of the paper shows that a PSP index under the cross-boundary
strategy implicitly requires the *boundary-first property*: inside every
partition the boundary vertices must rank higher than the non-boundary ones,
and the relative order of boundary vertices must be consistent with the
overlay order.  Lemma 3 then proves that *any* order satisfying these
constraints yields the same canonical 2-hop labeling.

This module realises one such order with a tiered minimum-degree elimination:
all non-boundary vertices (tier 0) are contracted before any boundary vertex
(tier 1).  The resulting global order is used directly for the cross-boundary
index and restricted to partition / overlay vertex sets for the partition and
overlay indexes, which keeps all relative orders consistent by construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.graph.graph import Graph
from repro.partitioning.base import Partitioning
from repro.treedec.slots import elimination_order


def boundary_first_tiers(partitioning: Partitioning) -> Dict[int, int]:
    """Tier map realising the boundary-first property (boundary = tier 1)."""
    return dict(zip(partitioning.graph.id_list, partitioning.boundary_mask.astype(int).tolist()))


def boundary_first_order(graph: Graph, partitioning: Partitioning) -> List[int]:
    """Global boundary-first vertex order (ascending importance).

    Non-boundary vertices are ordered first by minimum-degree elimination on
    the full graph, then the boundary vertices, again by minimum degree on the
    remaining (contracted) graph — which doubles as the overlay order.
    """
    return elimination_order(graph, tiers=boundary_first_tiers(partitioning))


def restrict_order(order: Sequence[int], vertices: Iterable[int]) -> List[int]:
    """Restrict a global vertex order to a subset, preserving relative order."""
    order = np.asarray(order, dtype=np.int64)
    return order[np.isin(order, np.fromiter(vertices, np.int64))].tolist()


def rank_of(order: Sequence[int]) -> Dict[int, int]:
    """Rank map of an order (position in the sequence, ascending importance)."""
    return {v: i for i, v in enumerate(order)}
