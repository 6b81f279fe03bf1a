"""The query oracle: an index answering through Python structures alone.

Every frozen store computes the arithmetic of a Python routine that still
reads the index's own structures: the index's ``_reference_*`` hooks (the CH
search over the slot arrays, the 2-hop join over the label arrays), a PSP
family's or overlay's ``query``, TOAIN's dict hub join and sub-core CH
search (kept here, since no product path runs them), and
:mod:`repro.algorithms.dijkstra` for the graph snapshot's searches.
:func:`reference_rung` makes an index answer every stage through those, so a
test compares the C answers with the Python ones bit for bit.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.algorithms.dijkstra import bidijkstra, dijkstra_one_to_many
from repro.hierarchy.ch import ch_bidirectional_query

INF = math.inf

#: Instance attributes :func:`reference_rung` sets and :func:`kernel_rung` drops.
_RUNG_ATTRIBUTES = (
    "_kernel", "_graph_snapshot", "_kernel_exports",
    "_hub_store", "_sub_core_store",
    "_family_store", "_overlay_store",
)


class DijkstraSnapshot:
    """The searches of a graph snapshot over the live graph: what
    :class:`~repro.kernels.graph_snapshot.GraphSnapshot` ports to C."""

    def __init__(self, graph):
        self.graph = graph

    def bidijkstra(self, source: int, target: int) -> float:
        return bidijkstra(self.graph, source, target)

    def one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        return dijkstra_one_to_many(self.graph, source, list(targets))


class PairQuery:
    """A store's ``query`` / ``one_to_many`` over a Python ``query(source,
    target)``: a PSP partition's or the overlay's own search, which the
    partition and overlay stores port."""

    def __init__(self, query):
        self.query = query

    def one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        return [self.query(source, target) for target in targets]


class DictHubJoin:
    """TOAIN's core-zone join over its dict labels: what
    :class:`~repro.kernels.hub_store.HubStore` ports (the same minimum over
    the same ``float64`` sums)."""

    def __init__(self, core_labels):
        self.core_labels = core_labels

    def join_pair(self, source: int, target: int) -> float:
        labels_t = self.core_labels[target]
        best = INF
        for hub, d_s in self.core_labels[source].items():
            d_t = labels_t.get(hub)
            if d_t is not None and d_s + d_t < best:
                best = d_s + d_t
        return best

    def join_one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        return [self.join_pair(source, target) for target in targets]


def sub_core_search(index) -> PairQuery:
    """TOAIN's bidirectional CH search restricted to the hierarchy below its
    core: what the ``sub_core`` shortcut store answers.  The filtered
    upward neighbourhoods are memoised for this one search object, which a
    query or a one-to-many batch reads (the values are the same either
    way)."""
    contraction = index.contraction
    rank = contraction.rank
    threshold = index.core_rank_threshold
    memo = {}

    def sub_core(v: int):
        filtered = memo.get(v)
        if filtered is None:
            filtered = memo[v] = {
                u: w for u, w in contraction.upward(v).items() if rank[u] < threshold
            }
        return filtered

    return PairQuery(lambda source, target: ch_bidirectional_query(source, target, sub_core))


def reference_rung(index):
    """``index`` (returned) answering through Python structures from now on:
    no store is frozen, so each stage runs its ``_reference_*`` query, stage
    1 (and BiDijkstra's one-to-many) searches the live graph with
    :mod:`repro.algorithms.dijkstra`, a PSP index's partition and overlay
    stores are their families' ``query`` and TOAIN's stores are
    :class:`DictHubJoin` and :func:`sub_core_search`.  A snapshot saved
    from the rung carries no store.

    The rung reads the index's structures as they stand at each call, so
    it is set before a build or an update as well as after."""
    index._kernel = lambda key, builder: None
    index._graph_snapshot = lambda: DijkstraSnapshot(index.graph)
    index._kernel_exports = dict
    if hasattr(index, "_hub_store"):
        index._hub_store = lambda: DictHubJoin(index.core_labels)
        index._sub_core_store = lambda: sub_core_search(index)
    if hasattr(index, "_family_store"):
        index._family_store = lambda family, pid: PairQuery(
            lambda source, target: family.query(pid, source, target)
        )
        index._overlay_store = lambda: PairQuery(index.overlay.query)
        # The lift matrices are memoised per kernel epoch; drop any read
        # from the overlay store.
        index._lift_memo = (-1, {})
    return index


def kernel_rung(index):
    """Undo :func:`reference_rung`: ``index`` (returned) answers through its
    stores again."""
    for name in _RUNG_ATTRIBUTES:
        vars(index).pop(name, None)
    if hasattr(index, "_lift_memo"):
        index._lift_memo = (-1, {})
    return index
