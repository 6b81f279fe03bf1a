"""The shortcut pass's Python oracles: a build's elimination and the
maintenance pass, as the C entries compute them.

* :func:`eliminate` — minimum degree elimination over set unions: the order
  (explicit, minimum degree, or tiered minimum degree: every tier-0 vertex
  before any tier-1 vertex, and so on, within a tier by current degree then
  id) and every ``X(v).N``, ascending;
* :func:`supporter_slots` — the supporter CSR derived from those rows;
* :func:`eliminate_slots` / :func:`elimination_order` — drop-ins for the
  seams of :mod:`repro.treedec.slots` and
  :mod:`repro.partitioning.ordering` built from the two above;
* :func:`update_slots` — the bottom-up pass, a drop-in for
  ``repro.treedec.slots.update_slots``, with :func:`check_slot_arrays`, the
  C entry's refusals.

``conftest``'s ``oracle_maintenance`` fixture patches the drop-ins over the
module seams, so a test builds and maintains an index through them and
compares the arenas with the C passes' byte for byte.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graph.graph import Graph
from repro.treedec.slots import check_order

#: Supporter records per numpy step of :func:`supporter_slots`.
RECORD_CHUNK = 1 << 16


def eliminate(
    graph: Graph,
    order: Optional[Sequence[int]] = None,
    tiers: Optional[Dict[int, int]] = None,
) -> Tuple[List[int], List[List[int]]]:
    """Eliminate every vertex of ``graph``: ``(order, rows)``.

    ``order[i]`` is the vertex eliminated in round ``i``; ``rows[i]`` is its
    ``X(v).N``, ascending.  ``graph`` is not modified.

    Parameters
    ----------
    graph:
        Graph to eliminate.
    order:
        Optional explicit elimination order covering every vertex.  When
        omitted the (tiered) minimum-degree heuristic decides the order.
    tiers:
        Optional tier map (default 0) used only when ``order`` is omitted;
        every vertex of a lower tier is eliminated before any vertex of a
        higher tier (this realises the boundary-first property when boundary
        vertices are given a higher tier).  Within a tier the vertex of
        minimum current degree goes first, ties broken by id.
    """
    check_order(graph, order)

    # Working adjacency (the eliminated graph G_i) over row positions, which
    # ascend with the ids: ties by position are ties by id.
    ids = graph.id_list
    work: Dict[int, Set[int]] = dict(enumerate(map(set, graph.neighbor_rows())))
    tier_of = [tiers.get(v, 0) for v in ids] if tiers else [0] * len(ids)
    if order is not None:
        order = [graph.position(v) for v in order]
    else:
        # Lazy-deletion heap keyed by (tier, degree, position).
        heap: List[Tuple[int, int, int]] = [(tier_of[v], len(work[v]), v) for v in work]
        heapq.heapify(heap)

    eliminated: List[int] = []
    rows: List[List[int]] = []
    while len(eliminated) < graph.num_vertices:
        if order is not None:
            v = order[len(eliminated)]
        else:
            while True:
                if not heap:
                    raise GraphError(
                        "contraction heap exhausted before all vertices were contracted"
                    )
                tier, degree, v = heapq.heappop(heap)
                if v in work and degree == len(work[v]):
                    break  # else a stale entry

        nbrs = work.pop(v)
        row = sorted(nbrs)
        # Fill-in: the neighbours become pairwise adjacent, and v leaves.
        for u in row:
            adjacent = work[u]
            adjacent |= nbrs
            adjacent.discard(u)
            adjacent.discard(v)
            if order is None:
                heapq.heappush(heap, (tier_of[u], len(adjacent), u))
        eliminated.append(ids[v])
        rows.append([ids[u] for u in row])
    return eliminated, rows


def eliminate_slots(graph: Graph, order=None, tiers=None):
    """``repro.treedec.slots.eliminate_slots`` (the C ``eliminate`` and
    ``eliminate_slots`` entries): the rows of :func:`eliminate` laid out one
    slot at a time, and :func:`supporter_slots`."""
    order, rows = eliminate(graph, order=order, tiers=tiers)
    n = len(order)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    m, rank = int(indptr[-1]), dict(zip(order, range(n)))
    indices = np.fromiter((rank[u] for row in rows for u in row), np.int64, m)
    owners = np.repeat(np.asarray(order, dtype=np.int64), np.diff(indptr))
    base = graph.weights_of(owners, np.fromiter((u for row in rows for u in row), np.int64, m))
    return (np.asarray(order, dtype=np.int64), indptr, indices, base,
            *supporter_slots(indptr, indices))


def elimination_order(graph: Graph, tiers: Optional[Dict[int, int]] = None) -> List[int]:
    """``repro.treedec.slots.elimination_order``: :func:`eliminate`'s order."""
    return eliminate(graph, tiers=tiers)[0]


def supporter_slots(indptr, indices) -> Tuple[np.ndarray, np.ndarray]:
    """The supporter CSR of a contraction's rows: ``(sup_indptr, sup_slots)``.

    Row ``x`` supports every pair of its slots: for columns ``c < c'`` the
    target is the slot of column ``c'`` in row ``c``, and ``x``'s candidate
    is the sum of its own two slots.  Records are grouped by target slot,
    supporters in ascending row order.  Two numpy passes over chunks of
    ``RECORD_CHUNK`` records, none per record: the first counts each
    target's records, the second places them (a counting sort), so no
    temporary grows with the record count.
    """
    n, m = len(indptr) - 1, int(indptr[-1])
    if m >= 2**31:
        raise ValueError(f"{m} shortcuts overflow the int32 supporter slots")
    counts = np.diff(indptr)
    slot_keys = np.repeat(np.arange(n, dtype=np.int64), counts) * n + indices
    by_key = np.argsort(slot_keys)
    sorted_keys = slot_keys[by_key]
    # The records of slot a pair it with every later slot of its row; they
    # are records begin[a] .. begin[a] + span[a] - 1 in row-major order.
    span = np.repeat(indptr[1:], counts) - np.arange(m) - 1
    begin = np.cumsum(span) - span
    total = int(span.sum())
    cuts = [0, *np.searchsorted(begin, np.arange(RECORD_CHUNK, total, RECORD_CHUNK)).tolist(), m]

    def records(lo: int, hi: int):
        """``(target, low, high)`` of the records whose first slot is in
        ``[lo, hi)``; ``low`` is the supporter slot on the owner's column."""
        first = np.repeat(np.arange(lo, hi), span[lo:hi])
        record = np.arange(len(first)) + (begin[lo] if hi > lo else 0)
        second = first + 1 + record - begin[first]
        swap = indices[first] > indices[second]
        low, high = np.where(swap, second, first), np.where(swap, first, second)
        keys = indices[low] * n + indices[high]
        target = by_key[np.minimum(np.searchsorted(sorted_keys, keys), max(m - 1, 0))]
        if not np.array_equal(slot_keys[target], keys):
            raise ValueError("contraction rows are not closed under fill-in")
        return target, low, high

    chunks = list(zip(cuts[:-1], cuts[1:]))
    per_target = np.zeros(m, dtype=np.int64)
    for lo, hi in chunks:
        per_target += np.bincount(records(lo, hi)[0], minlength=m)
    sup_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(per_target, out=sup_indptr[1:])
    sup_slots = np.empty(2 * int(sup_indptr[-1]), dtype=np.int32)
    cursor = sup_indptr[:-1].copy()
    for lo, hi in chunks:
        target, low, high = records(lo, hi)
        grouped = np.argsort(target, kind="stable")
        target = target[grouped]
        place = cursor[target] + np.arange(len(target)) - np.searchsorted(target, target)
        sup_slots[2 * place] = low[grouped]
        sup_slots[2 * place + 1] = high[grouped]
        cursor += np.bincount(target, minlength=m)
    return sup_indptr, sup_slots


def check_slot_arrays(
    indptr, indices, base, sup_indptr, sup_slots, weights, seeds, mask, escaped, changed, counts,
) -> None:
    """The C ``update_slots`` entry's input checks: ``ValueError`` unless the lengths agree
    (the mask and the escaped rows 0 or ``n``, the changed flags ``m``, the
    counters 3), both offset arrays start at 0 and are monotone, every row's
    columns lie above the row and below ``n``, every supporter slot lies in
    a row below its target slot's row, and every seed is a row."""
    n, m = len(indptr) - 1, len(indices)
    if (
        n < 0 or len(base) != m or len(weights) != m or len(sup_indptr) != m + 1
        or len(sup_slots) % 2 or indptr[0] != 0 or indptr[-1] != m
        or sup_indptr[0] != 0 or sup_indptr[-1] != len(sup_slots) // 2
        or len(mask) not in (0, n) or len(escaped) not in (0, n)
        or len(changed) != m or len(counts) != 3
    ):
        raise ValueError("slot array lengths disagree")
    if (np.diff(indptr) < 0).any():
        raise ValueError("row offsets are not monotone")
    if (np.diff(sup_indptr) < 0).any():
        raise ValueError("supporter offsets are not monotone")
    rows = np.repeat(np.arange(n), np.diff(indptr))
    if ((indices <= rows) | (indices >= n)).any():
        raise ValueError("a slot's column is not a row above its own")
    pairs = sup_slots.reshape(-1, 2)
    floor = np.repeat(indptr[rows], np.diff(sup_indptr))
    if (pairs.min(axis=1, initial=0) < 0).any() or (pairs.max(axis=1, initial=-1) >= floor).any():
        raise ValueError("a supporter slot is not in a row below its target's row")
    if ((seeds < 0) | (seeds >= n)).any():
        raise ValueError("a seed is not a row")


def update_slots(
    indptr, indices, base, sup_indptr, sup_slots, weights, seeds, mask, escaped, changed, counts,
) -> None:
    """``repro.treedec.slots.update_slots`` (the C ``update_slots``), one
    numpy step per dirty row: same writes, same refusals."""
    check_slot_arrays(indptr, indices, base, sup_indptr, sup_slots, weights, seeds, mask,
                      escaped, changed, counts)
    pairs = sup_slots.reshape(-1, 2)
    heap: List[int] = []
    queued = set()

    def mark(row: int) -> None:
        if len(mask) and not mask[row]:
            if len(escaped):
                escaped[row] = 1
        elif row not in queued:
            queued.add(row)
            heapq.heappush(heap, row)

    for row in seeds.tolist():
        mark(row)
    while heap:
        r = heapq.heappop(heap)
        lo, hi = indptr[r : r + 2].tolist()
        value = base[lo:hi].copy()
        first, last = sup_indptr[lo], sup_indptr[hi]
        counts[0] += 1
        counts[1] += last - first
        if last > first:
            owners = np.repeat(np.arange(hi - lo), np.diff(sup_indptr[lo : hi + 1]))
            through = weights[pairs[first:last, 0]] + weights[pairs[first:last, 1]]
            np.minimum.at(value, owners, through)
        moved = value != weights[lo:hi]
        if not moved.any():
            continue
        weights[lo:hi] = value
        changed[lo:hi][moved] = 1
        counts[2] += int(np.count_nonzero(moved))
        # A changed column c marks the owner min(c, w) of each pair (c, w).
        columns = indices[lo:hi]
        top = columns[moved].max()
        for row in columns[columns < top].tolist():
            mark(row)
        if (columns > top).any():
            mark(int(top))
