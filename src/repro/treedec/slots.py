"""A contraction's shortcuts as flat arrays, maintained bottom-up in one pass.

The paper's updates change edge weights only, so a contraction's topology —
its order, every ``X(v).N`` and every supporter record — survives every
epoch, and only the shortcut values move.  :class:`SlotContraction` keeps
that split (the topology/weights split of Customizable CH, Dibbelt,
Strasser, Wagner, JEA 2016).  Rows are vertices in contraction order; a
*slot* is one shortcut ``(v, u)``, ``u`` in ``X(v).N``:

* ``arena`` — ``ids`` / ``indptr`` / ``indices`` / ``weights``, the exact
  layout of :class:`~repro.kernels.shortcut_store.ShortcutStore` (columns
  are rows; a row's slots in ascending neighbour id, the dict order of
  :func:`~repro.treedec.mde.contract_graph`).  The epoch's store is this
  arena: no gather, no template;
* ``base`` — each slot's graph weight (``inf`` for a fill-in shortcut),
  patched from each batch's updates in order;
* ``sup_indptr`` / ``sup_slots`` — a CSR over slots of ``int32`` slot pairs
  ``(slot(x, v), slot(x, u))``: one per lower row ``x`` whose contraction
  supports ``(v, u)``.  Every pair of ``X(x).N`` is supported by ``x``, so
  the records are derived from the rows (:func:`supporter_slots`) and the
  contraction never builds the supporter dict.

:func:`update_slots` is the whole maintenance pass over these arrays: the C
kernel's ``update_slots`` when it is loaded, :func:`_update_slots_pure`
otherwise.  Both compute the float64 sums and minima of
:func:`~repro.treedec.mde.update_shortcuts_bottom_up`, so the weights are
bit-identical to the dict path and to a fresh contraction of the updated
graph.  The pass writes a copy of the epoch's buffer, which becomes the next
epoch's arena: a store over an earlier arena is never written.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate
from repro.kernels.arena import Arena, build_remap, count_freeze
from repro.kernels.native import native_kernel
from repro.kernels.shortcut_store import ShortcutStore
from repro.treedec.mde import contract_graph

INF = math.inf

#: Supporter records per numpy step of :func:`supporter_slots`.
RECORD_CHUNK = 1 << 16


class SlotContraction:
    """Flat shortcut arrays of one contraction (see the module docstring)."""

    __slots__ = ("arena", "base", "sup_indptr", "sup_slots", "order", "rank", "remap",
                 "_layout")

    def __init__(self, arena: Arena, base, sup_indptr, sup_slots):
        self.arena = arena
        self.base = base
        self.sup_indptr = sup_indptr
        self.sup_slots = sup_slots
        ids = arena["ids"]
        #: Vertices in contraction order, and each vertex's row.
        self.order = ids.tolist()
        self.rank: Dict[int, int] = dict(zip(self.order, range(len(self.order))))
        self.remap = build_remap(ids)
        #: The freeze counter's ``layout`` label of this arena's store.
        self._layout = "built"

    @classmethod
    def build(
        cls,
        graph: Graph,
        order: Optional[Sequence[int]] = None,
        tiers: Optional[Dict[int, int]] = None,
    ) -> "SlotContraction":
        """Contract ``graph`` (see :func:`~repro.treedec.mde.contract_graph`)
        and lay the result out flat; the supporters come from the rows."""
        result = contract_graph(graph, order=order, tiers=tiers, record_supporters=False)
        rows = [result.neighbors[v] for v in result.order]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        m, rank, shortcuts = int(indptr[-1]), result.rank, result.shortcuts
        indices = np.fromiter((rank[u] for row in rows for u in row), np.int64, m)
        weights = np.fromiter(
            (shortcuts[v][u] for v, row in zip(result.order, rows) for u in row), np.float64, m
        )
        base = np.fromiter(
            (graph.neighbors(v).get(u, INF) for v, row in zip(result.order, rows) for u in row),
            np.float64, m,
        )
        arena = Arena.pack(
            {
                "ids": np.asarray(result.order, dtype=np.int64),
                "indptr": indptr,
                "indices": indices,
                "weights": weights,
            }
        )
        return cls(arena, base, *supporter_slots(indptr, indices))

    # ------------------------------------------------------------------
    def shortcut_count(self) -> int:
        return len(self.arena["indices"])

    def upward(self, v: int) -> Dict[int, float]:
        """``v``'s shortcuts this epoch, ``{higher neighbour: weight}``, in
        slot order (the pure CH search's upward mapping)."""
        r, arena, order = self.rank[v], self.arena, self.order
        lo, hi = arena["indptr"][r : r + 2].tolist()
        return dict(
            zip(
                [order[c] for c in arena["indices"][lo:hi].tolist()],
                arena["weights"][lo:hi].tolist(),
            )
        )

    def slot(self, u: int, v: int) -> Optional[Tuple[int, int]]:
        """``(owner row, slot)`` of the shortcut between ``u`` and ``v``, or
        ``None`` when the contraction has no such shortcut."""
        ru, rv = self.rank.get(u), self.rank.get(v)
        if ru is None or rv is None or ru == rv:
            return None
        low, high, arena = min(ru, rv), max(ru, rv), self.arena
        lo, hi = arena["indptr"][low : low + 2].tolist()
        hit = np.flatnonzero(arena["indices"][lo:hi] == high)
        return (low, lo + int(hit[0])) if hit.size else None

    def update(self, updates: Iterable[EdgeUpdate]) -> None:
        """Install ``updates`` and recompute what they affect into the next
        epoch's arena.

        ``base`` is patched in update order, so an edge named twice ends at
        its last weight, as the graph does.  The owner rows of the updated
        edges seed :func:`update_slots`, which writes a copy of this epoch's
        buffer; the copy then becomes :attr:`arena`.
        """
        seeds = []
        for update in updates:
            found = self.slot(update.u, update.v)
            if found is not None:
                seeds.append(found[0])
                self.base[found[1]] = update.new_weight
        if not seeds:
            return
        arena = Arena(self.arena.buffer.copy(), self.arena.toc)
        update_slots(
            arena["indptr"], arena["indices"], self.base, self.sup_indptr, self.sup_slots,
            arena["weights"], np.asarray(seeds, dtype=np.int64),
        )
        self.arena = arena
        self._layout = "reused"

    def share_rows(self, store: ShortcutStore) -> None:
        """Use ``store``'s row dict and remap from now on when it froze the
        same ids (a store loaded or adopted next to this contraction)."""
        if np.array_equal(store.arena["ids"], self.arena["ids"]):
            self.rank, self.remap = store.row, store._remap

    def store(self) -> ShortcutStore:
        """This epoch's frozen store: the arena itself, which no pass writes
        again, sharing this contraction's row dict and remap."""
        count_freeze("shortcut_store", self._layout)
        return ShortcutStore(self.arena, rows=(self.rank, self.remap))

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        """The arena, ``base`` and the supporter CSR, as written."""
        state = self.arena.to_state(io)
        state["base"] = io.put_array(self.base)
        state["sup_indptr"] = io.put_array(self.sup_indptr)
        state["sup_slots"] = io.put_array(self.sup_slots)
        return state

    @classmethod
    def from_state(cls, state: Dict[str, object], io) -> "SlotContraction":
        """Reattach the arrays (``base`` is copied: updates patch it).  Only
        the dtype is checked here: every pass checks the rest before it
        reads (:func:`check_slot_arrays`, or the C kernel's own checks),
        and the store's build checks what the query reads."""
        sup_slots = io.get_array(state["sup_slots"])
        if sup_slots.dtype != np.int32:
            raise ValueError("supporter slots must be int32")
        return cls(
            Arena.from_state(state, io),
            np.array(io.get_array(state["base"]), dtype=np.float64),
            io.get_array(state["sup_indptr"]),
            sup_slots,
        )


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


def check_slot_arrays(indptr, indices, base, sup_indptr, sup_slots, weights, seeds=()) -> None:
    """The C pass's input checks: ``ValueError`` unless the lengths agree,
    both offset arrays start at 0 and are monotone, every row's columns lie
    above the row and below ``n``, every supporter slot lies in a row below
    its target slot's row, and every seed is a row."""
    n, m = len(indptr) - 1, len(indices)
    if (
        n < 0 or len(base) != m or len(weights) != m or len(sup_indptr) != m + 1
        or len(sup_slots) % 2 or indptr[0] != 0 or indptr[-1] != m
        or sup_indptr[0] != 0 or sup_indptr[-1] != len(sup_slots) // 2
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
    if (pairs.min(axis=1) < 0).any() or (pairs.max(axis=1) >= floor).any():
        raise ValueError("a supporter slot is not in a row below its target's row")
    seeds = np.asarray(seeds, dtype=np.int64)
    if ((seeds < 0) | (seeds >= n)).any():
        raise ValueError("a seed is not a row")


def update_slots(indptr, indices, base, sup_indptr, sup_slots, weights, seeds) -> None:
    """The bottom-up pass from the ``seeds`` rows, writing only ``weights``:
    the C kernel's ``update_slots`` when it is loaded (its comment has the
    algorithm), else the pure loop."""
    kernel = native_kernel()
    if kernel is not None:
        kernel.update_slots(indptr, indices, base, sup_indptr, sup_slots, weights, seeds)
    else:
        _update_slots_pure(indptr, indices, base, sup_indptr, sup_slots, weights, seeds)


def _update_slots_pure(indptr, indices, base, sup_indptr, sup_slots, weights, seeds) -> None:
    """The C pass, one numpy step per dirty row (the rung without a compiler)."""
    check_slot_arrays(indptr, indices, base, sup_indptr, sup_slots, weights, seeds)
    pairs = sup_slots.reshape(-1, 2)
    heap = sorted(set(np.asarray(seeds).tolist()))
    queued = set(heap)
    while heap:
        r = heapq.heappop(heap)
        lo, hi = indptr[r : r + 2].tolist()
        value = base[lo:hi].copy()
        first, last = sup_indptr[lo], sup_indptr[hi]
        if last > first:
            owners = np.repeat(np.arange(hi - lo), np.diff(sup_indptr[lo : hi + 1]))
            through = weights[pairs[first:last, 0]] + weights[pairs[first:last, 1]]
            np.minimum.at(value, owners, through)
        moved = value != weights[lo:hi]
        if not moved.any():
            continue
        weights[lo:hi] = value
        # A changed column c marks the owner min(c, w) of each pair (c, w).
        columns = indices[lo:hi]
        top = columns[moved].max()
        marks = columns[columns < top].tolist()
        if (columns > top).any():
            marks.append(int(top))
        for row in marks:
            if row not in queued:
                queued.add(row)
                heapq.heappush(heap, row)
