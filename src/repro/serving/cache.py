"""Epoch-versioned LRU distance cache, cleared once per epoch.

A cached distance is only ever served at the *exact* epoch (update-batch
count) it was computed at — a lookup from a newer epoch is a **stale-epoch
rejection** and drops the entry.  That check is the correctness gate — no
partition footprint can prove a distance unchanged across a batch (a weight
decrease anywhere can open a shorter path between vertices of untouched
partitions) — and it keeps the cache exact whatever lock its caller holds
around :meth:`~EpochDistanceCache.put`.  Since no entry can be served at a
newer epoch, the engine clears the whole cache
(:meth:`~EpochDistanceCache.invalidate_all`) when it commits one.

The table is the C kernel's (``cache_new`` in ``_labelkernel.c``): a hash
table over an exact LRU list of ``(min id, max id) → (distance, epoch)``
entries, probed and filled a batch per call (:meth:`EpochDistanceCache.answer`).
See DESIGN.md §5.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.arena import pair_ids
from repro.kernels.native import native_kernel


@dataclass
class CacheStats:
    """Hit/miss accounting of one cache instance."""

    hits: int = 0
    misses: int = 0
    stale_rejections: int = 0
    invalidated: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class EpochDistanceCache:
    """Thread-safe LRU cache of (source, target) → distance, keyed by epoch.

    Every read or write of the table is one C call made with the GIL held,
    so concurrent callers see each call whole (:meth:`answer` computes its
    misses between two of them).  Pairs are handled in order, so
    a batch leaves the entries, their LRU order and the stats as one call
    per pair would; :meth:`get` and :meth:`put` are batches of one.  A
    capacity below 1, or past the table's int32 slots (2**30), is a
    ``ValueError``."""

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self.capsule = native_kernel().cache_new(capacity)

    # ------------------------------------------------------------------
    def get(self, source: int, target: int, epoch: int) -> Optional[float]:
        """Cached distance at ``epoch``, or ``None`` on miss/stale rejection."""
        return self.get_many([(source, target)], epoch)[0]

    def put(self, source: int, target: int, distance: float, epoch: int) -> None:
        """Insert a distance computed at ``epoch``."""
        self.put_many([(source, target)], [distance], epoch)

    def get_many(
        self, pairs: Sequence[Tuple[int, int]], epoch: int
    ) -> List[Optional[float]]:
        """The cached distance of every pair at ``epoch``, in order: ``None``
        on a miss, and on a stale-epoch rejection, which drops the entry."""
        ids = pair_ids(pairs)
        out = np.empty(len(ids))
        stages = np.empty(len(ids), dtype=np.uint8)
        native_kernel().cache_probe(self.capsule, ids, epoch, out, stages)
        return [None if miss else d for d, miss in zip(out.tolist(), stages.tolist())]

    def put_many(
        self, pairs: Sequence[Tuple[int, int]], distances: Sequence[float], epoch: int
    ) -> None:
        """Insert the distance of every pair, computed at ``epoch``, in order;
        the least recently used entry goes whenever an insert leaves more
        than ``capacity`` entries, pair by pair as :meth:`put` would."""
        out = np.asarray(distances, dtype=np.float64)
        native_kernel().cache_fill(self.capsule, pair_ids(pairs), out, None, epoch)

    def answer(
        self,
        pairs: np.ndarray,
        epoch: int,
        compute: Callable[[np.ndarray], np.ndarray],
        out: np.ndarray,
        stages: np.ndarray,
    ) -> int:
        """Answer a ``(k, 2)`` pair array at ``epoch`` into ``out``: one probe
        of every pair, ``compute`` on the misses' pair array (their
        ``float64`` distances), one fill with them.  ``stages`` gets 0 for a
        hit and 1 for a computed pair; returns the hits."""
        kernel = native_kernel()
        hits = kernel.cache_probe(self.capsule, pairs, epoch, out, stages)
        if hits < len(pairs):
            computed = stages.view(np.bool_)
            out[computed] = compute(pairs[computed])
            kernel.cache_fill(self.capsule, pairs, out, stages, epoch)
        return hits

    # ------------------------------------------------------------------
    def invalidate_all(self) -> int:
        """Drop every entry; returns how many were removed."""
        return native_kernel().cache_invalidate(self.capsule)

    # ------------------------------------------------------------------
    def _counters(self) -> List[int]:
        """Size, then the :class:`CacheStats` fields in order."""
        out = np.empty(6, dtype=np.int64)
        native_kernel().cache_stats(self.capsule, out)
        return out.tolist()

    @property
    def stats(self) -> CacheStats:
        """The counters as they stand (a copy)."""
        return CacheStats(*self._counters()[1:])

    def __len__(self) -> int:
        return self._counters()[0]

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return native_kernel().cache_contains(self.capsule, *pair)

    def snapshot(self) -> Dict[str, float]:
        size, *counters = self._counters()
        stats = CacheStats(*counters)
        return {"size": size, "capacity": self.capacity,
                **asdict(stats), "hit_rate": stats.hit_rate}
