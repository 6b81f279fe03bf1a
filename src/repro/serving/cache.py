"""Epoch-versioned LRU distance cache, cleared once per epoch.

A cached distance is only ever served at the *exact* epoch (update-batch
count) it was computed at — a lookup from a newer epoch is a **stale-epoch
rejection** and drops the entry.  That check is the correctness gate — no
partition footprint can prove a distance unchanged across a batch (a weight
decrease anywhere can open a shorter path between vertices of untouched
partitions) — and it keeps the cache exact whatever lock its caller holds
around :meth:`put`.  Since no entry can be served at a newer epoch, the
engine clears the whole cache (:meth:`invalidate_all`) when it commits one.
See DESIGN.md §5.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple


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


def _key(source: int, target: int) -> Tuple[int, int]:
    return (source, target) if source <= target else (target, source)


class EpochDistanceCache:
    """Thread-safe LRU cache of (source, target) → distance, keyed by epoch.

    A batch probes it with one :meth:`get_many` and fills it with one
    :meth:`put_many`: one lock acquisition and one stats update per call.
    Pairs are handled in order, so a batch leaves the entries, their LRU
    order and the stats as one call per pair would; :meth:`get` and
    :meth:`put` are batches of one.  Entries are ``(distance, epoch)``."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, int], Tuple[float, int]]" = OrderedDict()
        self.stats = CacheStats()

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
        entries = self._entries
        found: List[Optional[float]] = []
        hits = stale = 0
        with self._lock:
            for source, target in pairs:
                key = _key(source, target)
                entry = entries.get(key)
                if entry is None:
                    found.append(None)
                elif entry[1] != epoch:
                    del entries[key]
                    stale += 1
                    found.append(None)
                else:
                    entries.move_to_end(key)
                    hits += 1
                    found.append(entry[0])
            stats = self.stats
            stats.hits += hits
            stats.misses += len(found) - hits
            stats.stale_rejections += stale
        return found

    def put_many(
        self, pairs: Sequence[Tuple[int, int]], distances: Sequence[float], epoch: int
    ) -> None:
        """Insert the distance of every pair, computed at ``epoch``, in order;
        the least recently used entry goes whenever an insert leaves more
        than ``capacity`` entries, pair by pair as :meth:`put` would."""
        entries = self._entries
        capacity = self.capacity
        evictions = 0
        with self._lock:
            for (source, target), distance in zip(pairs, distances):
                key = _key(source, target)
                entries[key] = (distance, epoch)
                entries.move_to_end(key)
                if len(entries) > capacity:
                    entries.popitem(last=False)
                    evictions += 1
            self.stats.evictions += evictions

    # ------------------------------------------------------------------
    def invalidate_all(self) -> int:
        """Drop every entry; returns how many were removed."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self.stats.invalidated += count
            return count

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        with self._lock:
            return _key(*pair) in self._entries

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            stats = self.stats
            return {"size": len(self._entries), "capacity": self.capacity,
                    **asdict(stats), "hit_rate": stats.hit_rate}
