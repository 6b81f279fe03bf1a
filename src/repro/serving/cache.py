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
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


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


@dataclass
class _Entry:
    distance: float
    epoch: int


class EpochDistanceCache:
    """Thread-safe LRU cache of (source, target) → distance, keyed by epoch."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, int], _Entry]" = OrderedDict()
        self.stats = CacheStats()

    @staticmethod
    def _key(source: int, target: int) -> Tuple[int, int]:
        return (source, target) if source <= target else (target, source)

    # ------------------------------------------------------------------
    def get(self, source: int, target: int, epoch: int) -> Optional[float]:
        """Cached distance at ``epoch``, or ``None`` on miss/stale rejection."""
        key = self._key(source, target)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry.epoch != epoch:
                del self._entries[key]
                self.stats.stale_rejections += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.distance

    def put(self, source: int, target: int, distance: float, epoch: int) -> None:
        """Insert a distance computed at ``epoch``."""
        key = self._key(source, target)
        with self._lock:
            self._entries[key] = _Entry(distance, epoch)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

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
            return self._key(*pair) in self._entries

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "stale_rejections": self.stats.stale_rejections,
                "invalidated": self.stats.invalidated,
                "evictions": self.stats.evictions,
                "hit_rate": self.stats.hit_rate,
            }
