"""The distance cache's oracle: the ``OrderedDict`` table the C cache
(``cache_new`` in ``_labelkernel.c``, wrapped by
:class:`repro.serving.cache.EpochDistanceCache`) replaced, with the same
methods, answers, eviction order and :class:`CacheStats` counters, and an
``answer`` that is the serving engine's per-pair batch path over it."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.cache import CacheStats


def _key(source: int, target: int) -> Tuple[int, int]:
    return (source, target) if source <= target else (target, source)


class EpochDistanceCache:
    """LRU cache of (source, target) → distance, keyed by epoch, as an
    ``OrderedDict`` of ``(distance, epoch)`` entries."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, int], Tuple[float, int]]" = OrderedDict()
        self.stats = CacheStats()

    def get(self, source: int, target: int, epoch: int) -> Optional[float]:
        return self.get_many([(source, target)], epoch)[0]

    def put(self, source: int, target: int, distance: float, epoch: int) -> None:
        self.put_many([(source, target)], [distance], epoch)

    def get_many(
        self, pairs: Sequence[Tuple[int, int]], epoch: int
    ) -> List[Optional[float]]:
        """``None`` on a miss, and on a stale-epoch rejection, which drops
        the entry; a hit becomes the most recently used entry."""
        entries = self._entries
        found: List[Optional[float]] = []
        hits = stale = 0
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
        """Pair by pair: insert as the most recently used entry, then evict
        the least recently used one while more than ``capacity`` remain."""
        entries = self._entries
        for (source, target), distance in zip(pairs, distances):
            key = _key(source, target)
            entries[key] = (distance, epoch)
            entries.move_to_end(key)
            if len(entries) > self.capacity:
                entries.popitem(last=False)
                self.stats.evictions += 1

    def answer(
        self,
        pairs: np.ndarray,
        epoch: int,
        compute: Callable[[np.ndarray], np.ndarray],
        out: np.ndarray,
        stages: np.ndarray,
    ) -> int:
        """One ``get_many`` of the pair list, ``compute`` on the misses'
        rows, one ``put_many`` of their answers; ``stages`` 0 for a hit, 1
        for a computed pair.  Returns the hits."""
        pair_list = pairs.tolist()
        found = self.get_many(pair_list, epoch)
        misses = [position for position, hit in enumerate(found) if hit is None]
        if misses:
            answers = compute(pairs[misses]).tolist()
            for position, distance in zip(misses, answers):
                found[position] = distance
            self.put_many([pair_list[position] for position in misses], answers, epoch)
        out[:] = found
        stages[:] = 0
        stages[misses] = 1
        return len(pairs) - len(misses)

    def invalidate_all(self) -> int:
        count = len(self._entries)
        self._entries.clear()
        self.stats.invalidated += count
        return count

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return _key(*pair) in self._entries

    def snapshot(self) -> Dict[str, float]:
        stats = self.stats
        return {"size": len(self._entries), "capacity": self.capacity,
                **asdict(stats), "hit_rate": stats.hit_rate}
