"""Partition-aware query routing across cluster shards.

Every reader maps the *same* stores, so any reader can answer any query —
routing is an affinity policy, not a correctness requirement.  For
partitioned indexes (PMHL, PostMHL, the PSP baselines) the engine reads the
vertex→partition map once from the maintainer (through the
:meth:`repro.base.DistanceIndex.vertex_partition` hook) and pins each
partition to one reader: queries touching the same partition land on the
same process, so its per-partition kernel stores and OS page cache stay
hot.  Unpartitioned indexes (and overlay vertices, which
``vertex_partition`` reports as ``None``) fall back to a deterministic
multiplicative hash, which also keeps the load balanced when the partition
count is small or skewed.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.base import QueryPair

#: Knuth's multiplicative hash constant — spreads consecutive vertex ids.
_MIX = 2654435761


def _stable_hash(value: int) -> int:
    """Deterministic 32-bit mix of a vertex id (Python's ``hash`` is identity
    on small ints, which would route every query of a grid row to one worker)."""
    return ((value & 0xFFFFFFFF) * _MIX) & 0xFFFFFFFF


class ShardRouter:
    """Assign query pairs to workers, partition-aware with hash fallback."""

    def __init__(
        self,
        num_workers: int,
        partition_map: Optional[Mapping[int, int]] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self._partition_map: Dict[int, int] = dict(partition_map or {})

    @property
    def partition_aware(self) -> bool:
        return bool(self._partition_map)

    def worker_for(self, source: int, target: int) -> int:
        """Worker id owning the pair.

        Keyed on the source's partition when known (the batch plane groups
        by source, so all one-to-many fan-out of a source stays on one
        worker), else the target's, else a hash of the source.
        """
        partition = self._partition_map.get(source)
        if partition is None:
            partition = self._partition_map.get(target)
        if partition is not None:
            return _stable_hash(partition) % self.num_workers
        return _stable_hash(source) % self.num_workers

    def split(
        self, pairs: Sequence[QueryPair]
    ) -> Dict[int, List[Tuple[int, QueryPair]]]:
        """Partition ``pairs`` into per-worker sub-batches.

        Returns ``{worker_id: [(original_position, pair), ...]}`` with empty
        workers omitted; positions let the dispatcher reassemble answers in
        input order.
        """
        assignments: Dict[int, List[Tuple[int, QueryPair]]] = {}
        for position, pair in enumerate(pairs):
            worker = self.worker_for(pair[0], pair[1])
            assignments.setdefault(worker, []).append((position, pair))
        return assignments
