"""Frozen query kernels: flat-array stores for the hot query paths.

After a build or update batch completes, each index *freezes* its query-side
state into immutable flat stores (see the per-module docs):

* :class:`~repro.kernels.label_store.LabelStore` — CSR distance/position
  arrays + flattened LCA for H2H-family labels (C scalar and batch queries),
  the labels' own arena wrapped;
* :class:`~repro.kernels.graph_snapshot.GraphSnapshot` — CSR adjacency for
  the index-free stage-1 searches, with a native bidirectional-search /
  one-to-many kernel;
* :class:`~repro.kernels.shortcut_store.ShortcutStore` — materialised upward
  adjacency for CH-style queries, answered natively (scalar + batch) by an
  elimination-tree walk;
* :class:`~repro.kernels.hub_store.HubStore` — flattened hub-label table for
  TOAIN's check-in join.

Every store packs its arrays into one :class:`~repro.kernels.arena.Arena` —
the unified buffer ``repro.store`` serializes as a single payload and
``repro.cluster`` shards mmap-share, and whose views the C kernels borrow
without copying.

Two rungs answer every query: the C kernel of :mod:`repro.kernels.native`
over these stores, and the pure-Python reference implementation.  One rule
joins them — a store exists only when the C kernel is loaded — checked where
stores are frozen (``repro.base.DistanceIndex._kernel`` / ``_graph_snapshot``)
and loaded (``repro.store``); everywhere else a store can assume its capsule.
Without the kernel, or with ``use_kernels=False``, an index answers through
the reference path.  Freezing is lazy (first query after an invalidation)
and keyed to the index's kernel epoch (see
``repro.base.DistanceIndex.invalidate_kernels``), so a store is built at most
once per update epoch per query stage; since updates change weights only,
that refreeze gathers the new values into the previous epoch's layout
(:func:`~repro.kernels.arena.regather`, the C ``gather_rows``) and rebuilds
the layout only when a row no longer fits it.  DCH and the H2H-family
labels need neither: their values live in the store's layout
(:mod:`repro.treedec.slots`, :mod:`repro.labeling.h2h`), and their refreeze
wraps the arena the last update pass wrote.  Every store computes exactly the
reference arithmetic, so results are bit-identical on both rungs.
"""

from repro.kernels.arena import Arena
from repro.kernels.graph_snapshot import GraphSnapshot
from repro.kernels.hub_store import HubStore
from repro.kernels.label_store import LabelStore
from repro.kernels.native import native_kernel, native_kernel_error
from repro.kernels.shortcut_store import ShortcutStore

__all__ = [
    "Arena",
    "GraphSnapshot",
    "HubStore",
    "LabelStore",
    "ShortcutStore",
    "native_kernel",
    "native_kernel_error",
]
