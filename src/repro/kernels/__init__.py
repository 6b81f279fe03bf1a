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

Every store answers through the C kernel of :mod:`repro.kernels.native`,
which is a dependency: an index build and a snapshot load load it first, and
a machine where it does not compile gets one typed error
(:class:`~repro.exceptions.NativeKernelError`) naming the compile command.
Freezing is lazy (first query after an invalidation)
and keyed to the index's kernel epoch (see
``repro.base.DistanceIndex.invalidate_kernels``), so a store is built at most
once per update epoch per query stage.  Updates change weights only, so
contraction and label values live in their store's layout all along, written
at build by the same pass that maintains them (:mod:`repro.treedec.slots`,
:mod:`repro.labeling.h2h`), and a refreeze wraps the arena the last pass
wrote.  The graph snapshot is keyed to ``graph.version`` instead and
survives an invalidation: a batch's edge refresh
(``repro.base.DistanceIndex._refresh_edges``) patches the batch's weight
slots into a copy of it, and only a snapshot gone stale out of band is
frozen in full again.  Every store computes exactly the arithmetic of its
index's pure-Python reference hooks (``_reference_query``, the test suite's
query oracle), so the two agree bit for bit.
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
