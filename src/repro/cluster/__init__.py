"""repro.cluster — sharded multi-process serving over shared mmap snapshots.

Where :mod:`repro.serving` runs one process whose threads interleave under
the GIL (so measured QPS is capped by Lemma 1's single-core bound), this
package is one maintainer and N reader processes: the maintainer (the
engine's process) applies each update batch to the one mutable index once
and publishes the stores its queries read; the readers load the *same*
mmap-backed snapshot (:mod:`repro.store`) at near-zero incremental RSS, never
mutate it, and each answers a contiguous slice of every query batch from
the published stores on distinct cores — the first configuration that can
honestly beat the analytic single-core bound on wall-clock hardware.

Modules
-------
``engine``      :class:`ClusterEngine` — the ServingEngine-shaped front end:
                the maintainer, the prepare/commit epoch barrier, store
                generations and their retention, admission, stats.
``dispatcher``  reader pool management: scatter/gather, adopt broadcasts,
                liveness, respawn into the newest store generation.
``worker``      the reader process's command loop.

Quickstart::

    from repro.cluster import ClusterEngine

    with ClusterEngine("snapshots/pmhl-ny", num_workers=4) as cluster:
        distances = cluster.query_batch([(0, 143), (7, 2100)])
        cluster.apply_batch(batch)          # applied once; readers flip at commit
        print(cluster.stats()["epoch"], cluster.stats()["store_generation"])

See DESIGN.md §11 for the dispatcher protocol, the epoch barrier, store
generations and the failure model.
"""

from repro.exceptions import ClusterError, ClusterWorkerError
from repro.cluster.dispatcher import DEFAULT_WORKER_TIMEOUT, Dispatcher, WorkerHandle
from repro.cluster.engine import ClusterEngine

__all__ = [
    "ClusterEngine",
    "ClusterError",
    "ClusterWorkerError",
    "DEFAULT_WORKER_TIMEOUT",
    "Dispatcher",
    "WorkerHandle",
]
