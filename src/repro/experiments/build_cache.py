"""Snapshot-backed build cache for the experiment drivers and benchmarks.

Every experiment measures each method on a *freshly built* index, and most
experiments revisit the same (method, dataset, parameters) combination across
parameter grids and reruns — paying the full construction cost every time.
The build cache short-circuits that with :mod:`repro.store` snapshots: the
first build of a combination is saved under a key derived from the method,
its spec parameters and the exact graph fingerprint; later runs load the
snapshot (a fresh, isolated index + graph each time, so update measurements
cannot contaminate one another) instead of rebuilding.

The cache is opt-in: set the ``REPRO_BUILD_CACHE`` environment variable (or
pass ``--cache-dir`` to ``python -m repro.experiments``) to a directory.
Without it, :func:`load_or_build` builds exactly as before.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from typing import Optional

from repro.base import DistanceIndex
from repro.exceptions import SnapshotError
from repro.graph.graph import Graph
from repro.registry import IndexSpec, create_index

#: Environment variable naming the cache directory (empty/unset = disabled).
CACHE_ENV = "REPRO_BUILD_CACHE"

_override_dir: Optional[str] = None


def set_cache_dir(path: Optional[str]) -> None:
    """Set (or clear, with ``None``) the process-wide cache directory."""
    global _override_dir
    _override_dir = path


def cache_dir() -> Optional[str]:
    """The active cache directory, or ``None`` when caching is disabled."""
    if _override_dir is not None:
        return _override_dir
    return os.environ.get(CACHE_ENV) or None


def cache_key(spec: IndexSpec, graph: Graph) -> str:
    """Deterministic snapshot key: method + spec parameters + graph state."""
    from repro.store import graph_fingerprint

    params = ",".join(
        f"{field}={value!r}"
        for field, value in sorted(dataclasses.asdict(spec).items())
    )
    digest = hashlib.sha256(
        f"{spec.method}|{params}|{graph_fingerprint(graph)}".encode()
    ).hexdigest()[:16]
    return f"{spec.method.replace('/', '_')}-{digest}"


def load_or_build(spec: IndexSpec, graph: Graph) -> DistanceIndex:
    """A built index for ``spec`` on (a private copy of) ``graph``.

    With caching disabled this is ``create_index(spec, graph.copy())`` plus
    ``build()``.  With a cache directory set, a hit loads the snapshot (the
    loaded index owns a reconstructed graph, so callers may mutate freely);
    a miss builds, saves and returns the freshly built index.
    """
    directory = cache_dir()
    if directory is None:
        index = create_index(spec, graph.copy())
        index.build()
        return index

    from repro.store import load_index, save_index

    path = os.path.join(directory, cache_key(spec, graph))
    if os.path.isdir(path):
        try:
            return load_index(path)
        except (SnapshotError, OSError):
            pass  # stale/corrupt/unreadable entry: fall through and rebuild
    index = create_index(spec, graph.copy())
    index.build()
    try:
        save_index(index, path)
    except (SnapshotError, OSError):
        pass  # cache writes are best-effort (read-only/full disk included);
        # the build result is still good
    return index
