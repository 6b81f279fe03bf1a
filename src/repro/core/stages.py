"""Update-stage definitions shared by the multi-stage PSP indexes.

Both PMHL (Section V, Figure 7) and PostMHL (Section VI, Figure 9) interleave
index maintenance with query processing: as soon as an update stage finishes,
a faster query algorithm becomes available (each index's
``stage_catalog()`` says which).  The tuples here name the update stages;
the helper :func:`timed_label_update_by_root` performs a top-down label update
one affected branch root at a time, recording each root's wall-clock time so
the throughput machinery can model the paper's one-thread-per-branch-root
parallelisation.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Set, Tuple

from repro.labeling.h2h import H2HLabels

#: Update-stage names of PMHL, in execution order.
PMHL_UPDATE_STAGES = (
    "edge_update",
    "partition_shortcut_update",
    "overlay_shortcut_update",
    "partition_label_update",
    "overlay_label_update",
    "post_boundary_update",
    "cross_boundary_update",
)

#: Update-stage names of PostMHL, in execution order.
POSTMHL_UPDATE_STAGES = (
    "edge_update",
    "partition_shortcut_update",
    "overlay_shortcut_update",
    "overlay_label_update",
    "post_boundary_update",
    "cross_boundary_update",
)


def timed_label_update_by_root(
    labels: H2HLabels,
    affected: Iterable[int],
    allowed: Optional[Set[int]] = None,
) -> Tuple[Set[int], List[float]]:
    """Top-down label update split per affected branch root, with per-root timings.

    The paper allocates one thread per branch root during the cross-boundary
    label update (U-Stage 5 of PMHL); reporting per-root times lets the
    simulated-parallelism cost model reproduce that behaviour.

    Returns
    -------
    tuple
        ``(changed_vertices, per_root_seconds)``.
    """
    affected_set = {v for v in affected if v in labels.row}
    if allowed is not None:
        affected_set &= allowed
    changed: Set[int] = set()
    per_root_seconds: List[float] = []
    for group in labels.tree.branch_groups(affected_set).values():
        start = time.perf_counter()
        changed |= labels.update_top_down(group, allowed=allowed)
        per_root_seconds.append(time.perf_counter() - start)
    return changed, per_root_seconds
