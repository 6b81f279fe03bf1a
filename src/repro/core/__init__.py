"""The paper's primary contribution: cross-boundary strategy, PMHL, PostMHL."""

from repro.core.cross_boundary import (
    build_cross_boundary_index,
    compose_cross_boundary_contraction,
)
from repro.core.pmhl import PMHLIndex
from repro.core.postmhl import PostMHLIndex
from repro.core.stages import (
    PMHL_UPDATE_STAGES,
    POSTMHL_UPDATE_STAGES,
    timed_label_update_by_root,
)

__all__ = [
    "PMHLIndex",
    "PostMHLIndex",
    "PMHL_UPDATE_STAGES",
    "POSTMHL_UPDATE_STAGES",
    "build_cross_boundary_index",
    "compose_cross_boundary_contraction",
    "timed_label_update_by_root",
]
