"""Stage-aware query routing with per-stage validity epochs.

The multi-stage indexes publish their query stages through
``stage_catalog()`` (see :mod:`repro.core.stages`): each catalog entry names
the update stage whose completion *releases* that query stage.  The router
turns the catalog into a live dispatch table — every query stage carries the
epoch (update-batch count) at which it last became consistent, and a query at
epoch ``e`` is dispatched to the most efficient stage whose
``valid_epoch == e``.

Plain indexes (DCH, DH2H, TOAIN, …) have no catalog; exactly as the paper
treats them, :func:`repro.core.stages.stage_entries` synthesises a two-stage
table for them — an index-free BiDijkstra fallback released by the on-spot
edge refresh, and the native query released once the whole update completes.
That same function feeds the analytic evaluator, so the live and modelled
stage tables cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.base import DistanceIndex
from repro.core.stages import LAST_STAGE, stage_entries

__all__ = ["LAST_STAGE", "RoutedStage", "StageRouter", "stage_entries"]


@dataclass
class RoutedStage:
    """One query stage with its live validity epoch."""

    name: str
    released_after: str
    query: Callable[[int, int], float]
    #: True for every stage that reads index structures; the BiDijkstra stage
    #: (position 0) reads only the live graph and is guarded separately.
    uses_index: bool
    #: True for the last catalog entry (later entries are more efficient):
    #: the index's native fastest stage, the one ``query_many`` amortises.
    final: bool
    #: Whether the engine's distance cache fronts this stage: every stage
    #: except a final stage the index declares a label lookup
    #: (:attr:`repro.base.DistanceIndex.final_stage_is_label_lookup`).
    cached: bool
    #: Epoch at which this stage last became consistent.
    valid_epoch: int = 0


class StageRouter:
    """Dispatch table mapping the current epoch to the fastest valid stage.

    The engine drives the router from the update-stage listener: the first
    stage of every batch (the on-spot edge refresh) calls :meth:`begin_epoch`,
    each later stage completion calls :meth:`release`, and :meth:`complete`
    runs once the whole batch is installed.  All three are called from the
    maintenance thread while it holds the corresponding write lock, so no
    internal locking is needed beyond the engine's epoch protocol.
    """

    def __init__(self, index: DistanceIndex):
        self.index = index
        entries = stage_entries(index)
        last = len(entries) - 1
        self._stages: List[RoutedStage] = [
            RoutedStage(
                # Stage catalogs use IntEnum members; prefer their symbolic name.
                name=getattr(entry["query_stage"], "name", None) or str(entry["query_stage"]),
                released_after=str(entry["released_after"]),
                query=entry["query"],  # type: ignore[arg-type]
                uses_index=position > 0,
                final=position == last,
                cached=not (position == last and index.final_stage_is_label_lookup),
                valid_epoch=0,
            )
            for position, entry in enumerate(entries)
        ]

    # ------------------------------------------------------------------
    # Epoch transitions (maintenance thread)
    # ------------------------------------------------------------------
    def begin_epoch(self, epoch: int) -> None:
        """The edge refresh completed: only the live-graph stage is valid."""
        self._stages[0].valid_epoch = epoch

    def release(self, update_stage: str, epoch: int) -> None:
        """An update stage completed; release the query stages it unlocks."""
        for stage in self._stages:
            if stage.uses_index and stage.released_after == update_stage:
                stage.valid_epoch = epoch

    def complete(self, epoch: int) -> None:
        """The whole batch is installed: every stage is valid at ``epoch``."""
        for stage in self._stages:
            stage.valid_epoch = epoch

    # ------------------------------------------------------------------
    # Dispatch (query threads)
    # ------------------------------------------------------------------
    @property
    def stages(self) -> List[RoutedStage]:
        return self._stages

    @property
    def graph_stage(self) -> RoutedStage:
        """The index-free stage that reads only the live graph."""
        return self._stages[0]

    def best_valid_index_stage(self, epoch: int) -> Optional[RoutedStage]:
        """Most efficient index-backed stage consistent at ``epoch``."""
        for stage in reversed(self._stages):
            if stage.uses_index and stage.valid_epoch == epoch:
                return stage
        return None

    def best_valid_stage(self, epoch: int) -> Optional[RoutedStage]:
        """Most efficient stage (of any kind) consistent at ``epoch``."""
        for stage in reversed(self._stages):
            if stage.valid_epoch == epoch:
                return stage
        return None

    def describe(self) -> List[Dict[str, object]]:
        """Introspection rows (stage name, release trigger, validity epoch)."""
        return [
            {
                "stage": stage.name,
                "released_after": stage.released_after,
                "valid_epoch": stage.valid_epoch,
                "uses_index": stage.uses_index,
                "cached": stage.cached,
            }
            for stage in self._stages
        ]
