"""Stage-aware query routing with per-stage validity epochs.

Every index publishes its query stages through ``stage_catalog()`` (see
:class:`repro.base.QueryStage`): each row names the update stage whose
completion *releases* that query stage.  The router turns the table into a
live dispatch table — every query stage carries the epoch (update-batch
count) at which it last became consistent, and a query at epoch ``e`` is
dispatched to the most efficient stage whose ``valid_epoch == e``.  The
analytic evaluator reads the same table, so the live and modelled stage
timelines cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.base import LAST_STAGE, DistanceIndex

__all__ = ["LAST_STAGE", "RoutedStage", "StageRouter"]


@dataclass
class RoutedStage:
    """One query stage with its live validity epoch."""

    name: str
    released_after: str
    query: Callable[[int, int], float]
    #: True for the last catalog row (later rows are more efficient):
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
    runs once the whole batch is installed.  All three run on the maintenance
    thread — :meth:`begin_epoch` under the engine's write lock, the other two
    without one — and each only stores one integer per stage, after the
    structures that stage reads are final; a query thread reading
    ``valid_epoch`` therefore needs no lock of its own.
    """

    def __init__(self, index: DistanceIndex):
        self.index = index
        rows = index.stage_catalog()
        last = len(rows) - 1
        self._stages: List[RoutedStage] = [
            RoutedStage(
                name=row.name,
                released_after=row.released_after,
                query=row.query,
                final=position == last,
                cached=not (position == last and index.final_stage_is_label_lookup),
            )
            for position, row in enumerate(rows)
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
            if stage.released_after == update_stage:
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

    def best_valid_stage(self, epoch: int) -> Optional[RoutedStage]:
        """Most efficient stage consistent at ``epoch``."""
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
                "cached": stage.cached,
            }
            for stage in self._stages
        ]
