"""Stage-aware query routing with per-stage validity epochs.

Every index publishes its query stages through ``stage_catalog()`` (see
:class:`repro.base.QueryStage`): each row names the update stage whose
completion *releases* that query stage.  The router turns the table into a
live dispatch table — every query stage carries the epoch (update-batch
count) at which it last became consistent, and a query at epoch ``e`` is
dispatched to the most efficient stage whose ``valid_epoch == e``.  The
analytic evaluator reads the same table, so the live and modelled stage
timelines cannot drift apart.

The router also learns, per stage, what a computed pair costs and how long
after a batch's edge refresh the stage is released, so that a batch can wait
for a stage about to be released instead of running on a much slower one
(:meth:`StageRouter.wait_plan`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.base import LAST_STAGE, DistanceIndex

__all__ = ["LAST_STAGE", "RoutedStage", "StageRouter"]

#: Weight of the newest sample in a stage's learned cost and release offset.
EWMA_WEIGHT = 0.5


def _ewma(average: Optional[float], sample: float) -> float:
    return sample if average is None else average + EWMA_WEIGHT * (sample - average)


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
    #: Learned seconds per computed pair (an EWMA over the batches this stage
    #: computed); ``None`` until it has computed one.
    cost: Optional[float] = None
    #: Learned seconds from a batch's edge refresh to this stage's release
    #: (an EWMA over installs); ``None`` until an install released it.
    release_offset: Optional[float] = None


class StageRouter:
    """Dispatch table mapping the current epoch to the fastest valid stage.

    The engine drives the router from the update-stage listener: the first
    stage of every batch (the on-spot edge refresh) calls :meth:`begin_epoch`,
    each later stage completion calls :meth:`release`, and :meth:`complete`
    runs once the whole batch is installed (:meth:`abandon` instead, when the
    install fails after its edge refresh).  All four run on the maintenance
    thread — :meth:`begin_epoch` under the engine's write lock, the others
    without one — and each only stores one integer per stage (and the
    stage's learned release offset), after the structures that stage reads
    are final; a query thread reading ``valid_epoch`` therefore needs no lock
    of its own.  :meth:`release`, :meth:`complete` and :meth:`abandon` then
    wake the threads blocked in :meth:`wait_for_release`.
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
        #: Notified at every release; guards nothing else.
        self._released = threading.Condition()
        #: When the newest epoch's edge refresh completed, and the thread
        #: installing it (``None`` once the batch is complete or abandoned).
        self._epoch_started = 0.0
        self._installer: Optional[int] = None

    # ------------------------------------------------------------------
    # Epoch transitions (maintenance thread)
    # ------------------------------------------------------------------
    def begin_epoch(self, epoch: int) -> None:
        """The edge refresh completed: only the live-graph stage is valid."""
        self._epoch_started = time.perf_counter()
        self._installer = threading.get_ident()
        self._stages[0].valid_epoch = epoch

    def release(self, update_stage: str, epoch: int) -> None:
        """An update stage completed; release the query stages it unlocks."""
        self._publish(
            [stage for stage in self._stages if stage.released_after == update_stage], epoch
        )

    def complete(self, epoch: int) -> None:
        """The whole batch is installed: every stage is valid at ``epoch``."""
        self._publish([stage for stage in self._stages if stage.valid_epoch != epoch], epoch)
        self._installer = None

    def abandon(self) -> None:
        """The newest epoch's install failed after its edge refresh: the
        epoch stays committed with the stages released so far and releases
        nothing more, so no batch waits for it."""
        self._installer = None
        with self._released:
            self._released.notify_all()

    def _publish(self, stages: List[RoutedStage], epoch: int) -> None:
        """Mark ``stages`` valid at ``epoch``, learn their release offset and
        wake the waiting batches."""
        if stages:
            offset = time.perf_counter() - self._epoch_started
            for stage in stages:
                stage.release_offset = _ewma(stage.release_offset, offset)
                stage.valid_epoch = epoch
        with self._released:
            self._released.notify_all()

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

    def observe_cost(self, stage: RoutedStage, seconds: float, pairs: int) -> None:
        """``stage`` computed ``pairs`` pairs in ``seconds``.  Query threads
        race here unlocked: a lost update drops one sample of an estimate."""
        stage.cost = _ewma(stage.cost, seconds / pairs)

    def wait_plan(
        self, best: RoutedStage, pairs: int
    ) -> Optional[Tuple[RoutedStage, float]]:
        """Whether a batch of ``pairs`` pairs, routed to ``best`` mid-install,
        should wait for a later stage instead: the later stage whose expected
        release time plus ``pairs`` times its cost is lowest, if that is below
        ``pairs`` times ``best``'s cost, and the most to wait for it (what
        ``best`` would take).  ``None`` (route as before) on the installing
        thread and while a cost or offset it needs is still unknown."""
        if best.cost is None or self._installer in (None, threading.get_ident()):
            return None
        budget = pairs * best.cost
        elapsed = time.perf_counter() - self._epoch_started
        plan, lowest = None, budget
        for stage in reversed(self._stages):
            if stage is best:
                break
            if stage.cost is None or stage.release_offset is None:
                continue
            expected = max(stage.release_offset - elapsed, 0.0) + pairs * stage.cost
            if expected < lowest:
                plan, lowest = (stage, budget), expected
        return plan

    def wait_for_release(self, stage: RoutedStage, epoch: int, timeout: float) -> bool:
        """Block until ``stage`` is valid at ``epoch`` or later, or no
        install is running (the newest was abandoned), at most ``timeout``
        seconds; whether the stage is valid."""
        with self._released:
            self._released.wait_for(
                lambda: stage.valid_epoch >= epoch or self._installer is None, timeout
            )
            return stage.valid_epoch >= epoch

    def describe(self) -> List[Dict[str, object]]:
        """Introspection rows (stage name, release trigger, validity epoch,
        the learned cost and release offset; ``None`` while unknown)."""
        return [
            {
                "stage": stage.name,
                "released_after": stage.released_after,
                "valid_epoch": stage.valid_epoch,
                "cached": stage.cached,
                "cost_us_per_pair": None if stage.cost is None else 1e6 * stage.cost,
                "release_offset_ms": (
                    None if stage.release_offset is None else 1e3 * stage.release_offset
                ),
            }
            for stage in self._stages
        ]
