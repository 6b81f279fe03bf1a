"""Release check generated from the stage tables.

Every index declares its query stages once, as ``stage_catalog()`` rows
``QueryStage(name, released_after, query)``.  The serving router releases
row 0 at the first update stage of a batch, every other row when the update
stage it names finishes (``LAST_STAGE`` rows when the whole batch is in), and
answers from the fastest released row while the rest of the batch installs.
This check installs one batch through ``set_stage_listener`` — no threads —
and holds each table to what the update actually did:

(a) every ``released_after`` is ``LAST_STAGE`` or a stage the batch emits;
(b) the rows are in non-decreasing release order;
(c) row 0 is released by the first emitted stage, which
    ``StageRouter.begin_epoch`` assumes;
(d) at every stage boundary, every row released so far answers every vertex
    pair as Dijkstra does on the post-batch graph.

A table that releases one row a stage early must fail it.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import pytest

from repro.algorithms.dijkstra import dijkstra
from repro.base import LAST_STAGE, QueryStage
from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_batch
from repro.registry import create_index
from tests.test_differential import NINE_SPECS

GRID = 7
BATCH_VOLUME = 8

Rows = Tuple[QueryStage, ...]


def release_violations(
    method: str, seed: int, edit: Optional[Callable[[Rows], Rows]] = None
) -> List[str]:
    """Every way ``method``'s stage table (after ``edit``) breaks (a)-(d) on
    one batch of a seeded grid; empty when the table holds."""
    graph = grid_road_network(GRID, GRID, seed=seed)
    index = create_index(NINE_SPECS[method], graph)
    index.build()
    rows = index.stage_catalog()
    if edit is not None:
        rows = edit(rows)
    batch = generate_update_batch(graph, BATCH_VOLUME, seed=seed)
    after = graph.copy()
    batch.apply(after)
    vertices = sorted(after.vertices())
    truth = {source: dijkstra(after, source) for source in vertices}
    emitted: List[str] = []
    violations: List[str] = []

    def check(released, boundary: str) -> None:
        for row in released:
            wrong = [
                (s, t) for s in vertices for t in vertices
                if not math.isclose(row.query(s, t), truth[s][t], rel_tol=1e-9, abs_tol=1e-9)
            ]
            if wrong:
                violations.append(
                    f"{row.name} wrong after {boundary} on {len(wrong)} pairs, e.g. {wrong[0]}"
                )

    def on_stage(timing) -> None:
        if not emitted:
            # What the serving engine does at the edge refresh.
            index.invalidate_kernels()
        emitted.append(timing.name)
        released = [
            row for position, row in enumerate(rows)
            if position == 0 or row.released_after in emitted
        ]
        check(released, timing.name)

    index.set_stage_listener(on_stage)
    try:
        index.apply_batch(batch)
    finally:
        index.set_stage_listener(None)
    check(rows, LAST_STAGE)

    first_emitted = {}
    for position, name in enumerate(emitted):
        first_emitted.setdefault(name, position)
    for row in rows:
        if row.released_after != LAST_STAGE and row.released_after not in first_emitted:
            violations.append(f"{row.name} released after {row.released_after!r}, never emitted")
    release_order = [
        first_emitted.get(row.released_after, len(emitted)) for row in rows
    ]
    if release_order != sorted(release_order):
        violations.append(f"rows out of release order: {[row.name for row in rows]}")
    if rows[0].released_after != emitted[0]:
        violations.append(
            f"row 0 ({rows[0].name}) released after {rows[0].released_after!r}, "
            f"not the first emitted stage {emitted[0]!r}"
        )
    return violations


def release_early(name: str, update_stage: str) -> Callable[[Rows], Rows]:
    """Edit one row of a table to be released after ``update_stage``."""
    return lambda rows: tuple(
        row._replace(released_after=update_stage) if row.name == name else row
        for row in rows
    )


@pytest.mark.parametrize("method", sorted(NINE_SPECS))
def test_every_stage_table_holds(method):
    assert release_violations(method, seed=1) == []


#: One row released one U-Stage too early, per multi-stage index.
MUTATIONS = {
    "PostMHL": ("POST_BOUNDARY", "overlay_label_update"),
    "PMHL": ("NO_BOUNDARY", "partition_label_update"),
    "MHL": ("H2H", "shortcut_update"),
}


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("method", sorted(MUTATIONS))
def test_a_stage_released_early_fails_the_check(method, seed):
    name, update_stage = MUTATIONS[method]
    violations = release_violations(method, seed, release_early(name, update_stage))
    assert any(violation.startswith(name + " wrong") for violation in violations), violations
