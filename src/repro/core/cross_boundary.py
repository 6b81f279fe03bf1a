"""Cross-boundary strategy: one global 2-hop index stitched from PSP pieces.

Section IV-A of the paper introduces the cross-boundary strategy: concatenate
the overlay and partition indexes *ahead of time* into a single global 2-hop
index ``L*`` so cross-partition queries no longer pay for per-query distance
concatenation.  Section V-C realises ``L*`` by *tree decomposition
aggregation* (Algorithm 1): the partition trees and the overlay tree are
merged into one cross-boundary tree ``T*`` whose node relationships prioritise
the overlay tree.

This module implements that aggregation by composing one contraction out of
the partition and overlay contractions:

* a non-boundary vertex keeps the neighbour set / shortcut array of its
  partition contraction,
* a boundary vertex keeps those of the overlay contraction,

which — because the partition and overlay contractions are restrictions of one
global boundary-first order (Lemma 3) — is exactly what a single global
contraction of the road network under that order would produce.  The result
is a :class:`~repro.treedec.slots.UnionContraction`: its topology is built
once, in the global order, with one index map per source arena, and its
weights are gathered through those maps.  Partition and overlay maintenance
therefore keeps the cross-boundary shortcut arrays fresh with no pass of
their own: ``L*``'s label pass gathers its shortcuts from the sources (one
``np.take`` each), the PCH stage's store wraps the union's gathered arena,
and U-Stage 5 only has to refresh distance labels.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.labeling.h2h import H2HLabels
from repro.partitioning.base import Partitioning
from repro.psp.overlay import OverlayIndex
from repro.psp.partition_family import PartitionIndexFamily
from repro.treedec.slots import UnionContraction
from repro.treedec.tree import TreeDecomposition


def compose_cross_boundary_contraction(
    partitioning: Partitioning,
    order: Sequence[int],
    family: PartitionIndexFamily,
    overlay: OverlayIndex,
) -> UnionContraction:
    """The global cross-boundary contraction: boundary vertices' rows from the
    overlay contraction, every other vertex's from its partition's."""
    boundary = partitioning.all_boundary()
    pieces = [(overlay.contraction, sorted(boundary))]
    for pid in range(partitioning.num_partitions):
        inner = [v for v in partitioning.partition_vertices(pid) if v not in boundary]
        pieces.append((family.contractions[pid], inner))
    return UnionContraction(order, pieces)


def build_cross_boundary_index(
    partitioning: Partitioning,
    order: Sequence[int],
    family: PartitionIndexFamily,
    overlay: OverlayIndex,
) -> Tuple[UnionContraction, TreeDecomposition, H2HLabels]:
    """Build the cross-boundary tree ``T*`` and labels ``L*`` (Algorithm 1).

    Returns the composed contraction, the aggregated tree decomposition and the
    fully-built global distance labels.
    """
    composed = compose_cross_boundary_contraction(partitioning, order, family, overlay)
    tree = TreeDecomposition.from_contraction(composed, allow_forest=True)
    labels = H2HLabels(tree)
    labels.build()
    return composed, tree, labels
