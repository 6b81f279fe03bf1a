"""Tree decomposition substrate: MDE elimination, flat contractions, and
the tree in row space (its LCA entries included)."""

from repro.treedec.mde import eliminate
from repro.treedec.slots import (
    FlatContraction,
    SlotContraction,
    UnionContraction,
    update_slots,
)
from repro.treedec.tree import TreeDecomposition

__all__ = [
    "eliminate",
    "FlatContraction",
    "SlotContraction",
    "UnionContraction",
    "update_slots",
    "TreeDecomposition",
]
