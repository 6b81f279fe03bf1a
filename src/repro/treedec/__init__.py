"""Tree decomposition substrate: flat contractions (their MDE elimination
and maintenance pass), and the tree in row space (its LCA entries
included)."""

from repro.treedec.slots import (
    FlatContraction,
    SlotContraction,
    UnionContraction,
    update_slots,
)
from repro.treedec.tree import TreeDecomposition

__all__ = [
    "FlatContraction",
    "SlotContraction",
    "UnionContraction",
    "update_slots",
    "TreeDecomposition",
]
