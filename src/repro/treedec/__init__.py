"""Tree decomposition substrate: MDE elimination, flat contractions, tree
structure, LCA oracle."""

from repro.treedec.lca import LCAOracle
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
    "LCAOracle",
]
