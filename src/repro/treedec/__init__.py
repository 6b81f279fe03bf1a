"""Tree decomposition substrate: MDE contraction, tree structure, LCA oracle."""

from repro.treedec.lca import LCAOracle
from repro.treedec.mde import ContractionResult, contract_graph, mde_order
from repro.treedec.slots import (
    FlatContraction,
    SlotContraction,
    UnionContraction,
    update_slots,
)
from repro.treedec.tree import TreeDecomposition

__all__ = [
    "ContractionResult",
    "contract_graph",
    "mde_order",
    "FlatContraction",
    "SlotContraction",
    "UnionContraction",
    "update_slots",
    "TreeDecomposition",
    "LCAOracle",
]
