"""Tree decomposition substrate: MDE contraction, tree structure, LCA oracle."""

from repro.treedec.lca import LCAOracle
from repro.treedec.mde import (
    ContractionResult,
    contract_graph,
    mde_order,
    recompute_shortcut,
    update_shortcuts_bottom_up,
)
from repro.treedec.slots import SlotContraction, update_slots
from repro.treedec.tree import TreeDecomposition

__all__ = [
    "ContractionResult",
    "contract_graph",
    "mde_order",
    "recompute_shortcut",
    "update_shortcuts_bottom_up",
    "SlotContraction",
    "update_slots",
    "TreeDecomposition",
    "LCAOracle",
]
