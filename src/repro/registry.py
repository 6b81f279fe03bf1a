"""Typed index specs and the method registry/factory.

Construction of the paper's methods goes through one uniform, typed surface
instead of nine heterogeneous constructors:

* :class:`IndexSpec` — one frozen dataclass per method carrying its typed
  construction parameters (partitions, bandwidth, seed, …).  A spec is an
  immutable recipe: ``spec.create(graph)`` instantiates the (unbuilt) index.
* :func:`register_spec` — decorator through which every index module
  registers its own spec class; the registry never hard-codes a dispatch
  table, it is populated by the index implementations themselves.
* :func:`create_index` — the factory every experiment driver, benchmark and
  example goes through: accepts a spec instance *or* a method name plus
  keyword overrides.

The registry is lazily populated: looking a method up imports the index
modules listed in :data:`SPEC_MODULES` (each of which self-registers), so
``from repro.registry import create_index`` works without importing the whole
``repro`` package first.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, fields, replace
from typing import ClassVar, Dict, List, Mapping, Tuple, Type, Union

from repro.base import DistanceIndex
from repro.graph.graph import Graph

# Persistence is part of the registry surface: a spec is the construction
# recipe, a snapshot the construction *result* — save/load live in
# repro.store and are re-exported here verbatim (single signature source).
from repro.store import load_index as load_index, save_index as save_index


@dataclass(frozen=True)
class IndexSpec:
    """Typed, immutable construction recipe for one index method.

    Subclasses declare

    * ``method`` — the canonical method name (as the paper's figures spell
      it),
    * ``aliases`` — optional alternative lookup names,
    * ``config_fields`` — a ``{spec_field: config_attribute}`` mapping used
      by :func:`spec_from_config` to bind an experiment configuration to the
      spec without this module depending on ``repro.experiments``,

    plus one dataclass field per constructor parameter and a :meth:`create`
    building the (unbuilt) index on a graph.
    """

    #: Canonical method name (class attribute, not a dataclass field).
    method: ClassVar[str] = "index"
    #: Alternative lookup names accepted by :func:`get_spec`.
    aliases: ClassVar[Tuple[str, ...]] = ()
    #: ``{spec_field: config_attribute}`` binding for :func:`spec_from_config`.
    config_fields: ClassVar[Mapping[str, str]] = {}

    #: Answer queries through the frozen flat-array kernels of
    #: ``repro.kernels`` (default).  ``False`` keeps the pure-Python
    #: reference path; results are bit-identical either way.
    use_kernels: bool = True

    def create(self, graph: Graph) -> DistanceIndex:
        """Instantiate (but do not build) the index on ``graph``."""
        raise NotImplementedError

    def replace(self, **overrides: object) -> "IndexSpec":
        """A copy of this spec with ``overrides`` applied (validated)."""
        _check_overrides(type(self), overrides)
        return replace(self, **overrides)


#: Modules whose import self-registers their spec classes, in the order the
#: paper's figures list the methods (plus MHL, which the paper embeds inside
#: PMHL/PostMHL rather than comparing directly).
SPEC_MODULES: Tuple[str, ...] = (
    "repro.baselines.bidijkstra_index",
    "repro.hierarchy.ch",
    "repro.labeling.h2h",
    "repro.labeling.mhl",
    "repro.baselines.toain",
    "repro.psp.no_boundary",
    "repro.psp.post_boundary",
    "repro.core.pmhl",
    "repro.core.postmhl",
)

#: The eight methods the paper's evaluation compares, in figure order.
PAPER_METHODS: Tuple[str, ...] = (
    "BiDijkstra",
    "DCH",
    "DH2H",
    "TOAIN",
    "N-CH-P",
    "P-TD-P",
    "PMHL",
    "PostMHL",
)

_REGISTRY: Dict[str, Type[IndexSpec]] = {}
_ALIASES: Dict[str, str] = {}
_loaded = False


def register_spec(cls: Type[IndexSpec]) -> Type[IndexSpec]:
    """Class decorator: register an :class:`IndexSpec` subclass by name."""
    _REGISTRY[cls.method] = cls
    for alias in (cls.method, *cls.aliases):
        _ALIASES[alias.lower()] = cls.method
    return cls


def _ensure_loaded() -> None:
    global _loaded
    if not _loaded:
        for module in SPEC_MODULES:
            importlib.import_module(module)
        _loaded = True


def _check_overrides(cls: Type[IndexSpec], overrides: Mapping[str, object]) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        accepted = ", ".join(sorted(known)) or "(none)"
        raise TypeError(
            f"{cls.method} spec has no parameter(s) {unknown}; accepted: {accepted}"
        )


def spec_class(name: str) -> Type[IndexSpec]:
    """The registered spec class for ``name`` (case-insensitive, aliases ok)."""
    _ensure_loaded()
    canonical = _ALIASES.get(str(name).lower())
    if canonical is None:
        known = ", ".join(registered_methods())
        raise ValueError(f"unknown method {name!r}; known methods: {known}")
    return _REGISTRY[canonical]


def get_spec(name: str, **params: object) -> IndexSpec:
    """A spec instance for method ``name`` with ``params`` applied."""
    cls = spec_class(name)
    _check_overrides(cls, params)
    return cls(**params)


def create_index(
    spec_or_name: Union[IndexSpec, str], graph: Graph, **overrides: object
) -> DistanceIndex:
    """Instantiate (but do not build) an index from a spec or method name.

    ``spec_or_name`` is either an :class:`IndexSpec` instance or a registered
    method name; ``overrides`` replace individual spec parameters either way::

        index = create_index("PMHL", graph, num_partitions=8, seed=7)
        index = create_index(PostMHLSpec(bandwidth=16), graph)
    """
    if isinstance(spec_or_name, IndexSpec):
        spec = spec_or_name.replace(**overrides) if overrides else spec_or_name
    else:
        spec = get_spec(spec_or_name, **overrides)
    index = spec.create(graph)
    # The kernel switch is carried by the base spec so every method gets it
    # without each concrete ``create`` having to forward it; the spec itself
    # rides along so ``save_index`` can persist the construction recipe.
    index.use_kernels = spec.use_kernels
    index.spec = spec
    return index


def registered_methods() -> List[str]:
    """Canonical names of every registered method, in registration order."""
    _ensure_loaded()
    return list(_REGISTRY)


def experiment_methods(quick: bool = False) -> List[str]:
    """The paper's compared methods (the quick runs use the same set; the
    quick configuration only shrinks datasets and parameter grids)."""
    return list(PAPER_METHODS)


def spec_from_config(name: str, config: object) -> IndexSpec:
    """Bind an experiment configuration object to the spec of ``name``.

    ``config`` only needs the attributes named by the spec's
    ``config_fields`` mapping (``repro.experiments.config.ExperimentConfig``
    in practice); parameters without a mapping keep their spec defaults.
    """
    cls = spec_class(name)
    params = {
        field: getattr(config, attribute)
        for field, attribute in cls.config_fields.items()
    }
    return cls(**params)
