"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import hashlib
import random
import struct
from typing import List, Tuple

import pytest

from repro.graph.generators import grid_road_network, random_connected_graph
from repro.graph.graph import Graph
from repro.kernels.native import native_kernel, native_kernel_error


#: No frozen store exists without the native C kernel, and a
#: ``ClusterEngine`` (whose readers serve only stores) refuses to start
#: without it: every test that inspects a store or starts a cluster carries
#: this skip, which the pure rung (``REPRO_DISABLE_NATIVE_KERNELS=1``, or no
#: compiler) takes.
NEEDS_NATIVE = pytest.mark.skipif(
    native_kernel() is None,
    reason=f"native C kernel unavailable: {native_kernel_error()}",
)


def pytest_collection_modifyitems(config, items):
    """Give the engine-core conformance tests' cluster backend the native skip."""
    for item in items:
        callspec = getattr(item, "callspec", None)
        if callspec is not None and callspec.params.get("make_engine") == "cluster":
            item.add_marker(NEEDS_NATIVE)


def patch_out_native_kernel(monkeypatch) -> None:
    """Make the native kernel unavailable until the test ends — the state a
    machine without a compiler loads.  Every check of the one store rule
    (``repro.base``, ``repro.store``, ``repro.cluster``) and the maintenance
    loops read it through ``native_kernel()``, so all of them see ``None``."""
    from repro.kernels import native

    monkeypatch.setattr(native, "_loaded", True)
    monkeypatch.setattr(native, "_module", None)
    monkeypatch.setattr(native, "_failure", "patched out by the test")


def paper_example_graph() -> Graph:
    """A small fixed road network in the spirit of the paper's Figure 2.

    The exact figure weights are not fully recoverable from the text, so the
    tests use a deterministic 14-vertex network with comparable structure and
    verify every index against Dijkstra rather than against hard-coded
    distances.
    """
    graph = Graph(14)
    edges = [
        (0, 8, 6), (0, 9, 2), (8, 9, 3), (8, 11, 2), (9, 11, 7),
        (9, 10, 3), (10, 11, 2), (11, 13, 4), (10, 12, 5), (12, 13, 2),
        (1, 2, 2), (1, 10, 4), (2, 10, 3), (2, 3, 3), (3, 12, 2),
        (3, 4, 5), (4, 5, 2), (4, 13, 3), (5, 6, 3), (6, 13, 4),
        (6, 7, 2), (7, 12, 6), (5, 12, 8),
    ]
    for u, v, w in edges:
        graph.add_edge(u, v, float(w))
    return graph


def random_query_pairs(graph: Graph, count: int, seed: int = 0) -> List[Tuple[int, int]]:
    """Deterministic random (source, target) pairs over the graph's vertices."""
    rng = random.Random(seed)
    vertices = sorted(graph.vertices())
    return [(rng.choice(vertices), rng.choice(vertices)) for _ in range(count)]


@pytest.fixture
def example_graph() -> Graph:
    return paper_example_graph()


@pytest.fixture
def small_grid() -> Graph:
    return grid_road_network(6, 6, seed=7)


@pytest.fixture
def medium_grid() -> Graph:
    return grid_road_network(10, 10, seed=11)


@pytest.fixture
def random_graph() -> Graph:
    return random_connected_graph(40, 30, seed=3)


@pytest.fixture
def pure_maintenance(monkeypatch):
    """A switch: once called, ``recompute_vertex``, ``update_shortcuts_bottom_up``
    and ``update_slots`` run their pure loops (what a missing compiler gives)
    until the test ends."""
    import repro.labeling.h2h as h2h_module
    import repro.treedec.mde as mde_module
    import repro.treedec.slots as slots_module

    def switch() -> None:
        for module in (h2h_module, mde_module, slots_module):
            monkeypatch.setattr(module, "native_kernel", lambda: None)

    return switch


def float_bits(values) -> bytes:
    """The float64 bit patterns of ``values`` (``==`` would equate 0.0 and -0.0)."""
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def maintenance_structures(index) -> List[Tuple[str, object]]:
    """Every ``H2HLabels`` / ``ContractionResult`` / ``SlotContraction`` an
    index holds, by attribute path.

    Walks the index's attributes (and the PSP family / overlay objects and
    lists below them) in sorted-name order, each structure reported once —
    the containers ``apply_batch`` reads, wherever a method keeps them.
    """
    from repro.labeling.h2h import H2HLabels
    from repro.treedec.mde import ContractionResult
    from repro.treedec.slots import SlotContraction

    found: List[Tuple[str, object]] = []
    seen = set()

    def walk(path: str, obj) -> None:
        if id(obj) in seen:
            return
        if isinstance(obj, (H2HLabels, ContractionResult, SlotContraction)):
            seen.add(id(obj))
            found.append((path, obj))
        elif isinstance(obj, (list, tuple)):
            for i, item in enumerate(obj):
                walk(f"{path}[{i}]", item)
        elif type(obj).__module__.startswith("repro.") and hasattr(obj, "__dict__"):
            seen.add(id(obj))
            for name in sorted(vars(obj)):
                walk(f"{path}.{name}", vars(obj)[name])

    walk(type(index).__name__, index)
    return found


def index_state_digest(index, pairs) -> str:
    """SHA-256 over the float64 bits of an index's labels, shortcuts and answers.

    Covers ``dis`` / ``pos`` of every label set, the shortcut array of every
    contraction (both in stored order) and ``query_many(pairs)``; two indexes
    with equal digests are bit-identical in everything a query can read.  A
    flat contraction hashes the same bytes as the dict one it replaces: per
    row its vertex, its neighbour ids and its weights, in slot order.
    """
    digest = hashlib.sha256()

    def feed(fmt: str, values) -> None:
        values = list(values)
        digest.update(struct.pack(f"<{len(values)}{fmt}", *values))

    for path, obj in maintenance_structures(index):
        digest.update(path.encode())
        if hasattr(obj, "dis"):
            for v, row in obj.dis.items():
                feed("q", [v])
                feed("d", row)
                feed("q", obj.pos[v])
        elif hasattr(obj, "arena"):
            ids, indptr = obj.arena["ids"], obj.arena["indptr"].tolist()
            neighbors, weights = ids[obj.arena["indices"]], obj.arena["weights"]
            for r, v in enumerate(obj.order):
                feed("q", [v])
                feed("q", neighbors[indptr[r] : indptr[r + 1]].tolist())
                feed("d", weights[indptr[r] : indptr[r + 1]].tolist())
        else:
            for v in obj.order:
                feed("q", [v])
                feed("q", obj.neighbors[v])
                feed("d", (obj.shortcuts[v][u] for u in obj.neighbors[v]))
    feed("d", index.query_many(pairs))
    return digest.hexdigest()
