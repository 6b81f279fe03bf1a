"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Dict, List, Tuple

import pytest

from repro.graph.generators import grid_road_network, random_connected_graph
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch, generate_update_batch


def patch_out_native_kernel(monkeypatch) -> None:
    """Put the native kernel loader in its failed state until the test ends
    — what a machine without a compiler loads: every ``native_kernel()``
    call raises :class:`~repro.exceptions.NativeKernelError`."""
    from repro.kernels import native

    monkeypatch.setattr(native, "_loaded", True)
    monkeypatch.setattr(native, "_module", None)
    monkeypatch.setattr(native, "_failure", "patched out by the test")


def neighbors(graph: Graph, v: int) -> Dict[int, float]:
    """``{neighbour: weight}`` of ``v``'s row of ``graph``, in row order."""
    row = graph.position(v)
    lo, hi = graph.indptr[row], graph.indptr[row + 1]
    return dict(zip(graph.ids[graph.indices[lo:hi]].tolist(),
                    graph.weights[graph.edge[lo:hi]].tolist()))


def paper_example_graph() -> Graph:
    """A small fixed road network in the spirit of the paper's Figure 2.

    The exact figure weights are not fully recoverable from the text, so the
    tests use a deterministic 14-vertex network with comparable structure and
    verify every index against Dijkstra rather than against hard-coded
    distances.
    """
    edges = [
        (0, 8, 6), (0, 9, 2), (8, 9, 3), (8, 11, 2), (9, 11, 7),
        (9, 10, 3), (10, 11, 2), (11, 13, 4), (10, 12, 5), (12, 13, 2),
        (1, 2, 2), (1, 10, 4), (2, 10, 3), (2, 3, 3), (3, 12, 2),
        (3, 4, 5), (4, 5, 2), (4, 13, 3), (5, 6, 3), (6, 13, 4),
        (6, 7, 2), (7, 12, 6), (5, 12, 8),
    ]
    return Graph.from_edges(*zip(*edges), vertices=range(14))


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
def oracle_maintenance(monkeypatch):
    """A switch: once called, every C pass of a build and an update window —
    the label pass (``h2h.update_labels``), the label pairs' query
    (``H2HLabels.pair_distances``), the shortcut pass
    (``slots.update_slots``) and the elimination (``slots.eliminate_slots``
    / ``ordering.elimination_order``) — runs its Python oracle
    (``tests/oracles``) until the test ends."""
    from tests.oracles import seams

    def switch() -> None:
        for owner, name, oracle in seams():
            monkeypatch.setattr(owner, name, oracle)

    return switch


def inverse(batch: UpdateBatch) -> UpdateBatch:
    """The batch that restores the weights ``batch`` replaced."""
    return UpdateBatch([EdgeUpdate(u.u, u.v, u.new_weight, u.old_weight) for u in batch])


def _twice(graph) -> UpdateBatch:
    """Three edges, the first named twice: its last weight must win."""
    (a, b, w), (c, d, x), (e, f, y) = list(graph.edges())[:3]
    return UpdateBatch([
        EdgeUpdate(a, b, w, 4 * w), EdgeUpdate(c, d, x, x / 2),
        EdgeUpdate(a, b, 4 * w, w / 3), EdgeUpdate(e, f, y, 3 * y),
    ])


#: Update sequences every maintenance-parity test runs, each a function of
#: the graph: increase-only, decrease-only, mixed, empty, a batch and its
#: inverse, and one edge named twice.
BATCH_SEQUENCES = {
    "increase": lambda g: [generate_update_batch(g, 12, seed=5, decrease_fraction=0.0)],
    "decrease": lambda g: [generate_update_batch(g, 12, seed=6, decrease_fraction=1.0)],
    "mixed": lambda g: [generate_update_batch(g, 12, seed=7)],
    "empty": lambda g: [UpdateBatch([])],
    "revert": lambda g: [batch := generate_update_batch(g, 12, seed=8), inverse(batch)],
    "twice": lambda g: [_twice(g)],
}


def float_bits(values) -> bytes:
    """The float64 bit patterns of ``values`` (``==`` would equate 0.0 and -0.0)."""
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def reference_shortcuts(graph: Graph, order) -> Dict[int, Dict[int, float]]:
    """``{v: {u: sc(v, u)}}`` of contracting ``graph`` under ``order`` by the
    weighted dict elimination: ``v``'s shortcuts are its current
    neighbours' weights, then each pair of them is joined at the smaller of
    its current weight and the path through ``v``.  Rows ascend by
    neighbour id (the slot order).  It shares no code with the flat pass
    that builds and maintains every contraction, so it is that pass's
    independent oracle."""
    work = {v: neighbors(graph, v) for v in graph.vertices()}
    shortcuts = {}
    for v in order:
        nbrs = work.pop(v)
        row = sorted(nbrs)
        shortcuts[v] = {u: nbrs[u] for u in row}
        for i, u in enumerate(row):
            del work[u][v]
            for w in row[i + 1 :]:
                through = nbrs[u] + nbrs[w]
                if w not in work[u] or through < work[u][w]:
                    work[u][w] = work[w][u] = through
    return shortcuts


def reference_weights(graph: Graph, order) -> bytes:
    """The float64 bits of :func:`reference_shortcuts` in slot order: what a
    contraction's ``weights`` must hold."""
    shortcuts = reference_shortcuts(graph, order)
    return float_bits(sc for v in order for sc in shortcuts[v].values())


def check_build_equals_reference(graph, **kwargs):
    """``SlotContraction.build`` against the weighted dict elimination
    (``reference_shortcuts``): the same order and rows, ``base`` holding each
    slot's graph weight (``inf`` for fill-in), the same weight bits, and a
    build that counts no work and no version."""
    from repro.treedec.slots import SlotContraction
    from tests.oracles.slots import eliminate

    contraction = SlotContraction.build(graph, **kwargs)
    order, rows = eliminate(graph, **kwargs)
    assert contraction.order == order
    reference = reference_shortcuts(graph, order)
    assert [contraction.neighbors[v] for v in order] == rows
    assert rows == [list(reference[v]) for v in order]
    assert float_bits(contraction.arena["weights"]) == reference_weights(graph, order)
    assert float_bits(contraction.base) == float_bits(
        neighbors(graph, v).get(u, float("inf")) for v in order for u in reference[v]
    )
    assert contraction.work.tolist() == [0, 0, 0] and contraction.version == 0
    return contraction


def top_down_order(tree) -> List[int]:
    """The vertices in the order the dict tree's stack walk visited them —
    roots in ascending rank, the highest-rank child popped first — the row
    order of :func:`index_state_digest` (and of the golden digests)."""
    rank, keys = tree.contraction.rank, tree.keys
    children = {v: [] for v in keys}
    for r, p in enumerate(tree.parent.tolist()):
        if p >= 0:
            children[keys[p]].append(keys[r])
    order = []
    for root in tree.roots:
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(sorted(children[v], key=rank.__getitem__))
    return order


def label_rows(labels) -> Dict[int, List[float]]:
    """A dict copy of ``labels``'s ``dis`` rows, keyed in the tree's
    top-down order: the containers the dict maintenance path ran over."""
    return {v: labels.dis(v).tolist() for v in top_down_order(labels.tree)}


def container_row(rows: Dict[int, List[float]], tree, v: int) -> List[float]:
    """``v``'s distance array from the dict ``rows``: the dict-of-list
    loop the flat label pass replaced, kept as its oracle.  ``X(v).A`` is
    a parent walk."""
    anc = tree.chain(v)
    neighbors, shortcuts = tree.neighbors(v), tree.contraction.upward(v)
    new = [float("inf")] * len(anc)
    for x in neighbors:
        px = int(tree.depth[tree.row[x]])
        for j in range(len(anc) - 1):
            d = rows[x][j] if j < px else rows[anc[j]][px]
            if shortcuts[x] + d < new[j]:
                new[j] = shortcuts[x] + d
    new[-1] = 0.0
    return new


def container_label_pass(labels, rows, affected, allowed=None, columns=None):
    """The dict path of one label pass over ``rows`` (a :func:`label_rows`
    copy): branch roots, a depth-first walk, and :func:`container_row` for
    every seed and every row below a changed one, keeping the columns
    outside ``columns``.  Returns the vertices whose row changed."""
    tree = labels.tree
    seeds = {v for v in affected if v in rows}
    if allowed is not None:
        seeds &= allowed
    lo, hi = columns if columns is not None else (0, labels.width)
    changed = set()
    for root in tree.branch_groups(seeds):
        stack = [(root, False)]
        while stack:
            v, ancestor_changed = stack.pop()
            if ancestor_changed or v in seeds:
                old = rows[v]
                rows[v] = old[:lo] + container_row(rows, tree, v)[lo:hi] + old[hi:]
                if rows[v] != old:
                    changed.add(v)
                    ancestor_changed = True
            r = tree.row[v]
            children = tree.child_rows[tree.child_indptr[r] : tree.child_indptr[r + 1]]
            stack.extend(
                (tree.keys[child], ancestor_changed) for child in children.tolist()
                if allowed is None or child in allowed
            )
    return changed


@pytest.fixture
def container_oracle(monkeypatch):
    """Run every ``H2HLabels.update_top_down`` next to
    :func:`container_label_pass` on a dict copy of the rows it starts from,
    and assert both leave the same bits and report the same changed rows.
    Returns the list of passes checked."""
    from repro.labeling.h2h import H2HLabels

    original = H2HLabels.update_top_down
    checked = []

    def update_top_down(self, affected, allowed=None, columns=None):
        affected = list(affected)
        rows = label_rows(self)
        expected = container_label_pass(self, rows, affected, allowed, columns)
        changed = original(self, affected, allowed, columns)
        assert changed == expected
        assert {v: float_bits(row) for v, row in label_rows(self).items()} == {
            v: float_bits(row) for v, row in rows.items()
        }
        checked.append(self)
        return changed

    monkeypatch.setattr(H2HLabels, "update_top_down", update_top_down)
    return checked


def check_label_maintenance(method: str, graph: Graph, kind: str, **kwargs):
    """Build ``method`` on a copy of ``graph``, run the ``kind`` sequence of
    :data:`BATCH_SEQUENCES` through it, and assert that every label arena
    equals, byte for byte, the one a fresh build on the updated graph holds
    (and, for the empty and reverting sequences, the one it started with).
    Returns the maintained index."""
    from repro.registry import create_index

    index = create_index(method, graph.copy(), **kwargs)
    index.build()
    before = {path: bytes(labels.arena.buffer) for path, labels in label_sets(index)}
    for batch in BATCH_SEQUENCES[kind](graph):
        index.apply_batch(batch)
        batch.apply(graph)
    fresh = create_index(method, graph.copy(), **kwargs)
    fresh.build()
    after = {path: bytes(labels.arena.buffer) for path, labels in label_sets(index)}
    assert after.keys() == before.keys() and after
    assert after == {path: bytes(labels.arena.buffer) for path, labels in label_sets(fresh)}
    assert (after == before) == (kind in ("empty", "revert"))
    return index


def arena_bytes(index) -> Dict[str, bytes]:
    """Every arena an index maintains, by attribute path: each label set's,
    each flat contraction's (a union's gathered one too), and each
    ``SlotContraction``'s graph weights (``<path>.base``)."""
    found: Dict[str, bytes] = {}
    for path, obj in maintenance_structures(index):
        if hasattr(obj, "arena"):
            found[path] = bytes(obj.arena.buffer)
        if hasattr(obj, "base"):
            found[path + ".base"] = bytes(obj.base)
    return found


def check_slot_maintenance(method: str, graph: Graph, kind: str, **kwargs):
    """Build ``method`` on a copy of ``graph``, run the ``kind`` sequence of
    :data:`BATCH_SEQUENCES` through it, and assert that every contraction and
    label arena (:func:`arena_bytes`) equals, byte for byte, the one a fresh
    build on the updated graph holds (and, for the empty and reverting
    sequences, the one it started with).  Returns the maintained index."""
    from repro.registry import create_index
    from repro.treedec.slots import FlatContraction

    index = create_index(method, graph.copy(), **kwargs)
    index.build()
    before = arena_bytes(index)
    for batch in BATCH_SEQUENCES[kind](graph):
        index.apply_batch(batch)
        batch.apply(graph)
    fresh = create_index(method, graph.copy(), **kwargs)
    fresh.build()
    after = arena_bytes(index)
    assert after.keys() == before.keys()
    assert any(isinstance(obj, FlatContraction) for _, obj in maintenance_structures(index))
    assert after == arena_bytes(fresh)
    assert (after == before) == (kind in ("empty", "revert"))
    return index


def label_sets(index) -> List[Tuple[str, object]]:
    """The ``H2HLabels`` of ``index``, by attribute path."""
    from repro.labeling.h2h import H2HLabels

    return [(p, obj) for p, obj in maintenance_structures(index) if isinstance(obj, H2HLabels)]


def maintenance_structures(index) -> List[Tuple[str, object]]:
    """Every ``H2HLabels`` / flat contraction an index holds, by attribute
    path.

    Walks the index's attributes (and the PSP family / overlay objects and
    lists below them) in sorted-name order, each structure reported once —
    the containers ``apply_batch`` reads, wherever a method keeps them.
    """
    from repro.labeling.h2h import H2HLabels
    from repro.treedec.slots import FlatContraction

    found: List[Tuple[str, object]] = []
    seen = set()

    def walk(path: str, obj) -> None:
        if id(obj) in seen:
            return
        if isinstance(obj, (H2HLabels, FlatContraction)):
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

    Covers ``dis`` / ``pos`` of every label set (rows in the tree's top-down
    order), the shortcut array of every contraction (in stored order) and
    ``query_many(pairs)``; two indexes with equal digests are bit-identical
    in everything a query can read.  Flat structures hash the same bytes as
    the dict ones they replaced: a label row is its vertex, its ``dis`` and
    its ``pos``; a contraction row its vertex, its neighbour ids and its
    weights, in slot order.
    """
    digest = hashlib.sha256()

    def feed(fmt: str, values) -> None:
        values = list(values)
        digest.update(struct.pack(f"<{len(values)}{fmt}", *values))

    from repro.labeling.h2h import H2HLabels

    for path, obj in maintenance_structures(index):
        digest.update(path.encode())
        if isinstance(obj, H2HLabels):
            for v in top_down_order(obj.tree):
                feed("q", [v])
                feed("d", obj.dis(v).tolist())
                feed("q", obj.pos(v).tolist())
        else:
            ids, indptr = obj.arena["ids"], obj.arena["indptr"].tolist()
            neighbors, weights = ids[obj.arena["indices"]], obj.arena["weights"]
            for r, v in enumerate(obj.order):
                feed("q", [v])
                feed("q", neighbors[indptr[r] : indptr[r + 1]].tolist())
                feed("d", weights[indptr[r] : indptr[r + 1]].tolist())
    feed("d", index.query_many(pairs))
    return digest.hexdigest()
