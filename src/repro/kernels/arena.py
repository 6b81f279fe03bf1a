"""Unified flat-array arena shared by every frozen kernel store.

Every kernel store (label, graph snapshot, shortcut and hub stores) keeps
its arrays in an :class:`Arena`, one memory model:

* **one contiguous buffer** — every array of a frozen store lives at an
  aligned offset inside a single ``uint8`` buffer, described by a small table
  of contents (``name -> (dtype, offset, count)``);
* **one serialization** — the snapshot payload file is itself laid out by
  :func:`layout`, and ``repro.store`` reads it back as one arena over one
  ``np.memmap``; a store's arena is one entry of that payload plus its JSON
  table of contents;
* **one sharing path** — ``repro.cluster`` workers warm-start from the same
  mapped payload; :meth:`Arena.from_state` wraps the mapped bytes without
  copying (every entry is 64-byte aligned in a page-aligned mapping), so
  every shard executes its native kernels directly over the shared page
  cache;
* **one native handoff** — the C kernels of :mod:`repro.kernels.native`
  borrow the buffers via the buffer protocol (no memcpy), so a frozen kernel
  epoch is pointers into this arena, wherever its bytes physically live.

Arenas are immutable by contract: a store wraps one per kernel epoch and
never writes to it afterwards; the next epoch's values go into a copy of the
buffer (a maintenance pass's copy-on-write arrays, a graph snapshot's
:meth:`~repro.kernels.graph_snapshot.GraphSnapshot.patched`).  Views are
plain numpy slices of the buffer — zero-copy, C-contiguous, and safe to hand
to the native kernels.  The module also holds the id maps every store (and
the graph's vertex check) maps vertex ids to rows through (:func:`build_remap`).
"""

from __future__ import annotations

import struct
from itertools import chain, starmap
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.exceptions import VertexNotFoundError
from repro.kernels.native import native_kernel

#: Offset alignment inside the buffer.  64 bytes keeps every view cache-line
#: aligned when the buffer itself is (fresh allocations and mappings are, and
#: a nested arena starts at an aligned offset of its payload).
ALIGN = 64

#: dtypes an arena may carry — everything the kernel stores use.
_DTYPES = ("int64", "float64", "int32", "float32", "uint8")


class Arena:
    """Named, typed, immutable array views over one contiguous byte buffer."""

    __slots__ = ("buffer", "toc", "_views")

    def __init__(self, buffer, toc: Sequence[Tuple[str, str, int, int]]):
        self.buffer = buffer
        self.toc = [tuple(entry) for entry in toc]
        self._views: Dict[str, object] = {}
        # Views slice a plain ndarray over the buffer: a mapped buffer's
        # memmap subclass would route every later slice and ufunc of a
        # load through ``np.memmap``'s Python hooks.
        data = np.asarray(buffer)
        for name, dtype, offset, count in self.toc:
            if dtype not in _DTYPES:
                raise ValueError(f"arena entry {name!r} has unsupported dtype {dtype!r}")
            if offset % ALIGN or count < 0:
                raise ValueError(
                    f"arena entry {name!r} at offset {offset} with count {count} "
                    f"is not a {ALIGN}-byte aligned, non-negative extent"
                )
            end = offset + count * np.dtype(dtype).itemsize
            if offset < 0 or end > buffer.nbytes:
                raise ValueError(
                    f"arena entry {name!r} [{offset}:{end}] exceeds the "
                    f"{buffer.nbytes}-byte buffer"
                )
            self._views[name] = data[offset:end].view(dtype)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def pack(cls, arrays: Dict[str, object]) -> "Arena":
        """Pack named arrays into one aligned contiguous buffer (see
        :func:`layout`)."""
        toc, flat, nbytes = layout(arrays)
        buffer = np.zeros(nbytes or 1, dtype=np.uint8)
        for (_, _, start, _), array in zip(toc, flat):
            buffer[start : start + array.nbytes] = array.view(np.uint8)
        return cls(buffer, toc)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __getitem__(self, name: str):
        return self._views[name]

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def names(self) -> List[str]:
        return [entry[0] for entry in self.toc]

    @property
    def nbytes(self) -> int:
        return int(self.buffer.nbytes)

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        """Serialize as one payload array plus the JSON table of contents."""
        return {
            "arena": io.put_array(self.buffer),
            "toc": [list(entry) for entry in self.toc],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object], io) -> "Arena":
        """Reattach an arena onto its payload entry without copying, so a
        cluster shard's kernels execute directly over the mapped pages."""
        buffer = io.get_array(state["arena"])
        if buffer.dtype != np.uint8:
            raise ValueError(f"arena buffer has dtype {buffer.dtype}, not uint8")
        return cls(buffer, [tuple(entry) for entry in state["toc"]])

    def is_shared(self) -> bool:
        """True when the buffer is a view onto a mapped payload."""
        base = self.buffer
        while base is not None:
            if isinstance(base, np.memmap):
                return True
            base = getattr(base, "base", None)
        return False


def layout(
    arrays: Dict[str, object],
) -> Tuple[List[Tuple[str, str, int, int]], List[object], int]:
    """Lay out named arrays the way every arena is: in insertion order, each
    as a C-contiguous 1-D array of its (preserved) dtype at the next
    :data:`ALIGN` offset.  Returns the table of contents, the flattened
    arrays and the byte length the last entry ends at."""
    toc: List[Tuple[str, str, int, int]] = []
    flat: List[object] = []
    offset = 0
    for name, values in arrays.items():
        array = np.ascontiguousarray(values).reshape(-1)
        dtype = array.dtype.name  # a Python-level property in numpy: read once
        if dtype not in _DTYPES:
            raise ValueError(f"arena entry {name!r} has unsupported dtype {array.dtype}")
        offset = -(-offset // ALIGN) * ALIGN  # round up
        toc.append((name, dtype, offset, array.size))
        flat.append(array)
        offset += array.nbytes
    return toc, flat, offset


# ----------------------------------------------------------------------
# Id maps: vertex ids to rows (every store, and the graph's vertex check)
# ----------------------------------------------------------------------

#: Largest vertex id (relative to the row count) for which a dense id->row
#: remap is built; a sparser id space is searched by bisection instead.
REMAP_SLACK = 1024


def build_remap(ids) -> np.ndarray:
    """The ``id -> row`` map of an ``int64`` id column, as the one ``int64``
    array the C batch entries read: a dense remap (``remap[id]`` is the row
    of ``id``, or -1) when the ids are non-negative and dense enough, else
    the sorted ids over their rows (``2 x n``), searched by bisection."""
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) and ids.min() >= 0 and ids.max() < len(ids) + REMAP_SLACK:
        remap = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
        remap[ids] = np.arange(len(ids), dtype=np.int64)
        return remap
    order = np.argsort(ids, kind="stable")
    return np.stack((ids[order], order))


_PAIR = struct.Struct("=qq")


def id_array(vertices) -> np.ndarray:
    """``vertices`` as the flat integer array an id map reads: an integer
    array as it is, anything else packed once.  A value that is no ``int64``
    id is a :class:`VertexNotFoundError` naming it."""
    if isinstance(vertices, np.ndarray) and vertices.dtype.kind == "i":
        return vertices.ravel()  # a view when C-contiguous, else a copy
    values = list(vertices)
    try:
        return np.frombuffer(struct.pack(f"={len(values)}q", *values), np.int64)
    except struct.error:  # name the first value that is no int64 id
        bad = next(i for i, v in enumerate(values)
                   if not isinstance(v, (int, np.integer)) or not -(2**63) <= v < 2**63)
        raise VertexNotFoundError(values[bad], bad) from None


def pair_ids(pairs) -> np.ndarray:
    """A batch of ``(source, target)`` pairs as one ``(k, 2)`` integer array:
    a C-contiguous ``(k, 2)`` integer array as it is, a sequence of pairs
    packed once (one ``struct`` call a pair).  A pair that is not two values
    is a ``ValueError``."""
    if isinstance(pairs, np.ndarray) and pairs.ndim == 2 and pairs.shape[1] == 2:
        if pairs.dtype.kind == "i" and pairs.flags.c_contiguous:
            return pairs
        return id_array(pairs).reshape(-1, 2)
    pair_list = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
    try:
        return np.frombuffer(b"".join(starmap(_PAIR.pack, pair_list)), np.int64).reshape(-1, 2)
    except struct.error:
        id_array(chain.from_iterable(pair_list))  # names a value that is no id
        raise ValueError("each pair must be (source, target)") from None


def rows_of(idmap: np.ndarray, vertices) -> np.ndarray:
    """``vertices`` as ``int64`` rows through ``idmap``: one C ``map_ids``
    call.  The first vertex with no row is a :class:`VertexNotFoundError`
    naming it and its position."""
    ids = id_array(vertices)
    rows = np.empty(len(ids), dtype=np.int64)
    missing = native_kernel().map_ids(ids, idmap, rows)
    if missing >= 0:
        raise VertexNotFoundError(int(ids[missing]), missing)
    return rows


# ----------------------------------------------------------------------
# Freeze accounting (shared by every store)
# ----------------------------------------------------------------------
def count_freeze(store: str, layout: str) -> None:
    """Count one frozen store of kind ``store``; ``layout`` is ``"reused"``
    when it wraps or patches values in an earlier epoch's layout,
    ``"built"`` when the layout was derived afresh."""
    if obs.is_enabled():
        obs.registry().counter(
            "repro_kernel_store_freezes_total",
            "Frozen kernel stores built, by store kind and layout",
            store=store,
            layout=layout,
        ).inc()
