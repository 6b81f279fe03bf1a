"""Unified flat-array arena shared by every frozen kernel store.

Before this module each kernel store (:class:`~repro.kernels.label_store.
LabelStore`, :class:`~repro.kernels.graph_snapshot.GraphSnapshot`,
:class:`~repro.kernels.shortcut_store.ShortcutStore`, :class:`~repro.kernels.
hub_store.HubStore`) carried its own loose bag of numpy arrays and its own
bespoke snapshot wire format.  An :class:`Arena` replaces all of that with
one memory model:

* **one contiguous buffer** — every array of a frozen store lives at an
  aligned offset inside a single ``uint8`` buffer, described by a small table
  of contents (``name -> (dtype, offset, count)``);
* **one serialization** — ``repro.store`` persists an arena as a single
  payload array plus the JSON table of contents, so a store round-trips as
  one buffer handoff instead of N array references;
* **one sharing path** — ``repro.cluster`` workers warm-start from the same
  mmap-backed snapshot payload; because :meth:`Arena.from_state` wraps the
  mapped bytes without copying (when they are suitably aligned), every shard
  executes its native kernels directly over the shared page cache;
* **one native handoff** — the C kernels of :mod:`repro.kernels.native`
  borrow the buffers via the buffer protocol (no memcpy), so a frozen kernel
  epoch is pointers into this arena, wherever its bytes physically live.

Arenas are immutable by contract: a store freezes one per kernel epoch and
never writes to it afterwards; a refreeze (:func:`regather`) writes into a
copy of the previous epoch's buffer.  Views are plain numpy slices of the buffer —
zero-copy, C-contiguous, and safe to hand to the native kernels.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.exceptions import VertexNotFoundError
from repro.kernels.native import native_kernel

#: Offset alignment inside the buffer.  64 bytes keeps every view cache-line
#: aligned when the buffer itself is (fresh allocations are; mmap-backed
#: buffers are checked and re-based if the payload landed unaligned).
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
        for name, dtype, offset, count in self.toc:
            if dtype not in _DTYPES:
                raise ValueError(f"arena entry {name!r} has unsupported dtype {dtype!r}")
            itemsize = np.dtype(dtype).itemsize
            end = offset + count * itemsize
            if offset < 0 or end > buffer.nbytes:
                raise ValueError(
                    f"arena entry {name!r} [{offset}:{end}] exceeds the "
                    f"{buffer.nbytes}-byte buffer"
                )
            self._views[name] = buffer[offset:end].view(dtype)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def pack(cls, arrays: Dict[str, object]) -> "Arena":
        """Pack named arrays into one aligned contiguous buffer.

        Insertion order is preserved in the table of contents; each array is
        converted to a C-contiguous 1-D array of its (preserved) dtype.
        """
        prepared: List[Tuple[str, object]] = []
        for name, values in arrays.items():
            array = np.ascontiguousarray(values)
            if array.ndim != 1:
                array = array.reshape(-1)
            if array.dtype.name not in _DTYPES:
                raise ValueError(
                    f"arena entry {name!r} has unsupported dtype {array.dtype}"
                )
            prepared.append((name, array))
        offset = 0
        toc: List[Tuple[str, str, int, int]] = []
        for name, array in prepared:
            offset = -(-offset // ALIGN) * ALIGN  # round up
            toc.append((name, array.dtype.name, offset, array.size))
            offset += array.nbytes
        buffer = np.zeros(offset if offset else 1, dtype=np.uint8)
        for (name, dtype, start, count), (_, array) in zip(toc, prepared):
            buffer[start : start + array.nbytes] = array.view(np.uint8)
        return cls(buffer, toc)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def view(self, name: str):
        """The zero-copy typed view of one entry (raises ``KeyError`` if absent)."""
        return self._views[name]

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
        """Reattach an arena onto a (possibly mmap-backed) payload array.

        The payload bytes are wrapped without copying whenever their base
        address is 8-byte aligned — the case for fresh arrays and for mmap
        views starting at aligned file offsets — so a cluster shard's kernels
        execute directly over the shared snapshot pages.  An unaligned
        payload (possible for npz members at odd zip offsets) is copied once
        into an aligned private buffer rather than served via misaligned
        loads.
        """
        raw = io.get_array(state["arena"])
        buffer = np.asarray(raw).view(np.uint8).reshape(-1)
        if buffer.ctypes.data % 8 != 0:  # pragma: no cover - zip-layout dependent
            buffer = np.array(buffer, dtype=np.uint8)
        return cls(buffer, [tuple(entry) for entry in state["toc"]])

    def is_shared(self) -> bool:
        """True when the buffer is a view onto an mmap-backed payload."""
        base = self.buffer
        while base is not None:
            if isinstance(base, np.memmap):
                return True
            base = getattr(base, "base", None)
        return False


# ----------------------------------------------------------------------
# Row mapping (shared by every arena-backed store)
# ----------------------------------------------------------------------

#: Largest vertex id (relative to the row count) for which the dense
#: id->row remap array is built; sparser id spaces keep the dict path.
REMAP_SLACK = 1024


def build_remap(ids) -> Optional[object]:
    """Dense ``id -> row`` remap array for a store's ``int64`` id column.

    Returns ``None`` when an id is negative or the id space is too sparse
    for a dense table to pay off; callers then fall back to the row dict.
    """
    if len(ids) == 0:
        return None
    lo = int(ids.min())
    hi = int(ids.max())
    if lo < 0 or hi >= len(ids) + REMAP_SLACK:
        return None
    remap = np.full(hi + 1, -1, dtype=np.int64)
    remap[ids] = np.arange(len(ids), dtype=np.int64)
    return remap


def rows_of(row: Dict, remap, vertices: Sequence):
    """Map a vertex sequence to an ``int64`` row array for the native kernels.

    With a dense remap this is one conversion plus one gather — no per-vertex
    Python.  Unknown vertices raise :class:`VertexNotFoundError` naming the
    first offender.
    """
    if remap is not None:
        try:
            arr = np.asarray(vertices, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            arr = None
        if arr is not None and arr.ndim == 1:
            if arr.size == 0:
                return arr
            if int(arr.min()) >= 0 and int(arr.max()) < len(remap):
                rows = remap[arr]
                if int(rows.min()) >= 0:
                    return rows
            for v in vertices:
                if v not in row:
                    raise VertexNotFoundError(v)
    try:
        return np.fromiter(
            (row[v] for v in vertices), dtype=np.int64, count=len(vertices)
        )
    except (KeyError, TypeError):
        for v in vertices:
            if v not in row:
                raise VertexNotFoundError(v) from None
        raise


# ----------------------------------------------------------------------
# Refreeze (shared by the CSR stores: ids / indptr / indices / weights)
# ----------------------------------------------------------------------
def count_freeze(store: str, layout: str) -> None:
    """Count one frozen store of kind ``store``; ``layout`` is ``"reused"``
    when only its values were gathered into the previous epoch's layout,
    ``"built"`` when the layout was derived afresh."""
    if obs.is_enabled():
        obs.registry().counter(
            "repro_kernel_store_freezes_total",
            "Frozen kernel stores built, by store kind and layout",
            store=store,
            layout=layout,
        ).inc()


def regather(template, ids: Sequence, rows: Iterable) -> Optional[Arena]:
    """The next epoch's arena of a CSR store whose layout survived.

    ``template`` is the previous epoch's store (``arena`` with ``ids`` /
    ``indptr`` / ``indices`` / ``weights`` entries, plus its ``row`` dict and
    ``_remap``); ``rows`` holds one ``neighbour id -> weight`` mapping per
    vertex of ``ids``.  Weight-only updates keep every key and its order, so
    the result is a copy of the template's buffer — same table of contents,
    so it packs and serializes exactly like a full freeze — whose
    ``weights`` the C kernel gathers from ``rows`` in one pass.  ``None``
    when the ids differ or any row no longer fits the layout (a key, a count
    or the order changed): the caller rebuilds the layout then.  The
    template is only read.
    """
    layout = template.arena
    if len(ids) != len(layout["ids"]) or not np.array_equal(layout["ids"], ids):
        return None
    arena = Arena(layout.buffer.copy(), layout.toc)
    remap = template.row if template._remap is None else template._remap
    try:
        native_kernel().gather_rows(
            rows, arena["indptr"], arena["weights"], remap, arena["indices"]
        )
    except ValueError:
        return None
    return arena
