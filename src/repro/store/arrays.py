"""Flat-array payload of an index snapshot: one arena file, mapped once.

A snapshot's structural metadata lives in a small JSON tree (see
``repro.store.snapshot``); every bulk array — CSR label data, contraction
orders, supporter lists, edge arrays, store arenas — is pulled out of that
tree into a single *payload* file and referenced by name.  The payload is an
:class:`~repro.kernels.arena.Arena` on disk: :class:`ArrayWriter` lays the
arrays out by :func:`~repro.kernels.arena.layout` (each at a 64-byte offset)
and writes their bytes straight to ``payload.bin``; the table of contents
goes into the state tree.  :class:`ArrayReader` maps the file once with
:class:`numpy.memmap` and wraps it in an ``Arena``, so every array a load
reads is a view of that one mapping, and a nested store arena lands 64-byte
aligned in a page-aligned mapping.

The payload ends where its last entry ends, so a truncated file leaves an
entry past the end: the arena's bounds check refuses it, as it refuses a
corrupted table of contents.  That, a missing payload, and a manifest naming
any other payload format (the zipped ``npz`` and pure-JSON payloads of older
snapshots included) raise :class:`~repro.exceptions.SnapshotFormatError`, so
callers never silently read garbage.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import SnapshotFormatError
from repro.kernels.arena import Arena, layout

#: An array reference as it appears inside the snapshot's JSON state tree.
ArrayRef = Dict[str, str]

_REF_KEY = "__array__"


def is_ref(value: object) -> bool:
    """True when ``value`` is an array reference produced by a writer."""
    return isinstance(value, dict) and _REF_KEY in value


class ArrayWriter:
    """Collects named arrays during ``to_state`` and writes one payload file."""

    #: The payload format every snapshot manifest records, and its file
    #: name inside the snapshot directory.
    backend = "arena"
    filename = "payload.bin"

    def __init__(self):
        self._arrays: Dict[str, object] = {}
        #: ``id(array) -> (array, name)`` of every array put so far; holding
        #: the object keeps its identity from being reused.
        self._names: Dict[int, Tuple[object, str]] = {}

    # ------------------------------------------------------------------
    def put_array(self, array) -> ArrayRef:
        """Store an array verbatim; returns the reference to embed in the
        state tree.  The same array object put again (an arena two owners
        pack: a contraction and its store, labels and theirs) is written once
        and referenced twice."""
        known = self._names.get(id(array))
        if known is None:
            known = self._names[id(array)] = (array, f"a{len(self._arrays):04d}")
            self._arrays[known[1]] = np.ascontiguousarray(array)
        return {_REF_KEY: known[1]}

    def put_ints(self, values: Sequence[int]) -> ArrayRef:
        """Store an int64 array; returns the reference to embed in the state tree."""
        return self.put_array(np.asarray(values, dtype=np.int64))

    def put_floats(self, values: Sequence[float]) -> ArrayRef:
        """Store a float64 array; returns the reference to embed in the state tree."""
        return self.put_array(np.asarray(values, dtype=np.float64))

    # ------------------------------------------------------------------
    def write(self, directory: str) -> List[Tuple[str, str, int, int]]:
        """Write the payload file into ``directory``; returns its table of
        contents, which the state tree records.

        The payload is written to a temp file and ``os.replace``d into
        place: overwriting in place would truncate a file that live indexes
        may still hold mmap views into (re-saving a loaded index over its
        own snapshot), which turns their next page fault into a SIGBUS.
        The rename drops the old name while the old inode survives for
        existing mappings.
        """
        toc, flat, _ = layout(self._arrays)
        path = os.path.join(directory, self.filename)
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as handle:
            for (_, _, offset, _), array in zip(toc, flat):
                handle.write(bytes(offset - handle.tell()))
                handle.write(array.data)
        os.replace(tmp_path, path)
        return toc


class ArrayReader:
    """The payload as one :class:`~repro.kernels.arena.Arena` over one
    read-only :class:`numpy.memmap` of the file, taken at open."""

    def __init__(self, path: str, toc):
        try:
            with open(path, "rb") as handle:
                # An empty file cannot be mapped; it holds only empty entries.
                if os.fstat(handle.fileno()).st_size:
                    buffer = np.memmap(handle, dtype=np.uint8, mode="r")
                else:
                    buffer = np.empty(0, dtype=np.uint8)
            self.arena = Arena(buffer, toc)
        except (OSError, TypeError, ValueError) as exc:
            raise SnapshotFormatError(f"unreadable snapshot payload {path!r}: {exc}") from exc

    def get_list(self, ref: ArrayRef) -> List:
        """The referenced array as a plain Python list (ints / floats)."""
        return self.get_array(ref).tolist()

    def get_array(self, ref: ArrayRef):
        """The referenced array: a view of the payload's mapping."""
        if not is_ref(ref):
            raise SnapshotFormatError(f"expected an array reference, got {ref!r}")
        try:
            return self.arena[ref[_REF_KEY]]
        except (KeyError, TypeError):
            raise SnapshotFormatError(f"payload is missing array {ref[_REF_KEY]!r}") from None


def open_payload(directory: str, filename: str, backend: str, toc) -> ArrayReader:
    """Open the payload file named by a snapshot manifest, laid out as the
    table of contents ``toc`` its state tree records."""
    if backend != ArrayWriter.backend:
        raise SnapshotFormatError(
            f"snapshot payload backend {backend!r} is not readable (only "
            f"{ArrayWriter.backend!r} is); re-save the snapshot"
        )
    return ArrayReader(os.path.join(directory, filename), toc)
