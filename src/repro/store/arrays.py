"""Flat-array payloads of an index snapshot: ``.npz`` with mmap, JSON fallback.

A snapshot's structural metadata lives in a small JSON tree (see
``repro.store.snapshot``); every bulk array — CSR label data, contraction
orders, supporter lists, edge arrays — is pulled out of that tree into a
single *payload* file and referenced by name.  Two backends implement the
payload:

* ``npz`` — an ``np.load``-compatible uncompressed archive written by
  :func:`_write_aligned_npz`, which pads each member to a 64-byte data
  offset (plain ``np.savez`` leaves member alignment to chance).  Because
  members are stored with ``ZIP_STORED``, each is a verbatim ``.npy`` byte
  range inside the archive; :class:`NpzPayloadReader` locates those ranges
  and attaches :class:`numpy.memmap` views directly onto them, so loading a
  snapshot maps the flat arrays instead of copying them through the zip
  layer.  Any structural surprise (compressed member, malformed header)
  degrades to an eager in-memory read of that member.
* ``json`` — a plain JSON object of lists, used when numpy is unavailable
  (the pure-Python reference paths).  Python's ``json`` round-trips floats
  through ``repr``, so values survive bit-exactly, including ``inf``.

Both backends raise :class:`~repro.exceptions.SnapshotFormatError` for
missing or truncated payloads so callers never silently read garbage.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zipfile
from typing import Dict, List, Optional, Sequence, Union

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

from repro.exceptions import SnapshotFormatError

#: An array reference as it appears inside the snapshot's JSON state tree.
ArrayRef = Dict[str, str]

_REF_KEY = "__array__"

#: Alignment of every ``.npy`` member's data inside the ``.npz`` archive.
#: ``np.savez`` places members at arbitrary offsets, so whether a member's
#: data lands 8-byte aligned is luck of cumulative member sizes; a memmap
#: view at a misaligned offset forces :class:`repro.kernels.arena.Arena`
#: (and the native kernels, which require aligned 8-byte buffers) to copy
#: the payload, silently losing cross-process sharing.  64 matches numpy's
#: own in-file npy data alignment (``ARRAY_ALIGN``) and cache-line size.
_MEMBER_ALIGN = 64


def _write_aligned_npz(handle, arrays: Dict[str, object]) -> None:
    """Write ``arrays`` as an uncompressed ``.npz`` with aligned members.

    Output is a standard ``np.load``-compatible archive; the only difference
    from ``np.savez`` is a padding *extra field* in each local file header
    sized so the member starts on a :data:`_MEMBER_ALIGN` boundary.  The npy
    format itself pads its header so array data begins at a 64-byte multiple
    within the member, so member alignment gives data alignment.
    """
    with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            payload = io.BytesIO()
            np.lib.format.write_array(
                payload, np.asarray(array), allow_pickle=False
            )
            filename = name + ".npy"
            info = zipfile.ZipInfo(filename, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_STORED
            # Member data starts after the 30-byte local header, the
            # filename and the extra field; pad the extra field (a valid
            # zip record: 2-byte id, 2-byte length, payload) to align it.
            base = archive.fp.tell() + 30 + len(filename.encode())
            pad = (-base) % _MEMBER_ALIGN
            if 0 < pad < 4:
                pad += _MEMBER_ALIGN
            if pad:
                info.extra = struct.pack("<HH", 0x7061, pad - 4) + b"\x00" * (pad - 4)
            archive.writestr(info, payload.getvalue())


def is_ref(value: object) -> bool:
    """True when ``value`` is an array reference produced by a writer."""
    return isinstance(value, dict) and _REF_KEY in value


class ArrayWriter:
    """Collects named arrays during ``to_state`` and writes one payload file."""

    def __init__(self, backend: Optional[str] = None):
        if backend is None:
            backend = "npz" if np is not None else "json"
        if backend == "npz" and np is None:
            raise SnapshotFormatError("the 'npz' payload backend requires numpy")
        if backend not in ("npz", "json"):
            raise SnapshotFormatError(f"unknown payload backend {backend!r}")
        self.backend = backend
        self._arrays: Dict[str, object] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    def _add(self, values: Sequence, dtype: str) -> ArrayRef:
        name = f"a{self._counter:04d}"
        self._counter += 1
        if self.backend == "npz":
            self._arrays[name] = np.asarray(values, dtype=dtype)
        else:
            self._arrays[name] = [
                int(v) if dtype == "int64" else float(v) for v in values
            ]
        return {_REF_KEY: name}

    def put_ints(self, values: Sequence[int]) -> ArrayRef:
        """Store an int64 array; returns the reference to embed in the state tree."""
        return self._add(values, "int64")

    def put_floats(self, values: Sequence[float]) -> ArrayRef:
        """Store a float64 array; returns the reference to embed in the state tree."""
        return self._add(values, "float64")

    def put_array(self, array) -> ArrayRef:
        """Store an existing numpy array verbatim (npz backend only)."""
        if self.backend != "npz":
            raise SnapshotFormatError("raw array payloads require the npz backend")
        name = f"a{self._counter:04d}"
        self._counter += 1
        self._arrays[name] = np.ascontiguousarray(array)
        return {_REF_KEY: name}

    # ------------------------------------------------------------------
    @property
    def filename(self) -> str:
        return "payload.npz" if self.backend == "npz" else "payload.json"

    def write(self, directory: str) -> str:
        """Write the payload file into ``directory``; returns its filename.

        The payload is written to a temp file and ``os.replace``d into
        place: overwriting in place would truncate a file that live indexes
        may still hold mmap views into (re-saving a loaded index over its
        own snapshot), which turns their next page fault into a SIGBUS.
        The rename drops the old name while the old inode survives for
        existing mappings.
        """
        path = os.path.join(directory, self.filename)
        tmp_path = path + ".tmp"
        if self.backend == "npz":
            with open(tmp_path, "wb") as handle:
                _write_aligned_npz(handle, self._arrays)
        else:
            with open(tmp_path, "w") as handle:
                json.dump(self._arrays, handle)
        os.replace(tmp_path, path)
        return self.filename


class ArrayReader:
    """Common interface of the two payload readers."""

    def _fetch(self, name: str):
        raise NotImplementedError

    def _resolve(self, ref: ArrayRef):
        if not is_ref(ref):
            raise SnapshotFormatError(f"expected an array reference, got {ref!r}")
        return self._fetch(ref[_REF_KEY])

    def get_list(self, ref: ArrayRef) -> List:
        """The referenced array as a plain Python list (ints / floats)."""
        values = self._resolve(ref)
        return values.tolist() if hasattr(values, "tolist") else list(values)

    def get_array(self, ref: ArrayRef):
        """The referenced array in its native form (mmap/ndarray, or a list)."""
        return self._resolve(ref)


class JsonPayloadReader(ArrayReader):
    """Reader for the pure-Python JSON payload."""

    def __init__(self, path: str):
        try:
            with open(path) as handle:
                self._arrays = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SnapshotFormatError(f"unreadable JSON payload {path!r}: {exc}") from exc
        if not isinstance(self._arrays, dict):
            raise SnapshotFormatError(f"JSON payload {path!r} is not an object")

    def _fetch(self, name: str):
        try:
            return self._arrays[name]
        except KeyError:
            raise SnapshotFormatError(f"payload is missing array {name!r}") from None


class NpzPayloadReader(ArrayReader):
    """Reader for the ``.npz`` payload with mmap-backed member access.

    ``numpy.savez`` members are uncompressed ``.npy`` files at known offsets
    inside the zip; for each member the local file header and the npy header
    are parsed once, and :func:`numpy.memmap` attaches a read-only view at
    the data offset.  The zip central directory lives at the end of the
    file, so truncation is detected up front by :class:`zipfile.ZipFile`.
    """

    def __init__(self, path: str, mmap: bool = True):
        if np is None:
            raise SnapshotFormatError("reading an npz payload requires numpy")
        self._path = path
        self._mmap = mmap
        self._members: Dict[str, zipfile.ZipInfo] = {}
        self._cache: Dict[str, object] = {}
        self._eager = None
        try:
            # ZipFile validates the end-of-archive central directory, so a
            # truncated payload fails here instead of yielding short arrays.
            with zipfile.ZipFile(path) as archive:
                for info in archive.infolist():
                    name = info.filename
                    if name.endswith(".npy"):
                        name = name[: -len(".npy")]
                    self._members[name] = info
        except (OSError, zipfile.BadZipFile) as exc:
            raise SnapshotFormatError(f"unreadable npz payload {path!r}: {exc}") from exc

    # ------------------------------------------------------------------
    def _mmap_member(self, info: zipfile.ZipInfo):
        """A read-only memmap of one uncompressed ``.npy`` member, or ``None``."""
        if not self._mmap or info.compress_type != zipfile.ZIP_STORED:
            return None
        # A handle per member: one kept open would share its file offset with
        # every thread, and every forked process, fetching members.
        with open(self._path, "rb") as handle:
            # Local file header: 30 fixed bytes, then filename + extra field
            # (whose lengths can differ from the central directory's copy).
            handle.seek(info.header_offset)
            header = handle.read(30)
            if len(header) != 30 or header[:4] != b"PK\x03\x04":
                return None
            name_len, extra_len = struct.unpack("<HH", header[26:30])
            handle.seek(info.header_offset + 30 + name_len + extra_len)
            try:
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
                else:
                    return None
            except (ValueError, OSError):
                return None
            offset = handle.tell()
        if fortran or dtype.hasobject:
            return None
        if any(dim == 0 for dim in shape):
            return np.empty(shape, dtype=dtype)
        return np.memmap(self._path, dtype=dtype, mode="r", shape=shape, offset=offset)

    def _fetch(self, name: str):
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        info = self._members.get(name)
        if info is None:
            raise SnapshotFormatError(f"payload is missing array {name!r}")
        array = self._mmap_member(info)
        if array is None:
            # Fallback: one eager np.load shared across members.
            if self._eager is None:
                try:
                    self._eager = np.load(self._path, allow_pickle=False)
                except (OSError, ValueError, zipfile.BadZipFile) as exc:
                    raise SnapshotFormatError(
                        f"unreadable npz payload {self._path!r}: {exc}"
                    ) from exc
            try:
                array = self._eager[name]
            except KeyError:
                raise SnapshotFormatError(f"payload is missing array {name!r}") from None
        self._cache[name] = array
        return array


def open_payload(
    directory: str, filename: str, backend: str, mmap: bool = True
) -> Union[JsonPayloadReader, NpzPayloadReader]:
    """Open the payload file named by a snapshot manifest."""
    path = os.path.join(directory, filename)
    if not os.path.exists(path):
        raise SnapshotFormatError(f"snapshot payload {path!r} does not exist")
    if backend == "json":
        return JsonPayloadReader(path)
    if backend == "npz":
        return NpzPayloadReader(path, mmap=mmap)
    raise SnapshotFormatError(f"unknown payload backend {backend!r}")
