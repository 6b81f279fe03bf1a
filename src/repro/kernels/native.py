"""Build/load machinery for the native (C) label-store kernel.

The scalar H2H-family query is a ~20-entry hub scan whose per-element cost in
CPython is irreducible (~40 ns of interpreter work per hub); compiling the
scan — and the Euler-tour LCA feeding it — to C is what moves the scalar
query from "somewhat faster" to "memory-bandwidth bound".  The kernel is a
single small extension module (``_labelkernel.c``, shipped next to this file)
compiled on demand with the platform C compiler into a per-user cache
directory and loaded via :mod:`importlib`.  Nothing is downloaded and nothing
is installed: the build is one ``cc -O2 -shared`` invocation on a file that is
part of the package.

Gating: the native kernel is attempted only on CPython, can be disabled with
``REPRO_DISABLE_NATIVE_KERNELS=1``, and every failure mode (no compiler, no
headers, sandboxed filesystem, exotic platform) degrades silently to the
pure-Python rung: no frozen store exists without the kernel (see
``repro.kernels``), so every index answers through its reference path and
maintains through the pure loops — the kernel is an accelerator, never a
dependency.  Only ``repro.cluster`` refuses to start without it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
import sysconfig
import tempfile
import threading
from typing import Optional

_MODULE_NAME = "_labelkernel"
_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_labelkernel.c")

_lock = threading.Lock()
_loaded = False
_module = None
_failure: Optional[str] = None


def _disabled_by_env() -> bool:
    return os.environ.get("REPRO_DISABLE_NATIVE_KERNELS", "") not in ("", "0")


def _check_private(path: str) -> str:
    """Ensure ``path`` exists, is owned by us and is not group/world-writable.

    The cache directory holds shared objects that get ``exec_module``-ed; on a
    multi-user host a predictable path another user controls would be a code
    injection vector, so refuse anything we don't exclusively own.
    """
    os.makedirs(path, mode=0o700, exist_ok=True)
    if hasattr(os, "getuid"):
        info = os.stat(path)
        if info.st_uid != os.getuid() or (info.st_mode & 0o022):
            raise OSError(f"cache directory {path!r} is not exclusively ours")
    return path


def _cache_dir(tag: str) -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    try:
        return _check_private(os.path.join(base, "repro-kernels", tag))
    except OSError:
        uid = os.getuid() if hasattr(os, "getuid") else "user"
        return _check_private(
            os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}-{tag}")
        )


def _extra_cflags() -> list:
    """Extra compiler flags from ``REPRO_KERNEL_CFLAGS`` (e.g. ``-Wall -Werror``)."""
    return os.environ.get("REPRO_KERNEL_CFLAGS", "").split()


def _build_tag(source: bytes) -> str:
    """Cache key for the compiled object: ABI + source hash + flag hash.

    Hashing the C source guarantees an edited ``_labelkernel.c`` can never be
    served a stale cached binary; hashing the extra flags keeps e.g. a
    ``-Wall -Werror`` CI build from colliding with a default build.
    """
    hasher = hashlib.sha256(source)
    hasher.update(b"\x00" + " ".join(_extra_cflags()).encode())
    digest = hasher.hexdigest()[:16]
    abi = sysconfig.get_config_var("SOABI") or f"py{sys.version_info[0]}{sys.version_info[1]}"
    return f"{abi}-{digest}"


def _compile(source_path: str, out_path: str) -> Optional[str]:
    """Compile the extension; returns an error string or ``None`` on success."""
    include = sysconfig.get_paths().get("include")
    if not include or not os.path.exists(os.path.join(include, "Python.h")):
        return "Python development headers not found"
    cc = sysconfig.get_config_var("CC") or "cc"
    command = cc.split() + ["-O2", "-shared", "-fPIC", f"-I{include}"]
    command += _extra_cflags() + [source_path, "-o", out_path]
    if sys.platform == "darwin":
        command.insert(-2, "-undefined")
        command.insert(-2, "dynamic_lookup")
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=False
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return f"compiler invocation failed: {exc}"
    if proc.returncode != 0:
        return f"compilation failed: {proc.stderr.strip()[:500]}"
    return None


def _load_from(path: str):
    spec = importlib.util.spec_from_file_location(_MODULE_NAME, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _try_load():
    if _disabled_by_env():
        return None, "disabled via REPRO_DISABLE_NATIVE_KERNELS"
    if sys.implementation.name != "cpython":
        return None, f"native kernel requires CPython, running {sys.implementation.name}"
    try:
        with open(_SOURCE_PATH, "rb") as handle:
            source = handle.read()
    except OSError as exc:
        return None, f"kernel source unavailable: {exc}"
    tag = _build_tag(source)
    try:
        directory = _cache_dir(tag)
    except OSError as exc:
        return None, f"no writable cache directory: {exc}"
    ext = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = os.path.join(directory, _MODULE_NAME + ext)
    if not os.path.exists(target):
        # Compile to a unique temp name and rename atomically so concurrent
        # processes never import a half-written shared object.
        scratch = target + f".tmp-{os.getpid()}"
        error = _compile(_SOURCE_PATH, scratch)
        if error is not None:
            try:
                os.unlink(scratch)
            except OSError:
                pass
            return None, error
        os.replace(scratch, target)
    try:
        return _load_from(target), None
    except Exception as exc:  # corrupted cache entry: rebuild once
        try:
            os.unlink(target)
        except OSError:
            return None, f"import failed: {exc}"
        scratch = target + f".tmp-{os.getpid()}"
        error = _compile(_SOURCE_PATH, scratch)
        if error is not None:
            return None, error
        os.replace(scratch, target)
        try:
            return _load_from(target), None
        except Exception as exc2:
            return None, f"import failed after rebuild: {exc2}"


def native_kernel():
    """The compiled ``_labelkernel`` module, or ``None`` when unavailable.

    The first call triggers (at most) one compilation; the result — success
    or failure — is cached for the lifetime of the process.
    """
    global _loaded, _module, _failure
    if _loaded:
        return _module
    with _lock:
        if not _loaded:
            _module, _failure = _try_load()
            _loaded = True
    return _module


def native_kernel_error() -> Optional[str]:
    """Why the native kernel is unavailable (``None`` when it loaded fine)."""
    native_kernel()
    return _failure
