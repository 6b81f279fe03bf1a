"""A reader-writer lock for the serving engine's epoch protocol.

Queries are readers (many may run at once); the maintenance worker is the
single writer.  The lock is *write-preferring*: once the writer is waiting,
new readers are refused (non-blocking) or queue behind it (blocking), so the
writer waits for the active readers to drain and no longer — with a fast
front end keeping several batches in flight the readers otherwise overlap
without a gap and the install starves.  The writer releases the lock at
every update-stage boundary (see ``repro.serving.engine.ServingEngine``);
those brief windows, when it is neither holding nor waiting, are exactly
where queued readers slip in.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional


class RWLock:
    """Write-preferring reader-writer lock built on a single condition variable."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    def acquire_read(self, blocking: bool = True, timeout: Optional[float] = None) -> bool:
        """Acquire the lock in shared mode; returns ``False`` on timeout/contention."""
        with self._cond:
            if not blocking:
                if self._writer_active or self._writers_waiting:
                    return False
                self._active_readers += 1
                return True
            acquired = self._cond.wait_for(
                lambda: not (self._writer_active or self._writers_waiting), timeout
            )
            if not acquired:
                return False
            self._active_readers += 1
            return True

    def release_read(self) -> None:
        with self._cond:
            if self._active_readers <= 0:
                raise RuntimeError("release_read without a matching acquire_read")
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------
    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        """Acquire the lock exclusively; returns ``False`` on timeout."""
        with self._cond:
            self._writers_waiting += 1
            try:
                acquired = self._cond.wait_for(
                    lambda: not self._writer_active and self._active_readers == 0, timeout
                )
            finally:
                self._writers_waiting -= 1
            if not acquired:
                # Readers that queued behind this writer may go again.
                self._cond.notify_all()
                return False
            self._writer_active = True
            return True

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write without a matching acquire_write")
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # ------------------------------------------------------------------
    # Introspection (primarily for tests)
    # ------------------------------------------------------------------
    @property
    def active_readers(self) -> int:
        with self._cond:
            return self._active_readers

    @property
    def writer_active(self) -> bool:
        with self._cond:
            return self._writer_active
