"""Shared file-locking and atomic-write discipline for on-disk campaign files.

Several campaign processes may share one JSON file (a results store).
``os.replace`` alone makes each *file* write atomic, but a
load-compute-save cycle is still a read-modify-write race: the last
writer's file silently drops whatever the other writers added in between.
Every shared file therefore follows the same two-part discipline:

* writers serialise on an exclusive ``flock`` of a ``<path>.lock`` sidecar
  (:func:`exclusive_lock`), merging the entries currently on disk into the
  write while the lock is held;
* the file itself is replaced atomically (:func:`atomic_write_text`, or
  :func:`atomic_write_json` for indented files people read), so readers
  never observe a half-written file.

On platforms without ``fcntl`` the merge still runs, unserialised.
:class:`repro.campaign.store.ResultsStore` is built on these helpers.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import Any, Iterator

try:  # POSIX; on platforms without fcntl the merge still runs, unserialised.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


@contextmanager
def exclusive_lock(path: str) -> Iterator[None]:
    """Hold an exclusive advisory lock on ``<path>.lock`` for the block.

    The parent directory is created if missing.  A no-op (but still a valid
    context manager) where ``fcntl`` is unavailable.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(lock_fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock_fd, fcntl.LOCK_UN)
    finally:
        os.close(lock_fd)


def atomic_write_text(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8, newlines written as given).

    The text is written to a temporary file in the same directory and moved
    into place with ``os.replace``, so concurrent readers see either the old
    or the new file, never a partial one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_json(path: str, payload: Any) -> None:
    """Replace ``path`` with ``payload`` serialised as sorted-key JSON.

    Sorted keys keep files with identical content byte-identical regardless
    of insertion order; the indented layout is for files people read (spec
    lists, benchmark reports).
    """
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")
