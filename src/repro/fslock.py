"""Shared file-locking, atomic-write and keyed-file discipline for on-disk caches.

Several campaign processes may share one JSON file (results stores,
calibration caches).  ``os.replace`` alone makes each *file* write atomic,
but a load-compute-save cycle is still a read-modify-write race: the last
writer's file silently drops whatever the other writers added in between.
Every shared cache therefore follows the same two-part discipline:

* writers serialise on an exclusive ``flock`` of a ``<path>.lock`` sidecar
  (:func:`exclusive_lock`), merging the entries currently on disk into the
  write while the lock is held;
* the file itself is replaced atomically (:func:`atomic_write_text`, or
  :func:`atomic_write_json` for indented files people read), so readers
  never observe a half-written file.

On platforms without ``fcntl`` the merge still runs, unserialised.

:class:`KeyedFile` is the one implementation of that discipline for a
versioned ``key -> JSON value`` file; the results store and the calibration
cache are both thin owners of one.  Its file is a single JSON document laid
out in three parts::

    {"records":{
    "<key>":<compact sorted-key JSON>,
    "<key>":<compact sorted-key JSON>
    },"digest":"<sha256 of the entry lines>","version":2}

One entry per line, in sorted key order, so that everything a writer does
to entries it did not compute -- load, merge under the lock, write back --
is string work: the lines are split, keyed and joined without decoding a
single value, and a value is parsed only when somebody asks for it.  The
encoder escapes every non-ASCII and control character, so a raw newline can
only ever be a line boundary.  The digest covers the bytes between the
header line and the trailer; when header, trailer and digest all check out
the bytes are exactly what this writer produced and the line structure can
be trusted.  Any other file (an indented file of an older build, a
hand-edited or truncated one, a flipped byte) is parsed and validated in
full as one JSON document, and the next save rewrites it in this layout.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import StoreFormatError

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
    lists, archived failure traces, benchmark reports).
    """
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


# ------------------------------------------------------------------ keyed file
# One encoder for keys and values.  Without ``indent`` this is CPython's C
# encoder; the default ``ensure_ascii`` is what keeps raw newlines (and
# U+2028, lone surrogates, ...) out of an entry line.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_raw_decode = json.JSONDecoder().raw_decode

#: line of an entry that was ``put`` and is encoded by the next ``save``.
_UNSAVED = ""


def _entry_line(key: str, value: Any) -> str:
    return f"{_encode(key)}:{_encode(value)}"


@dataclass(frozen=True)
class KeyedFormat:
    """What distinguishes one kind of keyed file from another."""

    #: name of the top-level mapping (``records`` / ``entries``).
    section: str
    #: the only format version read or written.
    version: int
    #: noun phrases for the two rejection messages.
    kind: str
    version_label: str
    #: version assumed for a file that carries no ``version`` field.
    versionless: Optional[int] = None


class KeyedFile:
    """A versioned ``key -> JSON value`` file shared between processes.

    Entries are held as the text of their file line and decoded on demand
    (:meth:`get` one, :meth:`values` all).  Only :meth:`put` marks an entry
    for writing: a value handed out by :meth:`get` and mutated by the caller
    stays mutated in memory but is not written back.  ``path=None`` is a
    purely in-memory mapping.
    """

    def __init__(self, path: Optional[str], fmt: KeyedFormat) -> None:
        self.path = path
        self._format = fmt
        self._header = "{" + _encode(fmt.section) + ":{\n"
        self._trailer_length = len(self._trailer(b""))
        #: key -> entry line as on disk, or ``_UNSAVED``; owns the key set.
        self._lines: Dict[str, str] = {}
        #: values decoded so far, and every value that was ``put``.
        self._decoded: Dict[str, Any] = {}
        #: set by clear(): the next save() replaces the file outright instead
        #: of merging the on-disk entries back in (deliberate deletion).
        self._replace_on_save = False
        if path is not None and os.path.exists(path):
            self._lines, self._decoded = self._read(path)

    # ------------------------------------------------------------------- i/o
    def _trailer(self, body: bytes) -> str:
        digest = hashlib.sha256(body).hexdigest()
        return f'}},"digest":"{digest}","version":{self._format.version}}}\n'

    def _read(self, path: str) -> Tuple[Dict[str, str], Dict[str, Any]]:
        """``(lines, values already decoded)`` of the file as it is now."""
        with open(path, "rb") as fh:
            data = fh.read()
        lines = self._split(data)
        if lines is not None:
            return lines, {}
        values = self._parse(path, data)
        return {key: _entry_line(key, value) for key, value in values.items()}, values

    def _split(self, data: bytes) -> Optional[Dict[str, str]]:
        """The entry lines of ``data``, or ``None`` unless header, trailer
        and digest prove that this writer produced every byte of it."""
        header = self._header.encode("ascii")
        body_end = len(data) - self._trailer_length
        if body_end < len(header) or not data.startswith(header):
            return None
        body = data[len(header):body_end]
        if data[body_end:] != self._trailer(body).encode("ascii"):
            return None
        lines: Dict[str, str] = {}
        if not body:
            return lines
        if not body.endswith(b"\n"):
            return None
        try:
            # Never ``splitlines``: "\n" is the only line boundary written.
            for line in body.decode("utf-8")[:-1].split(",\n"):
                if line[:1] != '"':
                    return None
                # The encoder wrote the key, so the decoder takes it back:
                # no assumption about what a key string may contain.
                key, _ = _raw_decode(line)
                lines[key] = line
        except ValueError:  # undecodable bytes or key: not this writer's
            return None
        return lines

    def _parse(self, path: str, data: bytes) -> Dict[str, Any]:
        """Full parse and validation of a file :meth:`_split` did not accept."""
        fmt = self._format
        try:
            document = json.loads(data.decode("utf-8"))
        except ValueError as exc:
            raise StoreFormatError(f"{path}: not valid JSON ({exc})") from exc
        section = document.get(fmt.section) if isinstance(document, dict) else None
        if not isinstance(section, dict):
            raise StoreFormatError(f"{path}: not a {fmt.kind}")
        version = document.get("version", fmt.versionless)
        if version != fmt.version:
            raise StoreFormatError(
                f"{path}: unsupported {fmt.version_label} version {version!r}; "
                f"this build reads version {fmt.version} only"
            )
        if "digest" in document:
            print(
                f"warning: {path}: the digest does not match the stored {fmt.section} "
                "(edited or damaged file); read by a full parse, the next save rewrites it",
                file=sys.stderr,
            )
        return section

    def _loads(self, text: str) -> Dict[str, Any]:
        try:
            decoded: Dict[str, Any] = json.loads(text)
        except ValueError as exc:
            raise StoreFormatError(
                f"{self.path}: stored {self._format.section} do not decode ({exc})"
            ) from exc
        return decoded

    def save(self) -> None:
        """Write the file atomically (no-op for in-memory files).

        Safe under concurrent writers: an exclusive lock on ``<path>.lock``
        serialises the merge-and-replace, the file is re-read while the lock
        is held, and entries written by other processes since our load are
        merged in instead of dropped (our own entries win on key collisions).
        Entries are encoded here, not at :meth:`put`, so a value mutated
        between ``put`` and ``save`` is written as mutated.
        """
        path = self.path
        if path is None:
            return
        with exclusive_lock(path):
            lines = self._lines
            for key in [key for key, line in lines.items() if line == _UNSAVED]:
                lines[key] = _entry_line(key, self._decoded[key])
            if not self._replace_on_save and os.path.exists(path):
                merged, _ = self._read(path)
                merged.update(lines)
                self._lines = lines = merged
            body = ",\n".join([lines[key] for key in sorted(lines)])
            if body:
                body += "\n"
            atomic_write_text(
                path, self._header + body + self._trailer(body.encode("utf-8")))
            self._replace_on_save = False

    # --------------------------------------------------------------- entries
    def get(self, key: str) -> Any:
        """The value stored under ``key`` (decoded on first use), or ``None``."""
        decoded = self._decoded
        if key not in decoded:
            line = self._lines.get(key)
            if line is None:
                return None
            decoded[key] = self._loads("{" + line + "}")[key]
        return decoded[key]

    def put(self, key: str, value: Any) -> None:
        self._lines[key] = _UNSAVED
        self._decoded[key] = value

    def values(self) -> Dict[str, Any]:
        """Every entry, decoded."""
        decoded = self._decoded
        pending = [line for key, line in self._lines.items() if key not in decoded]
        if pending:
            decoded.update(self._loads("{" + ",".join(pending) + "}"))
        return {key: decoded[key] for key in self._lines}

    def clear(self) -> None:
        """Drop every entry; the next save() replaces the file (no merge)."""
        self._lines.clear()
        self._decoded.clear()
        self._replace_on_save = True

    def __contains__(self, key: str) -> bool:
        return key in self._lines

    def __len__(self) -> int:
        return len(self._lines)

    def __iter__(self) -> Iterator[str]:
        return iter(self._lines)
