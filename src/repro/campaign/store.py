"""Spec-hash-keyed JSON store for completed campaign records.

The store maps :meth:`ScenarioSpec.spec_hash` to the record produced by the
scenario's job.  Records are pure JSON (see
:func:`repro.campaign.jobs.jsonify`); the file is written with sorted keys
so two campaigns that computed the same records produce byte-identical
files regardless of execution order or worker count.

The file is a single JSON document laid out in three parts::

    {"records":{
    "<spec hash>":<compact sorted-key JSON>,
    "<spec hash>":<compact sorted-key JSON>
    },"digest":"<sha256 of the record lines>","version":2}

One record per line, in spec-hash order, so that everything a writer does
to records it did not compute -- load, merge under the lock, write back --
is string work: the lines are split, keyed and joined without decoding a
single value, and a record is parsed only when :meth:`ResultsStore.get` or
:meth:`ResultsStore.records` asks for it.  A campaign that adds 32 records
to a 10 000-record store therefore encodes 32 records and moves the other
10 000 as text.  The encoder escapes every non-ASCII and control character,
so a raw newline can only ever be a line boundary.  The digest covers the
bytes between the header line and the trailer; when header, trailer and
digest all check out the bytes are exactly what this writer produced and the
line structure can be trusted.  Any other file (an indented file of an older
build, a hand-edited or truncated one, a flipped byte) is parsed and
validated in full as one JSON document, and the next save rewrites it in
this layout.  Being plain JSON, the file is read unchanged by builds that
predate the line layout.

A trusted line is keyed by slicing: its key is the text between the opening
quote and the first ``":`` after it.  Where that slice holds no backslash
and no quote it holds no escape, so it is the key as written; otherwise (a
key with a quote, a backslash, a ``":`` of its own, or any non-ASCII
character, which the encoder writes as an escape), and for a line without
``":``, the JSON decoder takes the key back from the line.

The on-disk format is versioned.  Version 2 (the only one read) stores every
record with a ``{"status", "metrics", "data"}`` result section (see
:mod:`repro.results`).  Any other version -- including the version-1 files
of early builds, which carry no ``version`` field -- is rejected with a clear
error instead of being silently misread.

Concurrent writers: several campaign processes may share one store file
(parallel sweeps, CI jobs).  ``os.replace`` alone made each *file* write
atomic but the load-compute-save cycle was still a read-modify-write race:
the last writer's file silently dropped every record the other writers had
added in between.  :meth:`ResultsStore.save` therefore serialises writers
with an exclusive ``flock`` on a ``<path>.lock`` sidecar and, while holding
it, merges the records currently on disk into the write (records this store
computed win on hash collisions -- by construction they describe the same
spec anyway).  The file is always read and its digest checked under the
lock; only when its verified trailer is the one this store last read or
wrote -- the file then holds exactly the lines this store already has --
are the split and the merge skipped.  No mtime or inode shortcut: a file is
known by its digest only.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import StoreFormatError
from repro.fslock import atomic_write_text, exclusive_lock

STORE_VERSION = 2
#: name of the top-level mapping.
_SECTION = "records"
#: version assumed for a file that carries no ``version`` field (early builds).
_VERSIONLESS = 1

# One encoder for keys and values.  Without ``indent`` this is CPython's C
# encoder; the default ``ensure_ascii`` is what keeps raw newlines (and
# U+2028, lone surrogates, ...) out of an entry line.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_raw_decode = json.JSONDecoder().raw_decode

_HEADER = "{" + _encode(_SECTION) + ":{\n"

#: line of an entry that was ``put`` and is encoded by the next ``save``.
_UNSAVED = ""


def _entry_line(key: str, value: Any) -> str:
    return f"{_encode(key)}:{_encode(value)}"


def _trailer(body: bytes) -> str:
    digest = hashlib.sha256(body).hexdigest()
    return f'}},"digest":"{digest}","version":{STORE_VERSION}}}\n'


_TRAILER_LENGTH = len(_trailer(b""))


def _verified_body(data: bytes) -> Optional[bytes]:
    """The bytes between header and trailer of ``data``, or ``None`` unless
    header, trailer and digest prove that this writer produced every byte."""
    header = _HEADER.encode("ascii")
    body_end = len(data) - _TRAILER_LENGTH
    if body_end < len(header) or not data.startswith(header):
        return None
    body = data[len(header):body_end]
    if data[body_end:] != _trailer(body).encode("ascii"):
        return None
    return body


def _split_lines(body: bytes) -> Optional[Dict[str, str]]:
    """Key -> entry line of a verified body, or ``None`` if a line is not
    an entry after all."""
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
            # The key is what lies between the opening quote and the first
            # '":' after it (a key may start with ':').  A slice without a
            # backslash holds no escape, so it is the key itself; a slice
            # with a backslash or a quote (an escaped character, or a '":'
            # inside the key), or no '":' at all, goes back to the decoder,
            # which takes back whatever the encoder wrote.
            end = line.find('":', 1)
            key = line[1:end]
            if end < 0 or "\\" in key or '"' in key:
                key, _ = _raw_decode(line)
            lines[key] = line
    except ValueError:  # undecodable bytes or key: not this writer's
        return None
    return lines


class ResultsStore:
    """JSON-file-backed (or purely in-memory, ``path=None``) record cache.

    Records are held as the text of their file line and decoded on demand
    (:meth:`get` one, :meth:`records` all).  Only :meth:`put` marks a record
    for writing.  A record returned by :meth:`get` (a campaign cache hit,
    say) and then mutated by the caller stays mutated in this object but is
    not written back by :meth:`save`; ``put`` it again to store the change.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        #: spec hash -> record line as on disk, or ``_UNSAVED``; owns the key set.
        self._lines: Dict[str, str] = {}
        #: records decoded so far, and every record that was ``put``.
        self._decoded: Dict[str, Any] = {}
        #: set by clear(): the next save() replaces the file outright instead
        #: of merging the on-disk records back in (deliberate deletion).
        self._replace_on_save = False
        #: trailer (digest included) of the file as this store last read or
        #: wrote it, while that file is in the line layout.
        self._seen: Optional[bytes] = None
        if path is not None and os.path.exists(path):
            read = self._read(path)
            assert read is not None  # nothing is known yet
            self._lines, self._decoded = read

    # ------------------------------------------------------------------- i/o
    def _read(
        self, path: str, known: Optional[bytes] = None
    ) -> Optional[Tuple[Dict[str, str], Dict[str, Any]]]:
        """``(lines, values already decoded)`` of the file as it is now, or
        ``None`` when its verified trailer is ``known``: the file then holds
        exactly the lines this store last read or wrote."""
        with open(path, "rb") as fh:
            data = fh.read()
        body = _verified_body(data)
        if body is not None:
            trailer = data[len(data) - _TRAILER_LENGTH:]
            if trailer == known:
                return None
            lines = _split_lines(body)
            if lines is not None:
                self._seen = trailer
                return lines, {}
        self._seen = None
        values = self._parse(path, data)
        return {key: _entry_line(key, value) for key, value in values.items()}, values

    @staticmethod
    def _parse(path: str, data: bytes) -> Dict[str, Any]:
        """Full parse and validation of a file :func:`_split_lines` did not accept."""
        try:
            document = json.loads(data.decode("utf-8"))
        except ValueError as exc:
            raise StoreFormatError(f"{path}: not valid JSON ({exc})") from exc
        section = document.get(_SECTION) if isinstance(document, dict) else None
        if not isinstance(section, dict):
            raise StoreFormatError(f"{path}: not a campaign results store")
        version = document.get("version", _VERSIONLESS)
        if version != STORE_VERSION:
            raise StoreFormatError(
                f"{path}: unsupported results-store version {version!r}; "
                f"this build reads version {STORE_VERSION} only"
            )
        if "digest" in document:
            print(
                f"warning: {path}: the digest does not match the stored {_SECTION} "
                "(edited or damaged file); read by a full parse, the next save rewrites it",
                file=sys.stderr,
            )
        return section

    def _loads(self, text: str) -> Dict[str, Any]:
        try:
            decoded: Dict[str, Any] = json.loads(text)
        except ValueError as exc:
            raise StoreFormatError(
                f"{self.path}: stored {_SECTION} do not decode ({exc})"
            ) from exc
        return decoded

    def save(self) -> None:
        """Write the store atomically (no-op for in-memory stores).

        Safe under concurrent writers: an exclusive lock on ``<path>.lock``
        serialises the merge-and-replace, the file is re-read while the lock
        is held, and records written by other processes since our load are
        merged in instead of dropped (this store's own records win on
        spec-hash collisions).  Records are encoded here, not at :meth:`put`,
        so a record mutated between ``put`` and ``save`` is written as
        mutated.
        """
        path = self.path
        if path is None:
            return
        with exclusive_lock(path):
            lines = self._lines
            for key in [key for key, line in lines.items() if line == _UNSAVED]:
                lines[key] = _entry_line(key, self._decoded[key])
            if not self._replace_on_save and os.path.exists(path):
                # A file whose verified trailer is the one this store last
                # read or wrote holds no line this store lacks: no merge.
                read = self._read(path, known=self._seen)
                if read is not None:
                    merged, _ = read
                    merged.update(lines)
                    self._lines = lines = merged
            body = ",\n".join([lines[key] for key in sorted(lines)])
            if body:
                body += "\n"
            trailer = _trailer(body.encode("utf-8"))
            atomic_write_text(path, _HEADER + body + trailer)
            self._seen = trailer.encode("ascii")
            self._replace_on_save = False

    # --------------------------------------------------------------- entries
    def get(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        """The record stored under ``spec_hash`` (decoded on first use), or ``None``."""
        decoded = self._decoded
        if spec_hash not in decoded:
            line = self._lines.get(spec_hash)
            if line is None:
                return None
            decoded[spec_hash] = self._loads("{" + line + "}")[spec_hash]
        record: Dict[str, Any] = decoded[spec_hash]
        return record

    def put(self, spec_hash: str, record: Dict[str, Any]) -> None:
        self._lines[spec_hash] = _UNSAVED
        self._decoded[spec_hash] = record

    def records(self) -> Dict[str, Dict[str, Any]]:
        """Every record, decoded."""
        decoded = self._decoded
        pending = [line for key, line in self._lines.items() if key not in decoded]
        if pending:
            decoded.update(self._loads("{" + ",".join(pending) + "}"))
        return {key: decoded[key] for key in self._lines}

    def clear(self) -> None:
        """Drop every record; the next save() replaces the file (no merge)."""
        self._lines.clear()
        self._decoded.clear()
        self._replace_on_save = True

    def __contains__(self, spec_hash: str) -> bool:
        return spec_hash in self._lines

    def __len__(self) -> int:
        return len(self._lines)

    def __iter__(self) -> Iterator[str]:
        return iter(self._lines)
