"""Spec-hash-keyed JSON store for completed campaign records.

The store maps :meth:`ScenarioSpec.spec_hash` to the record produced by the
scenario's job.  Records are pure JSON (see
:func:`repro.campaign.jobs.jsonify`); the file is written with sorted keys
so two campaigns that computed the same records produce byte-identical
files regardless of execution order or worker count.

The file is a :class:`repro.fslock.KeyedFile` (layout, locking and merge
are documented there): one JSON document, one record per line in spec-hash
order, closed by a trailer that carries a SHA-256 digest of the record lines
and the format version.  A campaign that adds 32 records to a 10 000-record
store therefore encodes 32 records and moves the other 10 000 as text, and a
record is parsed only when :meth:`ResultsStore.get` or
:meth:`ResultsStore.records` asks for it.  Being plain JSON, the file is read
unchanged by builds that predate the line layout, and the indented files
those builds wrote are read here by a full parse and rewritten in the line
layout by the next :meth:`ResultsStore.save`.

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
spec anyway).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.fslock import KeyedFile, KeyedFormat

STORE_VERSION = 2

_FORMAT = KeyedFormat(
    section="records",
    version=STORE_VERSION,
    kind="campaign results store",
    version_label="results-store",
    versionless=1,  # early builds wrote no ``version`` field
)


class ResultsStore:
    """JSON-file-backed (or purely in-memory) record cache.

    Only :meth:`put` marks a record for writing.  A record returned by
    :meth:`get` (a campaign cache hit, say) and then mutated by the caller
    stays mutated in this object but is not written back by :meth:`save`;
    ``put`` it again to store the change.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._file = KeyedFile(path, _FORMAT)

    def save(self) -> None:
        """Write the store atomically (no-op for in-memory stores).

        Safe under concurrent writers: an exclusive lock on ``<path>.lock``
        serialises the merge-and-replace, and records written by other
        processes since our load are merged in instead of dropped (this
        store's own records win on spec-hash collisions).
        """
        self._file.save()

    # --------------------------------------------------------------- records
    def get(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        record: Optional[Dict[str, Any]] = self._file.get(spec_hash)
        return record

    def put(self, spec_hash: str, record: Dict[str, Any]) -> None:
        self._file.put(spec_hash, record)

    def __contains__(self, spec_hash: str) -> bool:
        return spec_hash in self._file

    def __len__(self) -> int:
        return len(self._file)

    def __iter__(self) -> Iterator[str]:
        return iter(self._file)

    def records(self) -> Dict[str, Dict[str, Any]]:
        return self._file.values()

    def clear(self) -> None:
        """Drop every record; the next save() replaces the file (no merge)."""
        self._file.clear()
