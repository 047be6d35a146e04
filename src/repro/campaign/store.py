"""Spec-hash-keyed JSON store for completed campaign records.

The store maps :meth:`ScenarioSpec.spec_hash` to the record produced by the
scenario's job.  Records are pure JSON (see
:func:`repro.campaign.jobs.jsonify`); the file is written with sorted keys
so two campaigns that computed the same records produce byte-identical
files regardless of execution order or worker count.

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

import json
import os
from typing import Any, Dict, Iterator, Optional

from repro.fslock import atomic_write_json, exclusive_lock

STORE_VERSION = 2


class ResultsStore:
    """JSON-file-backed (or purely in-memory) record cache."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._records: Dict[str, Dict[str, Any]] = {}
        #: version the file had on disk (None for fresh/in-memory stores).
        self.loaded_version: Optional[int] = None
        #: set by clear(): the next save() replaces the file outright instead
        #: of merging the on-disk records back in (deliberate deletion).
        self._replace_on_save = False
        if path is not None and os.path.exists(path):
            self._load()

    # ------------------------------------------------------------------- i/o
    def _read_records(self) -> Dict[str, Dict[str, Any]]:
        """Read the records currently in the file."""
        if self.path is None:  # defensive: callers check before reading
            raise ValueError("in-memory store has no backing file to read")
        with open(self.path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "records" not in data:
            raise ValueError(f"{self.path}: not a campaign results store")
        version = data.get("version", 1)
        if version != STORE_VERSION:
            raise ValueError(
                f"{self.path}: unsupported results-store version {version!r}; "
                f"this build reads version {STORE_VERSION} only"
            )
        self.loaded_version = version
        return dict(data["records"])

    def _load(self) -> None:
        self._records = self._read_records()

    def save(self) -> None:
        """Write the store atomically (no-op for in-memory stores).

        Safe under concurrent writers: an exclusive lock on ``<path>.lock``
        serialises the merge-and-replace, and records written by other
        processes since our load are merged in instead of dropped (this
        store's own records win on spec-hash collisions).
        """
        if self.path is None:
            return
        with exclusive_lock(self.path):
            if not self._replace_on_save and os.path.exists(self.path):
                merged = self._read_records()
                merged.update(self._records)
                self._records = merged
            atomic_write_json(
                self.path, {"version": STORE_VERSION, "records": self._records}
            )
            self._replace_on_save = False

    # --------------------------------------------------------------- records
    def get(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        return self._records.get(spec_hash)

    def put(self, spec_hash: str, record: Dict[str, Any]) -> None:
        self._records[spec_hash] = record

    def __contains__(self, spec_hash: str) -> bool:
        return spec_hash in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    def records(self) -> Dict[str, Dict[str, Any]]:
        return dict(self._records)

    def clear(self) -> None:
        """Drop every record; the next save() replaces the file (no merge)."""
        self._records.clear()
        self._replace_on_save = True
