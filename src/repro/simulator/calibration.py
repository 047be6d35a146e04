"""Shared warm-up calibration cache for hybrid execution.

A hybrid run (see :mod:`repro.simulator.hybrid`) starts with a full-DES
warm-up whose only product is a calibrated :class:`~repro.simulator.hybrid.
RateModel`.  Monte Carlo replicas of the same spec differ *only* in their
failure draw -- the failure-free warm-up timing is identical across the
whole campaign -- so re-running the warm-up per replica is pure overhead.

:class:`CalibrationCache` stores serialised rate models keyed by
:meth:`repro.scenarios.spec.ScenarioSpec.calibration_key` -- a spec hash
with the failure-related fields stripped, so any spec change that could
affect iteration timing re-keys (and thereby invalidates) the entry, while
replicas and fault-model sweeps of one scenario share it.  A cached model is
*not* trusted blindly at run time: the director still verifies every batched
advance with the two-probe check, so a stale-but-same-key entry can degrade
throughput, never accuracy.

Determinism contract: a replica that runs with a cached model produces a
different (warm-up-free) event history than one that calibrates itself, so
whether the cache is warm must never depend on worker scheduling.  The
campaign layer therefore pre-warms the cache *before* fanning replicas out
(:func:`repro.faults.montecarlo.run_montecarlo`), and the director only ever
reads the active cache -- it never writes it -- keeping serial and
``--workers N`` campaigns byte-identical.

The cache file lives alongside the campaign's results store and follows the
same flock + atomic-replace discipline (:mod:`repro.fslock`), so concurrent
campaign workers never corrupt a shared entry.

Activation is process-wide: :func:`activate` installs a cache path both in
this process and -- through the ``REPRO_CALIBRATION_CACHE`` environment
variable -- in worker processes started afterwards (fork or spawn).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.fslock import KeyedFile, KeyedFormat

CACHE_VERSION = 1
_ENV_VAR = "REPRO_CALIBRATION_CACHE"

_FORMAT = KeyedFormat(
    section="entries",
    version=CACHE_VERSION,
    kind="calibration cache",
    version_label="calibration-cache",
)

#: process-local active cache (takes precedence over the environment).
_active: Optional["CalibrationCache"] = None


class CalibrationCache:
    """JSON-file-backed (or purely in-memory) calibration-entry cache."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._file = KeyedFile(path, _FORMAT)

    def save(self) -> None:
        """Write the cache atomically, merging concurrent writers' entries.

        The same :class:`repro.fslock.KeyedFile` discipline as the results
        store: an exclusive lock on ``<path>.lock`` serialises the
        merge-and-replace and entries written by other processes since our
        load are merged in (this process's entries win on key collisions --
        by construction they describe the same calibration anyway).
        """
        self._file.save()

    # --------------------------------------------------------------- entries
    def get(self, key: Optional[str]) -> Optional[Dict[str, Any]]:
        if key is None:
            return None
        entry: Optional[Dict[str, Any]] = self._file.get(key)
        return entry

    def put(self, key: str, entry: Dict[str, Any]) -> None:
        self._file.put(key, entry)


# ------------------------------------------------------------------ activation
def active_cache() -> Optional[CalibrationCache]:
    """The cache hybrid directors should consult, or ``None``.

    Preference order: a cache activated in this process, then one inherited
    from a parent process through ``REPRO_CALIBRATION_CACHE`` (campaign
    worker processes land here -- the parent pre-warmed the file before the
    fan-out, so loading it is enough).
    """
    if _active is not None:
        return _active
    path = os.environ.get(_ENV_VAR)
    if path:
        try:
            return CalibrationCache(path)
        except (OSError, ValueError):  # unreadable/corrupt: behave as cold
            return None
    return None


@contextmanager
def activated(cache: CalibrationCache) -> Iterator[CalibrationCache]:
    """Make ``cache`` the active cache for the block (and for child
    processes started inside it, via the environment)."""
    global _active
    previous, previous_env = _active, os.environ.get(_ENV_VAR)
    _active = cache
    if cache.path is not None:
        os.environ[_ENV_VAR] = cache.path
    try:
        yield cache
    finally:
        _active = previous
        if cache.path is not None:
            if previous_env is None:
                os.environ.pop(_ENV_VAR, None)
            else:
                os.environ[_ENV_VAR] = previous_env
