"""Shared warm-up calibration cache for hybrid execution.

A hybrid run (see :mod:`repro.simulator.hybrid`) starts with a full-DES
warm-up whose only product is a :class:`~repro.simulator.hybrid.
Calibration`: the fitted rate model, the warm-up length and the ranks' park
times.  Monte Carlo replicas of the same spec differ *only* in their failure
draw -- the failure-free warm-up timing is identical across the whole
campaign -- so re-running the warm-up per replica is pure overhead.

:class:`CalibrationCache` maps :meth:`repro.scenarios.spec.ScenarioSpec.
calibration_key` -- a spec hash with the failure-related fields stripped, so
any spec change that could affect iteration timing re-keys the entry, while
replicas and fault-model sweeps of one scenario share it -- to that value,
in memory.  A cached model is *not* trusted blindly at run time: the
director still verifies every batched advance with the two-probe check.

Determinism contract: a replica that runs with a cached model produces a
different (warm-up-free) event history than one that calibrates itself, so
whether the cache is warm must never depend on worker scheduling.  The
campaign layer therefore fills a fresh cache *before* fanning replicas out
(:func:`repro.faults.montecarlo.run_montecarlo`) and activates it for the
fan-out; worker processes are forked inside the block and inherit the
active cache with the rest of the parent's memory.  The director only ever
reads it, keeping serial and ``--workers N`` campaigns byte-identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.hybrid import Calibration

#: the cache of the enclosing :func:`activated` block, if any.
_active: Optional["CalibrationCache"] = None


class CalibrationCache:
    """In-memory ``calibration key -> Calibration`` map."""

    def __init__(self) -> None:
        self._entries: Dict[str, "Calibration"] = {}

    def save(self) -> None:
        """A no-op: a calibration lives as long as its campaign.  Kept
        because the observatory benchmark wraps it by name."""

    def get(self, key: Optional[str]) -> Optional["Calibration"]:
        return None if key is None else self._entries.get(key)

    def put(self, key: str, entry: "Calibration") -> None:
        self._entries[key] = entry


def active_cache() -> Optional[CalibrationCache]:
    """The cache hybrid directors should consult, or ``None``."""
    return _active


@contextmanager
def activated(cache: CalibrationCache) -> Iterator[CalibrationCache]:
    """Make ``cache`` the active cache for the block (and for worker
    processes forked inside it)."""
    global _active
    previous = _active
    _active = cache
    try:
        yield cache
    finally:
        _active = previous
