"""Simulated stable storage for process checkpoints.

The paper assumes checkpoints are written to reliable storage (Section II-A,
footnote 1: checkpoints live on stable storage but failure containment itself
does not rely on it).  The simulation keeps checkpoints in an in-memory store
that survives process failures and optionally charges a write cost derived
from a storage bandwidth, which is what creates the I/O-burst concern for
globally coordinated checkpointing discussed in the related-work section.

**Index.**  Records are held per rank, keyed by iteration: saving an
iteration again (a cluster re-executing after a rollback) replaces the older
record, because no query ever returned it.  :meth:`StableStorage.latest` and
:meth:`StableStorage.checkpoint_at` are lookups;
:meth:`StableStorage.latest_common_iteration` walks one rank's iterations
newest first and stops at the first one every rank holds.

**Counted, saved and held.**  ``writes`` / ``bytes_written`` count every
checkpoint the run takes.  ``saves`` counts the records built.  The two
differ under hybrid execution only: a batched span advances the counters
past the checkpoints it skips (``checkpoint_id`` keeps counting) and saves
its last one, the only one a rollback can reach -- a checkpoint superseded
by the next is never named by a query (:mod:`repro.simulator.hybrid`).
:meth:`StableStorage.count` is the number of records *held*: once a
cluster's coordinated checkpoint at iteration *i* is complete, it is the
cluster's recovery line and no rollback can reach below it, so the
protocol releases its members' older records
(:meth:`StableStorage.release_below`).  A finished run holds one line per
cluster, not its whole history.

**Snapshot contract.**  There is one: the application state goes through
:meth:`repro.workloads.base.Application.snapshot_state` on save and
:meth:`~repro.workloads.base.Application.restore_state` on every restore.
The stored snapshot is isolated from later mutations of the live state, and
every :meth:`CheckpointRecord.restore_app_state` call returns a fresh,
independent state.  A store built without an application (unit tests of the
store itself) uses the generic pair those methods default to,
:func:`~repro.workloads.base.freeze_state` /
:func:`~repro.workloads.base.thaw_state`.

``protocol_state`` is *not* copied at all: protocol checkpoint payloads
(what ``_checkpoint_cut`` of a :class:`~repro.ftprotocols.base.
ClusteredProtocolBase` subclass returns) are required to already be private
snapshots -- freshly-built structures that the protocol never mutates
afterwards and that restoring code only reads.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.workloads.base import freeze_state, thaw_state


def snapshot_strategy_for(application: Any) -> Any:
    """The ``snapshot_strategy`` argument of :class:`StableStorage` for a
    workload: the application itself when it implements ``snapshot_state`` /
    ``restore_state``, else ``None`` (generic freeze/thaw)."""
    if callable(getattr(application, "snapshot_state", None)) and callable(
        getattr(application, "restore_state", None)
    ):
        return application
    return None


class CheckpointRecord:
    """One process checkpoint.

    Attributes mirror line 21 of Algorithm 1: the process image (application
    iteration + application state snapshot), the RPP table, the sender-based
    message logs, the phase and the date.  Baseline protocols reuse the same
    record type and simply leave the HydEE-specific fields empty.

    A plain slotted class: a record is built at every checkpoint of every
    rank, and CPython 3.9 has no ``dataclass(slots=True)``.
    """

    __slots__ = (
        "rank", "checkpoint_id", "iteration", "app_state", "time",
        "sends_at_checkpoint", "protocol_state", "size_bytes", "restore_fn",
    )

    def __init__(
        self,
        rank: int,
        checkpoint_id: int,
        iteration: int,
        app_state: Any,
        time: float,
        sends_at_checkpoint: int,
        protocol_state: Dict[str, Any],
        size_bytes: int,
        restore_fn: Callable[[Any], Any],
    ) -> None:
        self.rank = rank
        self.checkpoint_id = checkpoint_id
        self.iteration = iteration
        #: snapshot of the application state, as ``snapshot_state`` returned it.
        self.app_state = app_state
        self.time = time
        #: number of application sends the rank had initiated when
        #: checkpointing (used to rebuild logical send sequences after a
        #: rollback).
        self.sends_at_checkpoint = sends_at_checkpoint
        #: protocol-specific payload (dates, phases, RPP, message logs, ...).
        self.protocol_state = protocol_state
        self.size_bytes = size_bytes
        #: the ``restore_state`` that rebuilds a live state from ``app_state``.
        self.restore_fn = restore_fn

    def restore_app_state(self) -> Any:
        """Return a private copy of the checkpointed application state."""
        return self.restore_fn(self.app_state)


class StableStorage:
    """Reliable checkpoint store shared by all ranks.

    ``write_bandwidth_bytes_per_s`` prices the checkpoint write; ``None`` is
    the explicit free-writes switch (useful for protocol-logic tests), any
    other value must be a positive bandwidth -- zero or negative values are
    rejected at construction instead of silently meaning "free".

    ``snapshot_strategy`` is the object whose ``snapshot_state`` /
    ``restore_state`` checkpoints go through -- the simulated application,
    see :func:`snapshot_strategy_for`; ``None`` selects generic freeze/thaw.
    """

    def __init__(
        self,
        write_bandwidth_bytes_per_s: Optional[float] = 1.0e9,
        snapshot_strategy: Any = None,
    ) -> None:
        if write_bandwidth_bytes_per_s is not None and not (
            write_bandwidth_bytes_per_s > 0
        ):
            raise ConfigurationError(
                "write_bandwidth_bytes_per_s must be positive "
                f"(got {write_bandwidth_bytes_per_s}); pass None for free writes"
            )
        self.write_bandwidth_bytes_per_s = write_bandwidth_bytes_per_s
        self._snapshot: Callable[[Any], Any] = freeze_state
        self._restore: Callable[[Any], Any] = thaw_state
        if snapshot_strategy is not None:
            self._snapshot = snapshot_strategy.snapshot_state
            self._restore = snapshot_strategy.restore_state
        #: rank -> iteration -> the most recent record saved for it.
        self._records: Dict[int, Dict[int, CheckpointRecord]] = {}
        #: rank -> the record saved last (not necessarily the highest
        #: iteration the rank holds).
        self._latest: Dict[int, CheckpointRecord] = {}
        self.bytes_written = 0
        self.writes = 0
        #: records built by :meth:`save` (``writes`` also counts skipped ones).
        self.saves = 0

    # ------------------------------------------------------------------ write
    def write_cost(self, size_bytes: int) -> float:
        if self.write_bandwidth_bytes_per_s is None:
            return 0.0
        return size_bytes / self.write_bandwidth_bytes_per_s

    def save(
        self,
        rank: int,
        iteration: int,
        app_state: Any,
        time: float,
        sends_at_checkpoint: int = 0,
        protocol_state: Optional[Dict[str, Any]] = None,
        size_bytes: int = 0,
    ) -> CheckpointRecord:
        """Store a checkpoint of ``app_state`` (snapshotted on the way in).

        ``protocol_state`` must already be a private snapshot (see the module
        docstring); it is stored as-is.
        """
        checkpoint_id = self.writes + 1
        record = CheckpointRecord(
            rank, checkpoint_id, iteration, self._snapshot(app_state), time,
            sends_at_checkpoint, protocol_state if protocol_state is not None else {},
            size_bytes, self._restore,
        )
        held = self._records.get(rank)
        if held is None:
            self._records[rank] = {iteration: record}
        else:
            held[iteration] = record
        self._latest[rank] = record
        self.writes = checkpoint_id
        self.saves += 1
        self.bytes_written += size_bytes
        return record

    def release_below(self, ranks: Iterable[int], iteration: int) -> None:
        """Drop the records of ``ranks`` older than ``iteration``.

        Called when the coordinated checkpoint of ``ranks`` at ``iteration``
        is complete: every rank holds ``iteration``, so
        :meth:`latest_common_iteration` over them can never name an older
        one again, and ``iteration`` itself stays held until a save of the
        same iteration replaces it.
        """
        for rank in ranks:
            held = self._records.get(rank)
            if held:
                for stale in [it for it in held if it < iteration]:
                    del held[stale]

    # ------------------------------------------------------------------ read
    def latest(self, rank: int) -> Optional[CheckpointRecord]:
        return self._latest.get(rank)

    def latest_common_iteration(self, ranks: Iterable[int]) -> Optional[int]:
        """Largest iteration for which every rank in ``ranks`` has a checkpoint."""
        tables = [self._records.get(rank, {}) for rank in ranks]
        if not tables:
            return None
        for iteration in sorted(min(tables, key=len), reverse=True):
            if all(iteration in held for held in tables):
                return iteration
        return None

    def checkpoint_at(self, rank: int, iteration: int) -> CheckpointRecord:
        record = self._records.get(rank, {}).get(iteration)
        if record is None:
            raise SimulationError(f"rank {rank} has no checkpoint at iteration {iteration}")
        return record

    def count(self) -> int:
        """Number of records held (at most one per rank and checkpointed
        iteration; ``saves`` is the number built, ``writes`` the number
        counted)."""
        return sum(len(held) for held in self._records.values())
