"""Shared machinery for cluster-based rollback-recovery protocols.

The paper's hybrid protocols (HydEE and the piecewise-deterministic hybrids
it is compared against) share a common skeleton:

* application processes are partitioned into **clusters**;
* **coordinated checkpointing** is used inside each cluster (all members
  checkpoint at the same application iteration boundary, after draining the
  intra-cluster channels);
* on a failure, the failed processes' clusters **roll back** together to
  their last coordinated checkpoint while other clusters keep running.

:class:`ClusteredProtocolBase` implements that skeleton on top of the
simulator's protocol hooks and leaves protocol-specific behaviour (what is
logged, what is piggybacked, how recovery is ordered) to subclasses through a
small set of overridable methods.  Global coordinated checkpointing is the
special case of a single cluster containing every rank; uncoordinated local
checkpointing (the full message-logging baseline) is one cluster per rank.

One coordinated checkpoint of one cluster is one :class:`_Wave`, opened by
the first member to reach the boundary and deleted when the last member's
record is durable -- or when the cluster rolls back, which kills the
members standing in it.  A wave counts its members' arrivals and saves; each
member resumes twice in it, when the wave fires and when its write ends
(:meth:`ClusteredProtocolBase._coordinated_checkpoint` lists the steps).
No other structure tracks a checkpoint in progress, and a finished one
leaves nothing behind but its records: the recovery line is whatever
:class:`~repro.simulator.stable_storage.StableStorage` holds
(``latest``, ``latest_common_iteration``).  Every record is made durable by
:meth:`ClusteredProtocolBase._commit_checkpoint`; it has two callers, the
exact-mode generator :meth:`~ClusteredProtocolBase._coordinated_checkpoint`
(one rank, inside a wave) and :meth:`~ClusteredProtocolBase.
fast_forward_cluster_checkpoint` (a whole cluster at once, for the hybrid
fast-forward, which has no wave because its driver already holds every
member at the boundary).

**Releasing a line.**  Both callers end a cluster's checkpoint in
:meth:`~ClusteredProtocolBase._complete_cluster_checkpoint`: the new line
is complete, so no rollback of the cluster can reach an older one, and
storage releases the members' older records before the protocol's
recovery-line hook runs.  Stable storage thus holds what a rollback can
reach -- the line, plus the records of a wave not complete yet or cut short
by a rollback -- and the log snapshots those records carry, not the run's
history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple
)

from repro.errors import ConfigurationError, ProtocolError
from repro.simulator.engine import Condition
from repro.simulator.ops import ComputeOp, WaitConditionOp
from repro.simulator.protocol_api import ControlMessage, EpochState, ProtocolHooks, add_metric
from repro.simulator.stable_storage import CheckpointRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.simulation import Simulation


@dataclass
class ProtocolStatistics:
    """Counters shared by all protocols (reported in experiment tables)."""

    logged_messages: int = 0
    logged_bytes: int = 0
    determinants_logged: int = 0
    determinant_bytes: int = 0
    piggyback_bytes: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    rollbacks: int = 0
    ranks_rolled_back: int = 0
    recoveries: int = 0
    replayed_messages: int = 0
    suppressed_orphans: int = 0
    gc_reclaimed_bytes: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


#: Cost of one determinant written to reliable storage by the protocols that
#: log events (pessimistic message logging, hybrid event logging): the
#: latency blocks the delivery (the paper cites [29] for its magnitude), the
#: bytes hold the delivery's identity (receiver, sender, sequence numbers).
DETERMINANT_LATENCY_S = 1.0e-6
DETERMINANT_BYTES = 24


@dataclass
class RollbackInfo:
    """Result of rolling back a set of clusters."""

    clusters: List[int]
    ranks: List[int]
    restore_iterations: Dict[int, int]
    time: float


def normalize_clusters(clusters: Optional[Sequence[Sequence[int]]], nprocs: int) -> List[List[int]]:
    """Validate a clustering and return it as a list of sorted rank lists.

    ``None`` means a single cluster containing every rank.  The clustering
    must be a partition of ``range(nprocs)``.
    """
    if clusters is None:
        return [list(range(nprocs))]
    seen: Set[int] = set()
    result: List[List[int]] = []
    for cluster in clusters:
        members = sorted(int(r) for r in cluster)
        if not members:
            raise ConfigurationError("empty clusters are not allowed")
        for rank in members:
            if rank < 0 or rank >= nprocs:
                raise ConfigurationError(f"cluster rank {rank} outside 0..{nprocs - 1}")
            if rank in seen:
                raise ConfigurationError(f"rank {rank} appears in more than one cluster")
            seen.add(rank)
        result.append(members)
    if len(seen) != nprocs:
        missing = sorted(set(range(nprocs)) - seen)
        raise ConfigurationError(f"clustering does not cover ranks {missing[:8]}...")
    return result


class _Wave:
    """One coordinated checkpoint of one cluster, from the first member's
    arrival at the boundary until the last member's record is durable.

    Each member arrives once and saves once per wave (a rollback deletes the
    wave together with the generators standing in it), so the members that
    arrived and saved are counted, not named."""

    __slots__ = ("condition", "members", "arrived", "saved")

    def __init__(self, condition: Condition, members: int) -> None:
        #: fired once every member arrived and the intra-cluster channels drained.
        self.condition = condition
        #: the cluster's size: the count at which a wave fires, then completes.
        self.members = members
        self.arrived = 0
        self.saved = 0


class ClusteredProtocolBase(ProtocolHooks):
    """Cluster bookkeeping + coordinated checkpointing + cluster rollback."""

    name = "clustered-base"

    def __init__(
        self,
        clusters: Optional[Sequence[Sequence[int]]] = None,
        checkpoint_interval: Optional[int] = None,
        checkpoint_size_bytes: int = 16 * 1024 * 1024,
    ) -> None:
        super().__init__()
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1 or None")
        if checkpoint_size_bytes < 0:
            raise ConfigurationError("checkpoint_size_bytes must be >= 0")
        self._clusters_spec = clusters
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_size_bytes = checkpoint_size_bytes

        self.clusters: List[List[int]] = []
        self._cluster_of: Dict[int, int] = {}
        self.pstats = ProtocolStatistics()

        #: cluster id -> iteration -> the open wave (see :class:`_Wave`).
        self._waves: List[Dict[int, _Wave]] = []
        #: cluster id -> number of rollbacks so far.
        self._cluster_generation: Dict[int, int] = {}

    # ------------------------------------------------------------- lifecycle
    def attach(self, sim: "Simulation") -> None:
        super().attach(sim)
        self.clusters = normalize_clusters(self._clusters_spec, sim.nprocs)
        self._cluster_of = {
            rank: cid for cid, members in enumerate(self.clusters) for rank in members
        }
        # Clusters are static for the life of a simulation; the frozen member
        # sets serve the drain check of a wave without rebuilding a set per
        # poll.
        self._member_sets = [frozenset(members) for members in self.clusters]
        self._waves = [{} for _ in self.clusters]
        sim.control.set_handler(self._dispatch_control)
        for rank in range(sim.nprocs):
            self._init_rank_state(rank)

    # ------------------------------------------------------------ clustering
    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def cluster_of(self, rank: int) -> int:
        return self._cluster_of[rank]

    def members(self, cluster_id: int) -> List[int]:
        return self.clusters[cluster_id]

    def is_inter_cluster(self, source: int, dest: int) -> bool:
        return self._cluster_of[source] != self._cluster_of[dest]

    def ranks_outside_cluster(self, rank: int) -> List[int]:
        cid = self._cluster_of[rank]
        return [r for r in range(self.sim.nprocs) if self._cluster_of[r] != cid]

    # ------------------------------------------------ coordinated checkpoints
    def on_iteration_boundary(self, rank: int, iteration: int, state: Any):
        if self.checkpoint_interval is None:
            return None
        if iteration % self.checkpoint_interval != 0:
            return None
        return self._coordinated_checkpoint(rank, iteration, state)

    def _coordinated_checkpoint(self, rank: int, iteration: int, state: Any):
        """Generator run inline by the rank driver at a checkpoint boundary.

        The rank yields twice -- once to wait for the wave, once for the
        write -- and everything else is done inline:

        1. **wave**: the rank arrives in its cluster's wave for ``iteration``
           (opened by the first member); the last member's arrival fires it
           once the intra-cluster channels have drained;
        2. **cut**: at the drain point the rank's unexpected queue is checked
           for an undelivered intra-cluster message and the protocol's cut
           (:meth:`_checkpoint_cut`) is captured;
        3. **write**: the rank computes for the storage's write cost
           (:meth:`~repro.simulator.stable_storage.StableStorage.write_cost`);
        4. **commit**: at the end of the write the record is made durable
           (:meth:`_commit_checkpoint`);
        5. **recovery line**: the last member's commit completes the wave, the
           cluster's new recovery line (:meth:`_complete_cluster_checkpoint`).
        """
        cluster_id = self._cluster_of[rank]
        waves = self._waves[cluster_id]
        wave = waves.get(iteration)
        if wave is None:
            generation = self._cluster_generation.get(cluster_id, 0)
            wave = waves[iteration] = _Wave(
                Condition(name=f"ckpt-c{cluster_id}-g{generation}-it{iteration}"),
                len(self.clusters[cluster_id]),
            )
        wave.arrived += 1
        if wave.arrived == wave.members:
            # Last member reached the boundary: wait for intra-cluster
            # channels to drain, then release everyone.
            self._drain_then_fire(cluster_id, wave.condition)
        yield WaitConditionOp(condition=wave.condition)

        # The checkpoint *content* is the consistent cut at the drain point:
        # check and capture it now, before the write window, during which
        # inter-cluster arrivals may still mutate transient protocol state.
        sim = self.sim
        proc = sim.ranks[rank]
        if proc.unexpected:
            self._check_intra_cluster_drained(rank)
        sends_at = proc.sends_initiated
        payload, extra_bytes = self._checkpoint_cut(rank)
        size_bytes = self.checkpoint_size_bytes + extra_bytes
        cost = sim.storage.write_cost(size_bytes)
        if cost > 0:
            yield ComputeOp(seconds=cost)
        # Durability coincides with the *end* of the write, not its start: a
        # failure striking at the boundary instant therefore always preempts
        # the wave (the restarted generators never reach this commit), instead
        # of racing the save events for the recovery line.  The cut itself was
        # captured above, so the committed state is still the drain-point cut.
        self._commit_checkpoint(
            rank, iteration, state, sim.engine.now, sends_at, payload, size_bytes
        )
        wave.saved += 1
        if wave.saved == wave.members:
            # The coordinated checkpoint of the whole cluster is now durable:
            # it becomes the cluster's recovery line, which is the moment
            # log garbage collection and similar cleanups become safe.
            del waves[iteration]
            self._complete_cluster_checkpoint(cluster_id, iteration)

    def _check_intra_cluster_drained(self, rank: int) -> None:
        """Sanity check of the blocking coordinated-checkpoint assumption: no
        intra-cluster message may still be undelivered at the boundary,
        otherwise the saved cluster cut would not be consistent."""
        for message in self.sim.ranks[rank].unexpected:
            if not self.is_inter_cluster(message.source, rank):
                raise ProtocolError(
                    f"rank {rank}: intra-cluster message from {message.source} is still "
                    "undelivered at a coordinated checkpoint boundary; the application "
                    "must complete intra-cluster receives before the boundary"
                )

    def _commit_checkpoint(
        self, rank: int, iteration: int, state: Any, time: float,
        sends_at: int, payload: Dict[str, Any], size_bytes: int,
    ) -> CheckpointRecord:
        """Make one rank's captured cut durable and account for it."""
        record = self.sim.storage.save(
            rank=rank,
            iteration=iteration,
            app_state=state,
            time=time,
            sends_at_checkpoint=sends_at,
            protocol_state=payload,
            size_bytes=size_bytes,
        )
        self.pstats.checkpoints += 1
        self.pstats.checkpoint_bytes += record.size_bytes
        self.sim.ranks[rank].rstats.checkpoints += 1
        self._after_checkpoint(rank, record)
        return record

    def fast_forward_cluster_checkpoint(
        self, cluster_id: int, iteration: int, time_at: Callable[[int, int], float]
    ) -> None:
        """Coordinated checkpoint of one whole cluster inside a
        fast-forwarded epoch (:mod:`repro.simulator.hybrid`).

        The fast-forward driver calls this once every member stands at the
        boundary, so the wave, the channel drain and the write-cost compute
        event of :meth:`_coordinated_checkpoint` are unnecessary (the
        calibrated per-checkpoint rate already accounts for their duration);
        everything observable -- the stored records, the protocol counters,
        the recovery-line hook -- is identical.  Nothing happens between the
        drain point and the end of the write here, so each member is checked,
        captured and committed in one step, in cluster order, at its
        projected clock ``time_at(rank, iteration)``.  Exact mode pays the
        write as a ComputeOp; charging it to the counter keeps compute time
        (and the wasted-work analyses built on it) comparable.

        This is the only commit of the fast-forward, per-message and batched
        alike.  A batched span calls it on its first recovery lines and on its
        last; the checkpoints in between are not committed a second way but
        extrapolated as a whole -- what this method moved between two lines,
        verified equal twice, is the interval delta the director replays.
        """
        sim = self.sim
        for rank in self.clusters[cluster_id]:
            proc = sim.ranks[rank]
            if proc.unexpected:
                self._check_intra_cluster_drained(rank)
            payload, extra_bytes = self._checkpoint_cut(rank)
            record = self._commit_checkpoint(
                rank, iteration, proc.app_state, time_at(rank, iteration),
                proc.sends_initiated, payload, self.checkpoint_size_bytes + extra_bytes,
            )
            cost = sim.storage.write_cost(record.size_bytes)
            if cost > 0:
                proc.rstats.compute_time += cost
        self._complete_cluster_checkpoint(cluster_id, iteration)

    def _complete_cluster_checkpoint(self, cluster_id: int, iteration: int) -> None:
        """Every member of ``cluster_id`` saved ``iteration``: it is the
        cluster's recovery line.  Release the older records no rollback can
        reach any more, then run the recovery-line hook."""
        self.sim.storage.release_below(self.clusters[cluster_id], iteration)
        self._on_cluster_checkpoint_complete(cluster_id, iteration)

    # ------------------------------------------------- batched fast-forward
    # The epoch-state contract (see ProtocolHooks): every clustered protocol
    # contributes, and applies, the ``pstats`` column.  One whose message
    # hooks carry no state -- it overrides none of them, so ``ff_send_hook``
    # is False and ``on_app_deliver`` the no-op default -- owns nothing
    # else, so it batches on ``pstats`` alone.  Protocols with message state
    # add their columns (HydEE) or stay per message (message logging: a
    # real log).

    def ff_epoch_snapshot(self) -> Optional[EpochState]:
        if self.ff_send_hook or type(self).on_app_deliver is not ProtocolHooks.on_app_deliver:
            return None
        return {"pstats": self.pstats.as_dict()}

    def ff_epoch_apply(self, delta: EpochState, n: int) -> None:
        pstats = self.pstats
        for key, value in delta["pstats"].items():
            if value:
                setattr(pstats, key, getattr(pstats, key) + n * value)

    def _drain_then_fire(self, cluster_id: int, condition: Condition) -> None:
        if self.sim.transport.in_flight_within(self._member_sets[cluster_id]) == 0:
            condition.fire()
        else:
            self.sim.engine.schedule(
                self.sim.network.min_latency(), self._drain_then_fire, cluster_id, condition
            )

    # -------------------------------------------------------------- rollback
    def rollback_clusters(self, cluster_ids: Iterable[int]) -> RollbackInfo:
        """Roll every member of the given clusters back to its last coordinated
        checkpoint (or to the initial state when no checkpoint exists)."""
        cluster_ids = sorted(set(cluster_ids))
        ranks: List[int] = []
        for cid in cluster_ids:
            ranks.extend(self.members(cid))
        rank_set = set(ranks)

        # Messages in flight to/from the rolled back ranks are lost; messages
        # already received by other ranks but not yet delivered to their
        # application are purged (their senders will regenerate them).
        self.sim.drop_in_flight(rank_set)
        self.sim.purge_undelivered_from(rank_set)

        restore_iterations: Dict[int, int] = {}
        for cid in cluster_ids:
            # The members' generators die with this rollback, so the waves
            # they stood in can never complete; the re-execution opens new ones.
            self._waves[cid].clear()
            self._cluster_generation[cid] = self._cluster_generation.get(cid, 0) + 1
            members = self.members(cid)
            iteration = self.sim.storage.latest_common_iteration(members)
            restore_iterations[cid] = 0 if iteration is None else iteration
            for rank in members:
                if iteration is None:
                    self._restore_from_payload(rank, None)
                    self.sim.restart_rank(
                        rank, iteration=0, app_state=None, sends_at_checkpoint=0
                    )
                    continue
                record = self.sim.storage.checkpoint_at(rank, iteration)
                self._restore_from_payload(rank, record.protocol_state)
                self.sim.restart_rank(
                    rank,
                    iteration=iteration,
                    app_state=record.restore_app_state(),
                    sends_at_checkpoint=record.sends_at_checkpoint,
                )
        self.pstats.rollbacks += 1
        self.pstats.ranks_rolled_back += len(ranks)
        return RollbackInfo(
            clusters=cluster_ids,
            ranks=sorted(ranks),
            restore_iterations=restore_iterations,
            time=self.sim.engine.now,
        )

    def clusters_of_ranks(self, ranks: Iterable[int]) -> List[int]:
        return sorted({self._cluster_of[r] for r in ranks})

    # ------------------------------------------------- subclass extension API
    def _init_rank_state(self, rank: int) -> None:
        """Create protocol-private per-rank state (called at attach time)."""

    def _checkpoint_cut(self, rank: int) -> Tuple[Dict[str, Any], int]:
        """The protocol's part of a rank's checkpoint, captured at the cut:
        the state to embed in the record (Algorithm 1 line 21; a private
        snapshot, see :mod:`repro.simulator.stable_storage`) and the bytes it
        adds to the written volume (e.g. the sender-based log)."""
        return {}, 0

    def _restore_from_payload(self, rank: int, payload: Optional[Dict[str, Any]]) -> None:
        """Restore protocol state from a checkpoint payload (None = initial)."""

    def _after_checkpoint(self, rank: int, record: CheckpointRecord) -> None:
        """Hook run after a rank's checkpoint is saved."""

    def _on_cluster_checkpoint_complete(self, cluster_id: int, iteration: int) -> None:
        """Hook run once *every* member of ``cluster_id`` has saved its
        checkpoint for ``iteration`` (the cluster's new recovery line).

        Garbage collection of sender-based logs must wait for this point: an
        individual member's checkpoint is not a valid recovery line as long
        as some other member of the cluster could force a rollback to an
        older coordinated checkpoint.
        """

    def _dispatch_control(self, message: ControlMessage) -> None:
        """Deliver a control-plane message to the protocol (override)."""
        raise ProtocolError(
            f"{self.name}: unexpected control message {message.kind!r} "
            "(protocol did not install a control handler)"
        )

    # ------------------------------------------------------------ accounting
    def extra_metrics(self) -> Dict[str, Any]:
        """Cluster layout + the shared :class:`ProtocolStatistics` counters.

        Counter names are published unprefixed (``protocol.logged_messages``
        instead of the old ``pstats_logged_messages`` spillover); a subclass
        publishing a name already claimed here raises
        :class:`~repro.errors.ConfigurationError` via :func:`add_metric`.
        """
        info = dict(super().extra_metrics())
        add_metric(info, "clusters", len(self.clusters))
        add_metric(info, "checkpoint_interval", self.checkpoint_interval)
        for key, value in self.pstats.as_dict().items():
            add_metric(info, key, value)
        return info
