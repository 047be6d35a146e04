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
small set of overridable methods.

Global coordinated checkpointing is the special case of a single cluster
containing every rank; uncoordinated local checkpointing (used by the full
message-logging baseline) is the special case of one cluster per rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence,
    Set, Tuple
)

from repro.errors import ConfigurationError, ProtocolError
from repro.simulator.engine import Condition
from repro.simulator.ops import ComputeOp, WaitConditionOp
from repro.simulator.protocol_api import ControlMessage, ProtocolHooks, add_metric
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
        self._clusters_spec = clusters
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_size_bytes = checkpoint_size_bytes

        self.clusters: List[List[int]] = []
        self._cluster_of: Dict[int, int] = {}
        self.pstats = ProtocolStatistics()

        # Coordinated-checkpoint coordination state.  Keys include a per
        # cluster "generation" (bumped at every rollback) so that a cluster
        # re-executing an iteration after a rollback coordinates a fresh
        # barrier instead of reusing the one from the first execution.
        self._ckpt_arrivals: Dict[Tuple[int, int, int], Set[int]] = {}
        self._ckpt_conditions: Dict[Tuple[int, int, int], Condition] = {}
        self._ckpt_saved: Dict[Tuple[int, int, int], Set[int]] = {}
        self._latest_checkpoint: Dict[int, CheckpointRecord] = {}
        self._cluster_generation: Dict[int, int] = {}

    # ------------------------------------------------------------- lifecycle
    def attach(self, sim: "Simulation") -> None:
        super().attach(sim)
        self.clusters = normalize_clusters(self._clusters_spec, sim.nprocs)
        self._cluster_of = {
            rank: cid for cid, members in enumerate(self.clusters) for rank in members
        }
        # Clusters are static for the life of a simulation; the frozen member
        # sets serve the completeness checks at checkpoint boundaries without
        # rebuilding a set per rank per boundary.
        self._member_sets = [frozenset(members) for members in self.clusters]
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

    def same_cluster(self, a: int, b: int) -> bool:
        return self._cluster_of[a] == self._cluster_of[b]

    def is_inter_cluster(self, source: int, dest: int) -> bool:
        return self._cluster_of[source] != self._cluster_of[dest]

    def ranks_outside_cluster(self, rank: int) -> List[int]:
        cid = self._cluster_of[rank]
        return [r for r in range(self.sim.nprocs) if self._cluster_of[r] != cid]

    # ------------------------------------------------ coordinated checkpoints
    def on_iteration_boundary(self, rank: int, iteration: int, state: Any):
        if not self.checkpoint_interval:
            return None
        if iteration % self.checkpoint_interval != 0:
            return None
        return self._coordinated_checkpoint(rank, iteration, state)

    def _coordinated_checkpoint(self, rank: int, iteration: int, state: Any):
        """Generator run inline by the rank driver at a checkpoint boundary."""
        cluster_id = self.cluster_of(rank)
        generation = self._cluster_generation.get(cluster_id, 0)
        key = (cluster_id, generation, iteration)
        members = self._member_sets[cluster_id]
        condition = self._ckpt_conditions.get(key)
        if condition is None:
            condition = Condition(name=f"ckpt-c{cluster_id}-g{generation}-it{iteration}")
            self._ckpt_conditions[key] = condition
            self._ckpt_arrivals[key] = set()
        arrivals = self._ckpt_arrivals[key]
        arrivals.add(rank)
        if arrivals == members:
            # Last member reached the boundary: wait for intra-cluster
            # channels to drain, then release everyone.
            self._drain_then_fire(cluster_id, condition)
        yield WaitConditionOp(condition=condition)

        # The checkpoint *content* is the consistent cut at the drain point:
        # check and capture it now, before the write window, during which
        # inter-cluster arrivals may still mutate transient protocol state.
        proc = self.sim.ranks[rank]
        self._check_intra_cluster_drained(rank)
        sends_at = proc.sends_initiated
        payload = self._checkpoint_payload(rank)
        size_bytes = self._checkpoint_size(rank, state)
        cost = self.sim.storage.write_cost(size_bytes)
        if cost > 0:
            yield ComputeOp(seconds=cost)
        # Durability coincides with the *end* of the write, not its start: a
        # failure striking at the boundary instant therefore always preempts
        # the wave (the restarted generators never reach this commit), instead
        # of racing the save events for the recovery line.  The cut itself was
        # captured above, so the committed state is still the drain-point cut.
        self._commit_checkpoint(
            rank, iteration, state, self.sim.engine.now, sends_at, payload, size_bytes
        )
        saved = self._ckpt_saved.setdefault(key, set())
        saved.add(rank)
        if saved == members:
            # The coordinated checkpoint of the whole cluster is now durable:
            # it becomes the cluster's recovery line, which is the moment
            # log garbage collection and similar cleanups become safe.
            self._on_cluster_checkpoint_complete(cluster_id, iteration)

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
        self._latest_checkpoint[rank] = record
        self.pstats.checkpoints += 1
        self.pstats.checkpoint_bytes += record.size_bytes
        self.sim.stats.rank(rank).checkpoints += 1
        self._after_checkpoint(rank, record)
        return record

    def _fast_forward_commit(self, rank: int, iteration: int, state: Any, time: float) -> None:
        """Check, capture and commit in one step: inside a fast-forwarded
        epoch nothing happens between the drain point and the end of the
        write.  Exact mode pays the write as a ComputeOp; charging it here
        keeps the compute-time counter (and the wasted-work analyses built
        on it) comparable."""
        self._check_intra_cluster_drained(rank)
        record = self._commit_checkpoint(
            rank, iteration, state, time,
            self.sim.ranks[rank].sends_initiated,
            self._checkpoint_payload(rank),
            self._checkpoint_size(rank, state),
        )
        cost = self.sim.storage.write_cost(record.size_bytes)
        if cost > 0:
            self.sim.stats.rank(rank).compute_time += cost

    def fast_forward_checkpoint(self, rank: int, iteration: int, state: Any, time: float) -> None:
        """Batch bookkeeping for a coordinated checkpoint inside a
        fast-forwarded epoch (:mod:`repro.simulator.hybrid`).

        The fast-forward driver reaches an iteration boundary with every
        cluster member already synchronised, so the barrier, the channel
        drain and the write-cost compute event of
        :meth:`_coordinated_checkpoint` are unnecessary (the calibrated
        per-checkpoint rate already accounts for their duration); everything
        observable -- the stored record, the protocol counters, the
        per-cluster recovery-line hooks -- is identical.  ``time`` is the
        rank's projected clock at the boundary.
        """
        self._fast_forward_commit(rank, iteration, state, time)
        cluster_id = self._cluster_of[rank]
        generation = self._cluster_generation.get(cluster_id, 0)
        key = (cluster_id, generation, iteration)
        saved = self._ckpt_saved.setdefault(key, set())
        saved.add(rank)
        if saved == self._member_sets[cluster_id]:
            self._on_cluster_checkpoint_complete(cluster_id, iteration)

    def fast_forward_cluster_checkpoint(
        self, cluster_id: int, iteration: int, states: Dict[int, Any],
        time_of: Callable[[int], float],
    ) -> None:
        """Coordinated checkpoint of one whole cluster inside a
        fast-forwarded epoch.

        The batched driver (:meth:`repro.simulator.hybrid.HybridDirector`'s
        interval loop) reaches the boundary with every member synchronised in
        the same call, so the per-member completion set that
        :meth:`fast_forward_checkpoint` maintains is redundant: each member
        saves in cluster order and the cluster-complete hook fires once at
        the end.  ``time_of(rank)`` returns the member's projected clock at
        the boundary.
        """
        for rank in self.members(cluster_id):
            self._fast_forward_commit(rank, iteration, states[rank], time_of(rank))
        self._on_cluster_checkpoint_complete(cluster_id, iteration)

    def _drain_then_fire(self, cluster_id: int, condition: Condition) -> None:
        members = set(self.members(cluster_id))
        if self.sim.transport.in_flight_within(members) == 0:
            condition.fire()
        else:
            self.sim.engine.schedule(
                self.sim.network.min_latency(), self._drain_then_fire, cluster_id, condition
            )

    def _checkpoint_size(self, rank: int, state: Any) -> int:
        return self.checkpoint_size_bytes + self._extra_checkpoint_bytes(rank)

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
            self._cluster_generation[cid] = self._cluster_generation.get(cid, 0) + 1
            members = self.members(cid)
            iteration = self.sim.storage.latest_common_iteration(members)
            restore_iterations[cid] = 0 if iteration is None else iteration
            for rank in members:
                if iteration is None:
                    app_state = None
                    sends_at = 0
                    payload: Optional[Dict[str, Any]] = None
                    restart_iteration = 0
                else:
                    record = self.sim.storage.checkpoint_at(rank, iteration)
                    app_state = record.restore_app_state()
                    sends_at = record.sends_at_checkpoint
                    payload = record.protocol_state
                    restart_iteration = record.iteration
                self._restore_from_payload(rank, payload)
                self.sim.restart_rank(
                    rank,
                    iteration=restart_iteration,
                    app_state=app_state,
                    sends_at_checkpoint=sends_at,
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

    def _checkpoint_payload(self, rank: int) -> Dict[str, Any]:
        """Protocol state to embed in a checkpoint (Algorithm 1 line 21)."""
        return {}

    def _restore_from_payload(self, rank: int, payload: Optional[Dict[str, Any]]) -> None:
        """Restore protocol state from a checkpoint payload (None = initial)."""

    def _extra_checkpoint_bytes(self, rank: int) -> int:
        """Extra checkpoint volume contributed by the protocol (e.g. logs)."""
        return 0

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

    # ------------------------------------------------------- schedule explore
    #: pstats counters that meter *attempted* work, including work later
    #: rolled back.  When a rollback notification ties with an iteration
    #: boundary, the tie-break decides how many doomed sends the victim got
    #: in before rewinding -- so these totals are schedule-dependent by
    #: nature even though the recovered state is not, and they stay out of
    #: the interleaving-invariance fingerprint.
    _WASTED_WORK_COUNTERS = (
        "logged_messages",
        "logged_bytes",
        "determinants_logged",
        "determinant_bytes",
        "piggyback_bytes",
        "gc_reclaimed_bytes",
        # Recovery-session chatter: how many log entries needed replaying
        # and how many duplicates receivers swatted depends on how far
        # doomed work got before the rollback landed.
        "replayed_messages",
        "suppressed_orphans",
    )

    def schedule_fingerprint(self) -> Dict[str, Any]:
        """Structural counters + recovery-line bookkeeping (interleaving-invariant)."""
        info = dict(super().schedule_fingerprint())
        info["pstats"] = {
            key: value
            for key, value in self.pstats.as_dict().items()
            if key not in self._WASTED_WORK_COUNTERS
        }
        info["cluster_generations"] = dict(self._cluster_generation)
        info["latest_checkpoint_iteration"] = {
            rank: record.iteration for rank, record in self._latest_checkpoint.items()
        }
        return info

    def recovery_line_fingerprint(self) -> Dict[str, Any]:
        """The committed recovery line: checkpoint coordinates per rank, plus
        the per-cluster line a rollback would actually restore (the largest
        iteration *every* member has durably checkpointed)."""
        info = dict(super().recovery_line_fingerprint())
        info["cluster_generations"] = dict(self._cluster_generation)
        info["latest_checkpoint_iteration"] = {
            rank: record.iteration for rank, record in self._latest_checkpoint.items()
        }
        info["cluster_lines"] = {
            cid: self.sim.storage.latest_common_iteration(members)
            for cid, members in enumerate(self.clusters)
        }
        return info

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
