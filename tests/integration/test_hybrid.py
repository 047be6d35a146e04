"""Integration tests of the hybrid execution mode (simulator.hybrid).

The fast path fast-forwards failure-free epochs analytically and drops to
full discrete-event execution only in a guard window around each failure.
These tests pin its accuracy contract against exact execution:

* application/protocol byte counters are **identical** (not approximately
  equal) in every fault scenario;
* makespan and compute time stay within the 1% acceptance band (measured
  drift is orders of magnitude smaller);
* recovery traffic inside a guard window is byte-identical once event
  timestamps and message ids -- which the fast-forward legitimately shifts
  -- are normalised away;
* specs that do not opt into the mode hash exactly as before, and every
  unsupported configuration falls back to exact execution rather than
  degrading accuracy.

The one deliberate divergence: ``protocol.gc_reclaimed_bytes``.  Exact
runs stop the event loop the moment the last rank finishes, dropping
whichever garbage-collection acknowledgements are still in flight;
fast-forwarded epochs drain those acks deterministically, so the hybrid
counter reports the quiescent value (always >= exact), but the total
bytes accounted for (reclaimed + still-buffered) match exactly.

The one named limit (``ACK_RACE`` / ``PIPELINE_AFTER_ROLLBACK`` below, strict
xfails of the protocol x interval grid): HydEE ``checkpoint_bytes`` where
clusters run skewed against each other -- pipeline at intervals below 8, and
pipeline or ring after a rollback.
"""

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.scenarios.build import build
from repro.scenarios.spec import (
    ClusteringSpec,
    FailureEvent,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.simulator.engine import Condition
from repro.simulator.messages import ANY_SOURCE
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.workloads.base import Application
from tests.integration.test_event_stream_pins import scenario_spec

ITERATIONS = 120
INTERVAL = 8


def scenario(failures=(), iterations=ITERATIONS, interval=INTERVAL, **spec_kwargs):
    return ScenarioSpec(
        name="hybrid-it",
        workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=iterations),
        protocol=ProtocolSpec(
            name="hydee",
            clustering=ClusteringSpec(method="block", num_clusters=4),
            options={
                "checkpoint_interval": interval,
                "checkpoint_size_bytes": 65536,
            },
        ),
        failures=list(failures),
        **spec_kwargs,
    )


def run_both(spec):
    exact_sim = build(spec)
    exact = exact_sim.run()
    hybrid_sim = build(dataclasses.replace(spec, execution="hybrid"))
    hybrid = hybrid_sim.run()
    return (exact_sim, exact), (hybrid_sim, hybrid)


def log_byte_balance(sim):
    protocol = sim.protocol
    buffered = sum(state.log.current_bytes for state in protocol.states.values())
    phantom = sum(
        sum(dests.values()) for dests in protocol._ff_phantom_log.values()
    )
    return (
        sim.stats.logged_bytes
        - protocol.pstats.gc_reclaimed_bytes
        - buffered
        - phantom
    )


def record_fields(record):
    """What a restore reads of a checkpoint record.  A batched epoch carries
    the sender log and the RPP table as extrapolated summaries, so those two
    payload entries differ in representation by design (their volume is
    inside ``size_bytes``); the clock is the payload entry that must agree.
    Of the id, the boundary's block of 16: inside a fast-forwarded boundary
    the per-message driver commits clusters in the order their barriers fill,
    the batched one in cluster order."""
    return (record.rank, record.iteration, record.app_state, record.time,
            record.sends_at_checkpoint, record.size_bytes,
            (record.checkpoint_id - 1) // 16, record.protocol_state.get("clock"))


def record_commits(sim, commits=None):
    """Spy on ``sim.storage.save`` before the run: ``commits`` fills with
    rank -> iteration -> the record last saved for it.  The store itself
    releases every line a completed one supersedes, so the checkpoints a
    run materialised are observed as they are committed."""
    commits = {} if commits is None else commits
    save = sim.storage.save

    def spy(**fields):
        record = save(**fields)
        commits.setdefault(record.rank, {})[record.iteration] = record
        return record

    sim.storage.save = spy
    return commits


def materialised(commits, rank, boundaries):
    """iteration -> record of the ``boundaries`` committed for ``rank``."""
    held = commits.get(rank, {})
    return {iteration: held[iteration] for iteration in boundaries if iteration in held}


def assert_equal_recovery_lines(batched, driven, boundaries, commits):
    """A batched run against the per-message-driven run of the same spec;
    ``commits`` is the pair of their :func:`record_commits` spies.

    Both *count* every coordinated checkpoint, through the same protocol
    method.  The batched one does not *build* the checkpoints a jumped span
    passes: each is superseded by the next before anything could restore it,
    and no ``checkpoint_at`` caller can name it -- ``rollback_clusters`` asks
    for ``latest_common_iteration`` only.  So the two runs agree on every
    total, on the recovery line rank by rank and cluster by cluster, and on
    every boundary that is materialised in both.
    """
    batched_commits, driven_commits = commits
    assert batched.storage.writes == driven.storage.writes == 16 * len(boundaries)
    assert batched.storage.bytes_written == driven.storage.bytes_written
    assert batched.protocol.pstats.as_dict() == driven.protocol.pstats.as_dict()
    jumped = 0
    for rank in range(16):
        assert (batched.stats.rank(rank).checkpoints
                == driven.stats.rank(rank).checkpoints == len(boundaries)), rank
        latest, expected = batched.storage.latest(rank), driven.storage.latest(rank)
        assert record_fields(latest) == record_fields(expected), rank
        # One cluster, or the last line is the one committed under DES.
        assert latest.checkpoint_id == expected.checkpoint_id, rank
        held = materialised(batched_commits, rank, boundaries)
        reference = materialised(driven_commits, rank, boundaries)
        assert list(reference) == list(boundaries)
        for iteration, record in held.items():
            assert record_fields(record) == record_fields(reference[iteration]), (rank, iteration)
        jumped += len(reference) - len(held)
    for cluster in batched.protocol.clusters:
        line = batched.storage.latest_common_iteration(cluster)
        assert line == driven.storage.latest_common_iteration(cluster) == boundaries[-1]
    return jumped


VOLUME_COUNTERS = (
    "app_messages",
    "app_bytes",
    "logged_messages",
    "logged_bytes",
    "checkpoints_taken",
    "checkpoint_bytes",
)

FAULT_SCENARIOS = {
    "free": [],
    "timed": [FailureEvent(ranks=(5,), time=0.004)],
    "iteration-triggered": [FailureEvent(ranks=(9,), at_iteration=80)],
    "two-strikes": [
        FailureEvent(ranks=(3,), time=0.003),
        FailureEvent(ranks=(12,), at_iteration=90),
    ],
}


class TestHybridParity:
    @pytest.mark.parametrize("label", sorted(FAULT_SCENARIOS))
    def test_counters_identical_and_makespan_within_band(self, label):
        (exact_sim, exact), (hybrid_sim, hybrid) = run_both(
            scenario(FAULT_SCENARIOS[label])
        )
        assert exact.status == hybrid.status == "completed"
        assert hybrid_sim.hybrid_stats["enabled"] == 1

        assert hybrid.stats.makespan == pytest.approx(exact.stats.makespan, rel=0.01)
        assert hybrid.stats.total_compute_time == pytest.approx(
            exact.stats.total_compute_time, rel=1e-9
        )

        # Volume counters are bit-exact, not merely close.
        for attr in VOLUME_COUNTERS:
            assert getattr(hybrid.stats, attr) == getattr(exact.stats, attr), attr

        exact_pstats = exact_sim.protocol.pstats.as_dict()
        hybrid_pstats = hybrid_sim.protocol.pstats.as_dict()
        for key, value in exact_pstats.items():
            if key == "gc_reclaimed_bytes":
                continue
            assert hybrid_pstats[key] == value, f"pstats.{key}"

        # The documented divergence: hybrid drains in-flight gc acks that an
        # exact run drops at termination -- never the other way around.
        # Draining only moves bytes from still-buffered to reclaimed 1:1, so
        # the total both modes account for must match exactly.  (The balance
        # itself is 0 unless a rollback restores already-reclaimed entries,
        # which then count as reclaimed twice -- identically in both modes.)
        assert hybrid_pstats["gc_reclaimed_bytes"] >= exact_pstats["gc_reclaimed_bytes"]
        assert log_byte_balance(hybrid_sim) == log_byte_balance(exact_sim)

    def test_failure_free_run_batches_whole_intervals(self):
        (_, _), (hybrid_sim, _) = run_both(scenario())
        stats = hybrid_sim.hybrid_stats
        assert stats["enabled"] == 1
        assert stats["fallback"] == 0
        assert stats["batched_iterations"] > 0
        assert stats["ff_iterations"] >= stats["batched_iterations"]

    def test_a_ring_of_two_rank_clusters_fast_forwards_per_message_exactly(self):
        # With 2-rank clusters on a ring the protocol's per-iteration epoch
        # delta alternates with period two, so no two consecutive deltas
        # agree: every probe fails on the causal phase clock and the epoch is
        # driven per message, still bit-exact.
        from repro.simulator.hybrid import HybridDirector

        spec = dataclasses.replace(
            scenario(iterations=60),
            workload=WorkloadSpec(kind="ring", nprocs=8, iterations=60),
        )
        exact_sim = build(spec)
        exact = exact_sim.run()
        director = HybridDirector(build(dataclasses.replace(spec, execution="hybrid")))
        hybrid_sim, hybrid = director.sim, director.run()
        assert exact.status == hybrid.status == "completed"
        assert hybrid_sim.hybrid_stats["fallback"] == 0
        assert hybrid_sim.hybrid_stats["batched_iterations"] == 0
        assert director.probe_mismatch[0] == "hydee.phase"
        for attr in VOLUME_COUNTERS:
            assert getattr(hybrid.stats, attr) == getattr(exact.stats, attr), attr
        assert hybrid_sim.protocol.pstats.as_dict() == exact_sim.protocol.pstats.as_dict()
        assert hybrid.stats.makespan == pytest.approx(exact.stats.makespan, rel=1e-12)

    def test_dense_checkpointing_disables_batching_but_stays_exact(self):
        # interval=1 leaves no boundary-free probe window; the per-message
        # fast-forward must carry the epoch alone, bit-exactly.
        (exact_sim, exact), (hybrid_sim, hybrid) = run_both(
            scenario(FAULT_SCENARIOS["timed"], iterations=60, interval=1)
        )
        assert hybrid_sim.hybrid_stats["enabled"] == 1
        assert hybrid_sim.hybrid_stats["batched_iterations"] == 0
        assert hybrid.stats.makespan == pytest.approx(exact.stats.makespan, rel=1e-12)
        assert hybrid.stats.checkpoint_bytes == exact.stats.checkpoint_bytes


    def test_per_message_and_batched_epochs_commit_equal_checkpoints(self):
        # Per-event trace records need real messages, so asking for them is
        # what keeps an otherwise batchable epoch on the per-message driver.
        # Both drivers commit through the same protocol method and must leave
        # the same records behind, rank by rank.
        batched = build(scenario(execution="hybrid"))
        driven = build(scenario(execution="hybrid", config={"record_trace_events": True}))
        commits = record_commits(batched), record_commits(driven)
        assert batched.run().status == driven.run().status == "completed"
        assert batched.hybrid_stats["batched_iterations"] > 0
        assert driven.hybrid_stats["batched_iterations"] == 0
        assert driven.hybrid_stats["ff_iterations"] == batched.hybrid_stats["ff_iterations"]

        boundaries = range(INTERVAL, ITERATIONS + 1, INTERVAL)
        jumped = assert_equal_recovery_lines(batched, driven, boundaries, commits)
        # 120 iterations hold one span long enough for the interval rung.
        assert jumped > 0 and batched.storage.saves == driven.storage.saves - jumped
        assert batched.hybrid_stats["line_commits"] == driven.hybrid_stats["line_commits"] - jumped
        # Between the exact warm-up and the exact final iterations, members
        # commit in cluster order, one cluster at a time.
        for sim, committed in zip((batched, driven), commits):
            warmup = sim.hybrid_stats["warmup_iterations"]
            assert 0 < warmup < ITERATIONS - INTERVAL
            for cluster in sim.protocol.clusters:
                held = [materialised(committed, rank, boundaries) for rank in cluster]
                for it in (it for it in held[0] if warmup < it < ITERATIONS):
                    ids = [records[it].checkpoint_id for records in held]
                    assert ids == list(range(ids[0], ids[0] + len(cluster)))


# ------------------------------------------------ protocol x interval grid
GRID_ITERATIONS = 80
GRID_WORKLOADS = ("stencil2d", "pipeline", "ring", "cg")
CATALOGUE = ("stencil1d", "stencil2d", "ring", "pipeline", "bt", "cg", "ft", "lu", "mg", "sp")

#: Named limit of both fast-forward interpreters (ROADMAP, differential
#: fuzzing), present before the grid existed.  HydEE checkpoints include the
#: live sender log, and which gc ack has landed when an inter-cluster sender
#: snapshots is decided by sub-iteration timing the fast-forward does not
#: model.  Pipeline, 120 iterations, interval 4, failure-free: exact
#: checkpoint_bytes 32 669 696; per-message fast-forward 33 341 440 (+2.1 %);
#: batched 32 243 712 self-calibrated (-1.3 %), 32 194 560 from the cache
#: (-1.5 %).  Per record, ranks 3 and 7 (the last of clusters 0 and 1) hold
#: 16 384 B of live log at a checkpoint in exact mode and 8 192 B batched,
#: rank 11 holds 8 192 B in both; interval 8 agrees.  The ring shows it only
#: once a rollback has skewed a cluster against its neighbours (interval 4,
#: struck: 21 299 200 exact, 21 291 008 hybrid, makespan equal to 1e-15).
ACK_RACE = pytest.mark.xfail(
    strict=True,
    reason="hybrid checkpoint_bytes != exact: gc-ack landing against the "
           "sender's next snapshot is a timing race fast-forward does not model "
           "(pipeline, interval 4, 120 iterations: exact 32 669 696, batched "
           "32 243 712 / 32 194 560, per-message 33 341 440)",
)
#: The other limit the struck half of the grid found, equally present before
#: it: after a HydEE rollback a pipeline runs at a rhythm the failure-free
#: rate model was not fitted to (interval 8, 80 iterations: makespan
#: 2.801 ms exact, 2.982 ms hybrid, +6.4 %; checkpoint_bytes differ too).
PIPELINE_AFTER_ROLLBACK = pytest.mark.xfail(
    strict=True,
    reason="HydEE x pipeline, struck: the post-rollback pipeline rhythm is not "
           "the calibrated one (interval 8: makespan +6.4 % against exact)",
)


def grid_spec(protocol, interval, kind, iterations=GRID_ITERATIONS, failures=()):
    return dataclasses.replace(
        scenario_spec(f"grid-{protocol}-{interval}-{kind}", kind, iterations,
                      protocol, interval),
        failures=tuple(failures),
    )


def run_hybrid(spec, start, commits=None, **config):
    """One hybrid run of ``spec``: self-calibrated, or from an activated
    calibration cache -- the way every Monte Carlo replica starts.  A
    ``commits`` dict is filled by :func:`record_commits`."""
    from repro.faults.montecarlo import prewarm_calibration
    from repro.simulator import calibration

    spec = dataclasses.replace(spec, execution="hybrid", config=config)
    if start == "self-calibrated":
        sim = build(spec)
        if commits is not None:
            record_commits(sim, commits)
        return sim, sim.run()
    cache = calibration.CalibrationCache()
    assert prewarm_calibration(spec, cache)
    with calibration.activated(cache):
        sim = build(spec)
        if commits is not None:
            record_commits(sim, commits)
        result = sim.run()
    assert sim.hybrid_stats["calibration_cached"] == 1
    return sim, result


def mid_interval_strike(makespan, interval):
    """A strike time three quarters into the run, in the middle of a
    checkpoint interval.  Next to a boundary a strike races the checkpoint
    commit, and which of the two wins -- one interval's difference in the
    restore line -- is decided well inside the makespan band."""
    iteration = (int(0.75 * GRID_ITERATIONS) // interval + 0.5) * interval
    return iteration / GRID_ITERATIONS * makespan


#: (protocol, interval, workload, fault) of the cells that hit a named limit.
KNOWN_LIMITS = {
    ("hydee", 3, "pipeline", "free"): ACK_RACE,
    ("hydee", 3, "pipeline", "timed"): ACK_RACE,
    ("hydee", 4, "pipeline", "free"): ACK_RACE,
    ("hydee", 4, "pipeline", "timed"): ACK_RACE,
    ("hydee", 4, "ring", "timed"): ACK_RACE,
    ("hydee", 8, "pipeline", "timed"): PIPELINE_AFTER_ROLLBACK,
}


def grid_cells():
    for protocol in ("hydee", "coordinated"):
        for interval in (3, 4, 8):
            for kind in GRID_WORKLOADS:
                for fault in ("free", "timed"):
                    cell = (protocol, interval, kind, fault)
                    limit = KNOWN_LIMITS.get(cell)
                    yield pytest.param(
                        *cell, marks=[limit] if limit else [],
                        id=f"{protocol}-{interval}-{kind}-{fault}",
                    )


class TestProtocolIntervalGrid:
    """Every protocol x interval x workload cell a sweep can start, from both
    starts, holds the parity contract of :class:`TestHybridParity`."""

    @pytest.mark.parametrize("protocol, interval, kind, fault", grid_cells())
    def test_counters_identical_and_makespan_within_band(
        self, protocol, interval, kind, fault
    ):
        spec = grid_spec(protocol, interval, kind)
        exact_sim = build(spec)
        exact = exact_sim.run()
        if fault == "timed":
            strike = mid_interval_strike(exact.stats.makespan, interval)
            spec = grid_spec(protocol, interval, kind,
                             failures=[FailureEvent(ranks=(5,), time=strike)])
            exact_sim = build(spec)
            exact = exact_sim.run()
            assert exact.stats.failures_injected == 1
        exact_pstats = exact_sim.protocol.pstats.as_dict()
        del exact_pstats["gc_reclaimed_bytes"]

        for start in ("self-calibrated", "activated cache"):
            hybrid_sim, hybrid = run_hybrid(spec, start)
            assert exact.status == hybrid.status == "completed", start
            assert hybrid_sim.hybrid_stats["fallback"] == 0, start
            for attr in VOLUME_COUNTERS:
                assert getattr(hybrid.stats, attr) == getattr(exact.stats, attr), (start, attr)
            hybrid_pstats = hybrid_sim.protocol.pstats.as_dict()
            for key, value in exact_pstats.items():
                assert hybrid_pstats[key] == value, (start, f"pstats.{key}")
            assert hybrid.stats.makespan == pytest.approx(
                exact.stats.makespan, rel=0.01
            ), start

    @pytest.mark.parametrize("kind", GRID_WORKLOADS)
    @pytest.mark.parametrize("interval", [3, 4, 8])
    def test_stateless_protocol_batches_what_per_message_drives(self, interval, kind):
        # Coordinated checkpointing batches by declaration (no message state):
        # the batched epochs must leave what the per-message driver leaves,
        # which asking for per-event trace records forces (see
        # test_per_message_and_batched_epochs_commit_equal_checkpoints).
        spec = grid_spec("coordinated", interval, kind)
        commits = {}, {}
        batched, batched_result = run_hybrid(spec, "activated cache", commits[0])
        driven, driven_result = run_hybrid(spec, "activated cache", commits[1],
                                           record_trace_events=True)
        assert batched_result.status == driven_result.status == "completed"
        assert batched.hybrid_stats["batched_iterations"] > 0
        assert driven.hybrid_stats["batched_iterations"] == 0
        assert driven.hybrid_stats["ff_iterations"] == batched.hybrid_stats["ff_iterations"]

        for attr in VOLUME_COUNTERS:
            assert getattr(batched_result.stats, attr) == getattr(driven_result.stats, attr), attr
        assert batched_result.stats.makespan == pytest.approx(
            driven_result.stats.makespan, rel=1e-12
        )
        assert batched_result.stats.total_compute_time == pytest.approx(
            driven_result.stats.total_compute_time, rel=1e-9
        )
        boundaries = range(interval, GRID_ITERATIONS + 1, interval)
        jumped = assert_equal_recovery_lines(batched, driven, boundaries, commits)
        # From the cache the whole run but its last iteration is one span.
        assert jumped > 0 and batched.storage.saves == driven.storage.saves - jumped

    @pytest.mark.parametrize("kind", CATALOGUE)
    @pytest.mark.parametrize("interval", [4, 8])
    @pytest.mark.parametrize("protocol", ["hydee", "coordinated"])
    def test_cached_start_batches_in_every_cell_but_ring_under_hydee(
        self, protocol, interval, kind
    ):
        # The start every sweep replica takes.  Before failed probes were
        # retried and stateless protocols batched, 8 of these 40 cells did.
        iterations = 120 if kind in ("stencil1d", "stencil2d", "ring", "pipeline") else 60
        sim, result = run_hybrid(
            grid_spec(protocol, interval, kind, iterations), "activated cache"
        )
        assert result.status == "completed"
        assert sim.hybrid_stats["fallback"] == 0
        if (protocol, kind) == ("hydee", "ring"):
            # By design: on a ring of 4-rank clusters the causal phase
            # clock's delta repeats only every 4 iterations (see _plan_batch).
            assert sim.hybrid_stats["batched_iterations"] == 0
        else:
            assert sim.hybrid_stats["batched_iterations"] > 0

    @pytest.mark.parametrize("protocol", ["hydee", "coordinated"])
    @pytest.mark.parametrize("kind", ["stencil2d", "pipeline"])
    def test_a_verified_probe_names_no_leaf(self, protocol, kind):
        from repro.simulator.hybrid import HybridDirector

        spec = dataclasses.replace(grid_spec(protocol, 8, kind, 120), execution="hybrid")
        director = HybridDirector(build(spec))
        assert director.run().status == "completed"
        assert director.stats["batched_iterations"] > 0
        assert director.probe_mismatch is None

    def test_failed_probes_are_retried_a_logarithmic_number_of_times(self, monkeypatch):
        # Ring under 4-rank HydEE clusters never verifies a delta, so every
        # probe of the epoch fails: the distance between windows doubles, and
        # the run is the forced per-message run, metric for metric.
        import math

        from repro.simulator.hybrid import HybridDirector

        epochs = []
        fast_forward_epoch = HybridDirector._fast_forward_epoch
        probe_deltas = HybridDirector._probe_deltas

        def counting_epoch(director, b, e, model, gate):
            epochs.append([e - b, 0])
            return fast_forward_epoch(director, b, e, model, gate)

        def counting_probe(director, *args):
            epochs[-1][1] += 1
            outcome = probe_deltas(director, *args)
            assert outcome is None
            # ... and every one of them fails on the causal phase clock: the
            # director names the leaf (what `_plan_batch` says of long periods).
            column, rank = director.probe_mismatch
            assert column == "hydee.phase" and rank in director.sim.ranks
            return outcome

        monkeypatch.setattr(HybridDirector, "_fast_forward_epoch", counting_epoch)
        monkeypatch.setattr(HybridDirector, "_probe_deltas", counting_probe)
        spec = grid_spec("hydee", 8, "ring", iterations=400)
        probed, probed_result = run_hybrid(spec, "self-calibrated")
        # One epoch: everything between the DES warm-up and the final iteration.
        warmup = probed.hybrid_stats["warmup_iterations"]
        assert 2 * 8 + 2 < warmup <= 4 * 8 + 2
        assert [length for length, _ in epochs] == [400 - warmup - 1]
        for length, probes in epochs:
            assert 1 < probes <= math.ceil(math.log2(length)) + 1, (length, probes)

        probes_made = sum(probes for _, probes in epochs)
        driven, driven_result = run_hybrid(spec, "self-calibrated", record_trace_events=True)
        assert sum(probes for _, probes in epochs) == probes_made  # tracing plans no probe
        assert probed.hybrid_stats["batched_iterations"] == 0
        assert probed_result.metrics.to_tree() == driven_result.metrics.to_tree()


class TestRollbackLandsOnTheMaterialisedLine:
    """A strike late in a long run finds a jumped span behind it: the rollback
    must restore the span's last, materialised line, exactly as it does when
    every boundary of the span was built (per-message drive) or simulated."""

    ITERATIONS = 400
    RECOVERY_COUNTERS = ("ranks_rolled_back", "checkpoint_bytes", "checkpoints_taken",
                         "logged_bytes", "app_messages")

    @classmethod
    def struck(cls, protocol, interval):
        """Rank 5 struck nine tenths into the run, in mid-interval."""
        free = grid_spec(protocol, interval, "stencil2d", cls.ITERATIONS)
        iteration = (int(0.9 * cls.ITERATIONS) // interval + 0.5) * interval
        strike = iteration / cls.ITERATIONS * build(free).run().stats.makespan
        return dataclasses.replace(free, failures=(FailureEvent(ranks=(5,), time=strike),))

    @staticmethod
    def run_recording_restarts(spec, execution, **config):
        sim = build(dataclasses.replace(spec, execution=execution, config=config))
        restarts = {}
        restart_rank = sim.restart_rank

        def recording(rank, iteration, **state):
            restarts[rank] = iteration
            return restart_rank(rank, iteration=iteration, **state)

        sim.restart_rank = recording
        result = sim.run()
        assert result.status == "completed" and result.stats.failures_injected == 1
        return sim, result, restarts

    @pytest.mark.parametrize("interval", [4, 8])
    @pytest.mark.parametrize("protocol", ["hydee", "coordinated"])
    def test_batched_driven_and_exact_restart_from_the_same_line(self, protocol, interval):
        spec = self.struck(protocol, interval)
        exact_sim, exact, exact_restarts = self.run_recording_restarts(spec, "exact")
        driven_sim, driven, driven_restarts = self.run_recording_restarts(
            spec, "hybrid", record_trace_events=True)
        batched_sim, batched, restarts = self.run_recording_restarts(spec, "hybrid")

        assert driven_sim.hybrid_stats["batched_iterations"] == 0
        assert batched_sim.hybrid_stats["batched_iterations"] > 0
        # The span before the strike jumped: most of its lines were never built.
        assert batched_sim.storage.saves < driven_sim.storage.saves // 4
        assert restarts == driven_restarts == exact_restarts
        assert len(restarts) == (4 if protocol == "hydee" else 16)
        assert set(restarts.values()) == {int(0.9 * self.ITERATIONS) // interval * interval}
        for attr in self.RECOVERY_COUNTERS:
            assert (getattr(batched.stats, attr) == getattr(driven.stats, attr)
                    == getattr(exact.stats, attr)), attr
        pstats = batched_sim.protocol.pstats.as_dict()
        assert pstats == driven_sim.protocol.pstats.as_dict()
        for key in ("replayed_messages", "suppressed_orphans", "rollbacks", "checkpoints"):
            assert pstats[key] == getattr(exact_sim.protocol.pstats, key), key
        assert batched.stats.makespan == pytest.approx(driven.stats.makespan, rel=1e-12)
        assert batched.stats.makespan == pytest.approx(exact.stats.makespan, rel=0.01)

    def test_acks_deferred_past_the_strike_veto_the_jump(self, monkeypatch):
        # A boundary's gc acks are due one control latency after the epoch's
        # frozen clock; those due past the pending strike are handed to the
        # engine instead of delivered.  With the strike within that latency
        # of the epoch start (forced here: the latency is stretched for the
        # epoch before the strike) no sender log is reclaimed inside the span
        # and every checkpoint is larger than the last.  That is not a linear
        # interval: the level columns keep the span on per-interval commits,
        # and each checkpoint is sized from the log volume it really carries.
        from repro.simulator.hybrid import HybridDirector

        spec = self.struck("hydee", 4)
        fast_forward_epoch = HybridDirector._fast_forward_epoch
        said = []  # line_mismatch after each epoch, both runs

        def stretched(director, *args):
            control = director.sim.control
            normal = control.latency_s
            if director.sim.failure_injector.next_timed_failure_time() is not None:
                control.latency_s = 1.25 * spec.failures[0].time
            try:
                return fast_forward_epoch(director, *args)
            finally:
                control.latency_s = normal
                said.append(director.line_mismatch)

        monkeypatch.setattr(HybridDirector, "_fast_forward_epoch", stretched)
        directors, commits = [], []
        for config in ({}, {"record_trace_events": True}):
            sim = build(dataclasses.replace(spec, execution="hybrid", config=config))
            commits.append(record_commits(sim))
            directors.append(HybridDirector(sim))
            result = directors[-1].run()
            assert result.status == "completed" and result.stats.failures_injected == 1
        batched, driven = (director.sim for director in directors)
        assert batched.hybrid_stats["batched_iterations"] > 0
        # Before the strike the queue level vetoes every rung; after it nothing
        # is pending and the rung verifies.  Per message there is no rung to try.
        assert said == [("steady", "pending_events"), None, None, None]
        boundaries = range(4, self.ITERATIONS + 1, 4)
        before = [it for it in boundaries if it <= int(0.9 * self.ITERATIONS)]
        for rank in range(16):
            held, reference = (materialised(committed, rank, boundaries) for committed in commits)
            assert list(held)[:len(before)] == before, rank  # every line before the strike
            sizes = [held[it].size_bytes for it in before]
            assert sizes == [reference[it].size_bytes for it in before], rank
            assert len(set(sizes)) > len(before) // 2, rank  # ... carrying a growing log
            for it, record in held.items():
                assert record_fields(record) == record_fields(reference[it]), (rank, it)
        assert batched.protocol.pstats.as_dict() == driven.protocol.pstats.as_dict()
        assert batched.stats.makespan == pytest.approx(driven.stats.makespan, rel=1e-12)


class TestGuardWindowShape:
    """The DES window before a timed strike is what the rate model projects:
    :data:`GUARD_ITERATIONS` whole iterations and the struck one."""

    @pytest.mark.parametrize("start", ["self-calibrated", "activated cache"])
    @pytest.mark.parametrize("interval", [1, 3, 4, 8])  # 1: the flat model
    def test_fast_forward_stops_two_projected_iterations_before_the_strike(
        self, monkeypatch, interval, start
    ):
        from repro.simulator.hybrid import GUARD_ITERATIONS, HybridDirector

        spec = grid_spec("hydee", interval, "stencil2d")
        strike = mid_interval_strike(build(spec).run().stats.makespan, interval)
        spec = grid_spec("hydee", interval, "stencil2d",
                         failures=[FailureEvent(ranks=(5,), time=strike)])

        epochs, counts_at_strike = [], []
        fast_forward_epoch = HybridDirector._fast_forward_epoch
        kill_ranks = Simulation.kill_ranks

        def recording_epoch(director, b, e, model, gate):
            t_f = director.sim.failure_injector.next_timed_failure_time()
            if t_f is not None:
                projected = min(
                    model.iterations_at(rank, entry[1], b, t_f)
                    for rank, entry in gate.parked.items()
                )
                epochs.append((b, e, projected, model.phases is None))
            return fast_forward_epoch(director, b, e, model, gate)

        def recording_kill(sim, ranks):
            counts_at_strike.append(
                min(proc.completed_iterations for proc in sim.ranks.values())
            )
            return kill_ranks(sim, ranks)

        monkeypatch.setattr(HybridDirector, "_fast_forward_epoch", recording_epoch)
        monkeypatch.setattr(Simulation, "kill_ranks", recording_kill)
        sim, result = run_hybrid(spec, start)
        assert result.status == "completed" and result.stats.failures_injected == 1

        (b, e, projected, flat), = epochs  # one epoch ends at the window
        assert flat == (interval == 1)
        assert e == projected - GUARD_ITERATIONS
        assert b == sim.hybrid_stats["warmup_iterations"]  # 0 from the cache
        if not flat:
            # The phase model is exact in steady state: the strike finds every
            # rank two whole iterations into the window, inside the third.
            assert counts_at_strike == [e + GUARD_ITERATIONS]


class TestGuardWindowTrace:
    def test_recovery_window_events_byte_identical_after_normalisation(self):
        spec = scenario(
            FAULT_SCENARIOS["iteration-triggered"],
            config={"record_trace_events": True},
        )
        (exact_sim, _), (hybrid_sim, _) = run_both(spec)

        def normalised_window(sim):
            report = sim.protocol.recovery_reports[0]
            t0, t1 = report["started_at"], report["completed_at"]
            return [
                (
                    rec.event,
                    rec.source,
                    rec.dest,
                    rec.tag,
                    rec.size_bytes,
                    rec.replayed,
                    rec.inter_cluster,
                    rec.phase,
                    rec.date,
                )
                for rec in sim.trace.records
                if t0 <= rec.time <= t1
            ]

        exact_window = normalised_window(exact_sim)
        hybrid_window = normalised_window(hybrid_sim)
        assert len(exact_window) > 0
        assert hybrid_window == exact_window


class TestSpecHashStability:
    def test_exact_spec_hash_is_unchanged_by_the_execution_field(self):
        spec = scenario(FAULT_SCENARIOS["timed"])
        assert "execution" not in spec.to_dict()
        assert dataclasses.replace(spec, execution="exact").spec_hash() == spec.spec_hash()

    def test_hybrid_opt_in_re_keys_the_spec(self):
        spec = scenario()
        hybrid = dataclasses.replace(spec, execution="hybrid")
        assert hybrid.to_dict()["execution"] == "hybrid"
        assert hybrid.spec_hash() != spec.spec_hash()
        round_trip = ScenarioSpec.from_json(hybrid.to_json())
        assert round_trip.execution == "hybrid"
        assert round_trip.spec_hash() == hybrid.spec_hash()

    @pytest.mark.parametrize("key", ["execution", "calibration_key"])
    def test_derived_run_settings_are_not_config_overrides(self, key):
        # The execution mode and the calibration key have one home each:
        # ScenarioSpec.execution and spec.calibration_key().
        spec = dataclasses.replace(scenario(), execution="hybrid", config={key: "exact"})
        with pytest.raises(ConfigurationError, match="ScenarioSpec.execution"):
            build(spec)


class TestFallbacks:
    def assert_fell_back(self, sim, result, reason_fragment):
        assert result.status == "completed"
        assert sim.hybrid_stats["fallback"] == 1
        assert sim.hybrid_stats["enabled"] == 0
        assert reason_fragment in sim.stats.extra["hybrid_fallback_reason"]

    def test_short_runs_fall_back_statically(self):
        spec = dataclasses.replace(scenario(iterations=4), execution="hybrid")
        sim = build(spec)
        result = sim.run()
        self.assert_fell_back(sim, result, "too few iterations")

    def test_strike_inside_warmup_falls_back(self):
        spec = dataclasses.replace(
            scenario([FailureEvent(ranks=(5,), at_iteration=2)]),
            execution="hybrid",
        )
        sim = build(spec)
        result = sim.run()
        self.assert_fell_back(sim, result, "warm-up")

    def test_non_send_deterministic_workload_falls_back(self):
        spec = dataclasses.replace(
            ScenarioSpec(
                name="hybrid-mw",
                workload=WorkloadSpec(
                    kind="master-worker", nprocs=8, iterations=ITERATIONS
                ),
                # HydEE rejects a non-send-deterministic application.
                protocol=ProtocolSpec(
                    name="coordinated", options={"checkpoint_interval": INTERVAL}
                ),
            ),
            execution="hybrid",
        )
        sim = build(spec)
        result = sim.run()
        self.assert_fell_back(sim, result, "master-worker")

    def test_fallback_matches_exact_execution_exactly(self):
        base = scenario(iterations=4)
        exact = build(base).run()
        hybrid = build(dataclasses.replace(base, execution="hybrid")).run()
        assert hybrid.stats.makespan == exact.stats.makespan
        assert hybrid.stats.app_messages == exact.stats.app_messages

    def test_event_tracing_disables_batching_only(self):
        spec = dataclasses.replace(
            scenario(config={"record_trace_events": True}), execution="hybrid"
        )
        sim = build(spec)
        result = sim.run()
        assert result.status == "completed"
        assert sim.hybrid_stats["enabled"] == 1
        assert sim.hybrid_stats["fallback"] == 0
        assert sim.hybrid_stats["batched_iterations"] == 0
        assert sim.hybrid_stats["ff_iterations"] > 0


class _MisdeclaredRing(Application):
    """A ring exchange that is honestly fast-forwardable until iteration
    ``misbehave_from`` (past the 3-iteration warm-up, i.e. inside the first
    fast-forwarded epoch), where ``misbehave`` runs instead."""

    name = "misdeclared-ring"
    ff_compatible = True

    def __init__(self, nprocs, iterations, misbehave, misbehave_from=5):
        super().__init__(nprocs, iterations)
        self._misbehave = misbehave
        self._from = misbehave_from

    def setup(self, rank, nprocs):
        return {"seen": 0}

    def iteration(self, comm, rank, state, it):
        if it >= self._from:
            yield from self._misbehave(comm, rank)
            return
        right, left = (rank + 1) % comm.size, (rank - 1) % comm.size
        message = yield from comm.sendrecv(right, it, source=left, tag=7, size_bytes=64)
        state["seen"] += message.payload
        yield from comm.compute(1.0e-5)


def _waitany(comm, rank):
    requests = [comm.irecv(source=(rank - 1) % comm.size, tag=8),
                comm.isend((rank + 1) % comm.size, 0, tag=8, size_bytes=8)]
    yield from comm.waitany(requests)


def _irecv_any_source(comm, rank):
    comm.isend((rank + 1) % comm.size, 0, tag=8, size_bytes=8)
    yield from comm.wait(comm.irecv(source=ANY_SOURCE, tag=8))


def _recv_any_source(comm, rank):
    comm.isend((rank + 1) % comm.size, 0, tag=8, size_bytes=8)
    yield from comm.recv(source=ANY_SOURCE, tag=8)


def _wait_condition(comm, rank):
    yield from comm.wait_condition(Condition("never"))


def _unmatched_receive(comm, rank):
    # Everybody listens, nobody talks.
    yield from comm.recv(source=(rank - 1) % comm.size, tag=9)


class TestFastForwardFailurePaths:
    """The fast-forward interpreter fails loudly and locally: a call only
    event timing can decide, or a receive nobody serves, raises naming the
    rank and the call instead of producing a silently different run."""

    def run_hybrid(self, misbehave):
        app = _MisdeclaredRing(4, 12, misbehave)
        sim = Simulation(app, nprocs=4, config=SimulationConfig(execution="hybrid"))
        return sim.run()

    @pytest.mark.parametrize("misbehave, call", [
        (_waitany, "wait(mode=any, n=2)"),
        (_irecv_any_source, "an ANY_SOURCE receive (wait(mode=one, n=1))"),
        (_recv_any_source, "an ANY_SOURCE receive (recv(source=-1, tag=8))"),
        (_wait_condition, "wait_condition(never)"),
    ], ids=["waitany", "irecv-any-source", "recv-any-source", "wait-condition"])
    def test_calls_that_need_event_timing_are_rejected(self, misbehave, call):
        # Rank 2 is the first to reach the misbehaving iteration (ascending
        # rank start, FIFO wake order: deterministic).
        with pytest.raises(SimulationError) as excinfo:
            self.run_hybrid(misbehave)
        assert str(excinfo.value) == (
            f"rank 2: {call} cannot be fast-forwarded; declare the workload "
            "ff_compatible = False"
        )

    def test_the_honest_iterations_do_fast_forward(self):
        # Control: with the misbehaviour out of reach the same workload
        # fast-forwards, so the rejections above come from inside an epoch.
        app = _MisdeclaredRing(4, 12, _waitany, misbehave_from=12)
        sim = Simulation(app, nprocs=4, config=SimulationConfig(execution="hybrid"))
        assert sim.run().completed
        assert sim.hybrid_stats["enabled"] == 1
        assert sim.hybrid_stats["ff_iterations"] > 0

    def test_deadlock_names_each_stuck_rank_and_its_pending_op(self):
        with pytest.raises(SimulationError) as excinfo:
            self.run_hybrid(_unmatched_receive)
        report = str(excinfo.value)
        assert report.startswith("fast-forward deadlock: ")
        for rank in range(4):
            assert (
                f"rank {rank} in iteration 5 blocked on "
                f"recv(source={(rank - 1) % 4}, tag=9)"
            ) in report


def calibration_fields(entry):
    """A :class:`Calibration` as plain values (its model compares by identity)."""
    model = entry.model
    return (model.dt, model.ckpt_extra, model.interval, model.dt_spread,
            model.phases, entry.warmup, entry.park_times)


class TestCalibrateOnly:
    """``HybridDirector.calibrate()`` is ``run()`` cut off after the warm-up:
    the entry the campaign pre-warm stores is the one a full run exports."""

    @staticmethod
    def spec(kind, protocol, interval, iterations=ITERATIONS, failures=()):
        return dataclasses.replace(
            scenario_spec("calibrate-only", kind, iterations, protocol, interval),
            failures=tuple(failures),
            execution="hybrid",
        )

    @pytest.mark.parametrize(
        "kind, protocol, interval, phase_model",
        [
            ("stencil2d", "hydee", 8, True),
            ("pipeline", "hydee", 1, False),
            ("ring", "coordinated", 8, True),
        ],
    )
    def test_entry_equals_the_one_a_full_run_exports(
        self, kind, protocol, interval, phase_model
    ):
        from repro.simulator.hybrid import HybridDirector

        spec = self.spec(kind, protocol, interval)
        full = build(spec)
        assert full.run().status == "completed"
        assert full.hybrid_stats["enabled"] == 1
        assert full.hybrid_stats["calibration_cached"] == 0

        sim = build(spec)
        entry = HybridDirector(sim).calibrate()
        assert calibration_fields(entry) == calibration_fields(full.hybrid_calibration)
        assert (entry.model.phases is not None) == phase_model
        # Only the warm-up ran: every rank is parked at the gate, none done.
        assert 0 < sim.engine.events_processed < full.engine.events_processed
        assert {it for _, _, it, _ in sim.iteration_gate.parked.values()} == {
            entry.warmup
        }

    @pytest.mark.parametrize("kind", GRID_WORKLOADS)
    @pytest.mark.parametrize("interval", [3, 4, 8])
    @pytest.mark.parametrize("protocol", ["hydee", "coordinated"])
    def test_warm_up_stops_at_the_first_verified_period(
        self, monkeypatch, protocol, interval, kind
    ):
        from repro.simulator.hybrid import HybridDirector

        spec = self.spec(kind, protocol, interval, iterations=GRID_ITERATIONS)
        stopped = HybridDirector(build(spec)).calibrate()

        # Reference: the same warm-up with every mid-stretch fit declined (the
        # listener is still installed when it asks), i.e. the whole rung.
        calibrate_phases = HybridDirector._calibrate_phases

        def declined_mid_warm_up(director, warmup):
            if director.sim._iteration_listener is not None:
                return None, "reference run: keep the full rung"
            return calibrate_phases(director, warmup)

        monkeypatch.setattr(HybridDirector, "_calibrate_phases", declined_mid_warm_up)
        full = HybridDirector(build(spec)).calibrate()

        assert full.warmup == 4 * interval + 2
        if (protocol, kind) == ("hydee", "pipeline"):
            # The head of the pipeline is parked at the full rung long before
            # the tail has two periods: the limit stays, nobody is stranded.
            assert calibration_fields(stopped) == calibration_fields(full)
        else:
            assert 2 * interval + 2 < stopped.warmup < full.warmup
        for rank, phases in full.model.phases.items():
            assert stopped.model.phases[rank] == pytest.approx(phases, rel=1e-9)

    @pytest.mark.parametrize(
        "spec_kwargs",
        [
            {"kind": "master-worker", "protocol": "coordinated", "interval": 8},
            {"kind": "stencil2d", "protocol": "hydee", "interval": 8, "iterations": 4},
            {
                "kind": "stencil2d", "protocol": "hydee", "interval": 8,
                "failures": [FailureEvent(ranks=(5,), at_iteration=2)],
            },
        ],
        ids=["master-worker", "too-short", "strike-inside-warm-up"],
    )
    def test_static_fallback_returns_none_without_simulating(self, spec_kwargs):
        from repro.simulator.hybrid import HybridDirector

        sim = build(self.spec(**spec_kwargs))
        assert HybridDirector(sim).calibrate() is None
        assert sim.engine.events_processed == 0
        assert sim.hybrid_calibration is None


class TestMonteCarloAggregates:
    def test_hybrid_campaign_matches_exact_aggregates_within_band(self):
        from repro.faults.montecarlo import run_montecarlo
        from repro.faults.spec import FaultModelSpec

        base = scenario()
        makespan = build(base).run().stats.makespan
        spec = dataclasses.replace(
            base,
            fault_model=FaultModelSpec(
                distribution="exponential",
                seed=11,
                params={"mtbf_s": makespan * 16 * 1.5},
                horizon_s=makespan,
                max_failures=2,
            ),
        )
        exact = run_montecarlo(spec, replicas=6, execution="exact")
        hybrid = run_montecarlo(spec, replicas=6, execution="hybrid")
        assert exact.completed_replicas == hybrid.completed_replicas == 6
        for path in ("faults.sim.makespan.mean", "faults.sim.total_compute_time.mean"):
            assert hybrid.metric(path) == pytest.approx(
                exact.metric(path), rel=0.01
            ), path
        assert hybrid.metric("faults.sim.app_bytes.mean") == exact.metric(
            "faults.sim.app_bytes.mean"
        )


class TestCalibrationCache:
    """Shared warm-up calibration (simulator.calibration).

    A cached rate model must be a pure fast path: replicas that read it
    skip the DES warm-up but stay bit-identical on every volume counter
    and keep the same makespan accuracy -- the per-epoch probes re-verify
    the model against real iterations regardless of where it came from.
    """

    def fault_model(self, makespan):
        from repro.faults.spec import FaultModelSpec

        return FaultModelSpec(
            distribution="exponential",
            seed=11,
            params={"mtbf_s": makespan * 16 * 1.5},
            horizon_s=makespan,
            max_failures=2,
        )

    def test_cached_model_skips_warmup_and_stays_bit_exact(self):
        from repro.simulator import calibration

        spec = dataclasses.replace(scenario(), execution="hybrid")
        exact = build(dataclasses.replace(spec, execution="exact")).run()
        cold_sim = build(spec)
        cold = cold_sim.run()
        assert cold_sim.hybrid_stats["calibration_cached"] == 0
        assert cold_sim.hybrid_calibration is not None

        cache = calibration.CalibrationCache()
        cache.put(spec.calibration_key(), cold_sim.hybrid_calibration)
        with calibration.activated(cache):
            warm_sim = build(spec)
            warm = warm_sim.run()
        assert warm_sim.hybrid_stats["calibration_cached"] == 1
        assert warm_sim.hybrid_stats["warmup_iterations"] == 0
        assert warm_sim.hybrid_stats["fallback"] == 0
        # The whole pre-model span is fast-forwarded instead of warmed up.
        assert warm_sim.hybrid_stats["des_iterations"] < cold_sim.hybrid_stats[
            "des_iterations"
        ]
        assert warm.stats.app_messages == exact.stats.app_messages
        assert warm.stats.app_bytes == exact.stats.app_bytes
        assert warm.stats.makespan == pytest.approx(exact.stats.makespan, rel=0.01)
        # Cold and warm replicas agree with each other far tighter than the
        # acceptance band: both timelines come from the same model.
        assert warm.stats.makespan == pytest.approx(cold.stats.makespan, rel=1e-9)

    @pytest.mark.parametrize("fault", ["free", "struck"])
    @pytest.mark.parametrize("interval", [4, 8])
    @pytest.mark.parametrize("protocol", ["hydee", "coordinated"])
    @pytest.mark.parametrize("kind", GRID_WORKLOADS)
    def test_replicas_only_read_the_shared_value(self, kind, protocol, interval, fault):
        """Serial replicas of one process share the pre-warm's value itself,
        not a copy: a replica -- rollback and all -- must leave it exactly
        as the warm-up fitted it, or the next serial replica would start
        from a different model than a forked worker does."""
        import copy

        from repro.faults.montecarlo import prewarm_calibration
        from repro.simulator import calibration

        failures = []
        if fault == "struck":
            strike = (3 * GRID_ITERATIONS // 4 // interval) * interval + interval // 2
            failures = [FailureEvent(ranks=(5,), at_iteration=strike)]
        spec = dataclasses.replace(
            grid_spec(protocol, interval, kind, failures=failures), execution="hybrid"
        )
        cache = calibration.CalibrationCache()
        assert prewarm_calibration(spec, cache)
        entry = cache.get(spec.calibration_key())
        fitted = copy.deepcopy(calibration_fields(entry))

        replicas = []
        with calibration.activated(cache):
            for _ in range(2):
                sim = build(spec)
                result = sim.run()
                assert result.status == "completed"
                assert sim.hybrid_stats["calibration_cached"] == 1
                assert result.stats.failures_injected == len(failures)
                assert cache.get(spec.calibration_key()) is entry
                assert calibration_fields(entry) == fitted
                replicas.append((result.stats.makespan, dict(sim.hybrid_stats),
                                 [getattr(result.stats, a) for a in VOLUME_COUNTERS]))
        assert replicas[0] == replicas[1]

    def test_grown_stored_campaign_equals_the_storeless_one(self, tmp_path):
        """Growing a stored campaign pre-warms again in memory: the new
        replicas record exactly what a store-less campaign records, down to
        the last bit of ``sim.hybrid.dt_mean_s`` (a model read back from a
        file summed its per-rank durations in string-sorted rank order)."""
        from repro.campaign.store import ResultsStore
        from repro.faults.montecarlo import run_montecarlo

        base = scenario()
        makespan = build(base).run().stats.makespan
        spec = dataclasses.replace(base, fault_model=self.fault_model(makespan))
        storeless = run_montecarlo(spec, replicas=8)
        path = str(tmp_path / "store.json")
        run_montecarlo(spec, replicas=4, store=ResultsStore(path))
        grown = run_montecarlo(spec, replicas=8, store=ResultsStore(path))
        assert grown.cache_hits == 4
        for alone, stored in zip(storeless.runs, grown.runs):
            assert stored.metrics.to_tree() == alone.metrics.to_tree(), stored.name
            assert stored.metric("sim.hybrid.dt_mean_s") == alone.metric(
                "sim.hybrid.dt_mean_s")

    def test_calibration_key_ignores_failures_but_not_timing_fields(self):
        base = scenario()
        assert (
            dataclasses.replace(base, execution="hybrid").calibration_key()
            == base.calibration_key()
        )
        assert (
            scenario(FAULT_SCENARIOS["timed"]).calibration_key()
            == base.calibration_key()
        )
        assert scenario(interval=4).calibration_key() != base.calibration_key()
        assert scenario(iterations=60).calibration_key() != base.calibration_key()

    def test_montecarlo_prewarm_keeps_byte_identity_and_writes_no_file(self, tmp_path):
        from repro.campaign.store import ResultsStore
        from repro.faults.montecarlo import run_montecarlo

        base = scenario()
        makespan = build(base).run().stats.makespan
        spec = dataclasses.replace(base, fault_model=self.fault_model(makespan))
        serial_store = ResultsStore(str(tmp_path / "serial.json"))
        parallel_store = ResultsStore(str(tmp_path / "parallel.json"))
        serial = run_montecarlo(spec, replicas=6, workers=1, store=serial_store)
        parallel = run_montecarlo(spec, replicas=6, workers=3, store=parallel_store)
        # The calibration reaches the forked workers in memory, never on disk.
        assert list(tmp_path.glob("*.calibration.json")) == []
        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "parallel.json"
        ).read_bytes()
        # Every replica read the pre-warmed entry; none re-ran the warm-up,
        # and the aggregate surfaces that as a queryable faults.* metric.
        assert serial.metric("faults.sim.hybrid.calibration_cached.mean") == 1.0
        assert serial.metric("faults.sim.hybrid.warmup_iterations.mean") == 0.0
        assert serial.metric("faults.sim.hybrid.fallback.mean") == 0.0
        assert parallel.metric("faults.sim.hybrid.calibration_cached.mean") == 1.0
