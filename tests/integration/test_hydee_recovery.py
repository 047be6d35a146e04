"""Integration tests for HydEE recovery (Algorithms 2-4, Theorems 1-2).

Every scenario injects fail-stop failures, lets HydEE recover, and checks the
full battery of executable paper invariants: failure containment, identical
final results, send-determinism of the re-execution, and (on the reference
trace) the phase lemmas.
"""

import pytest

from repro import HydEEProtocol, Simulation
from repro.core.invariants import check_all_recovery_invariants
from repro.errors import DeadlockError, InvariantViolation, ProtocolError
from repro.simulator.failures import FailureEvent, FailureInjector
from repro.simulator.stable_storage import StableStorage
from repro.workloads import (
    PipelineApplication,
    RingApplication,
    Stencil2DApplication,
    make_nas_application,
)

CLUSTERS16 = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]


def reference_run(app_factory):
    app = app_factory()
    return Simulation(app, nprocs=app.nprocs).run()


def recovery_run(app_factory, failure_events, checkpoint_interval=2, clusters=CLUSTERS16,
                 **config_kwargs):
    app = app_factory()
    protocol = HydEEProtocol(clusters=clusters, checkpoint_interval=checkpoint_interval,
                             checkpoint_size_bytes=16 * 1024, **config_kwargs)
    injector = FailureInjector(failure_events)
    result = Simulation(app, nprocs=app.nprocs, protocol=protocol, failures=injector).run()
    return result, protocol


STENCIL = lambda: Stencil2DApplication(nprocs=16, iterations=8)


def post_session_bug(second_at, raises):
    """A strike shortly after a completed HydEE session: a known, open bug."""
    return pytest.param(second_at, marks=pytest.mark.xfail(
        strict=True, raises=raises,
        reason="a strike shortly after a completed HydEE session (open bug)",
    ))


class TestSingleFailure:
    @pytest.mark.parametrize("failed_rank", [0, 5, 10, 15])
    def test_failure_of_any_rank_is_contained_and_correct(self, failed_rank):
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(
            STENCIL, [FailureEvent(ranks=[failed_rank], at_iteration=5)]
        )
        summary = check_all_recovery_invariants(reference, result, protocol, [failed_rank])
        assert summary["containment"]["fraction"] == pytest.approx(0.25)
        assert result.stats.ranks_rolled_back == 4

    @pytest.mark.parametrize("fail_iteration", [1, 3, 4, 6, 8])
    def test_failure_at_various_points_of_the_execution(self, fail_iteration):
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(
            STENCIL, [FailureEvent(ranks=[9], at_iteration=fail_iteration)]
        )
        check_all_recovery_invariants(reference, result, protocol, [9])

    @pytest.mark.parametrize("checkpoint_interval", [1, 2, 3, 5])
    def test_various_checkpoint_intervals(self, checkpoint_interval):
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(
            STENCIL,
            [FailureEvent(ranks=[6], at_iteration=6)],
            checkpoint_interval=checkpoint_interval,
        )
        check_all_recovery_invariants(reference, result, protocol, [6])

    def test_failure_before_any_checkpoint_restarts_cluster_from_scratch(self):
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(
            STENCIL, [FailureEvent(ranks=[2], at_iteration=1)], checkpoint_interval=4
        )
        check_all_recovery_invariants(reference, result, protocol, [2])
        # The cluster restarted from iteration 0 (no checkpoint existed yet).
        assert protocol.recovery_reports[0]["rolled_back_ranks"] == [0, 1, 2, 3]

    def test_time_triggered_failure(self):
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(STENCIL, [FailureEvent(ranks=[13], time=250e-6)])
        check_all_recovery_invariants(reference, result, protocol, [13])

    def test_recovery_replays_only_inter_cluster_messages(self):
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(STENCIL, [FailureEvent(ranks=[5], at_iteration=5)])
        check_all_recovery_invariants(reference, result, protocol, [5])
        assert protocol.pstats.replayed_messages > 0
        assert protocol.pstats.replayed_messages <= protocol.pstats.logged_messages
        assert protocol.pstats.suppressed_orphans > 0
        assert result.stats.recovery_time > 0.0

    def test_recovery_report_contents(self):
        result, protocol = recovery_run(STENCIL, [FailureEvent(ranks=[5], at_iteration=5)])
        assert len(protocol.recovery_reports) == 1
        report = protocol.recovery_reports[0]
        assert report["rolled_back_ranks"] == [4, 5, 6, 7]
        assert report["orphan_messages"] == protocol.pstats.suppressed_orphans
        assert report["completed_at"] >= report["started_at"]


class TestMultipleFailures:
    def test_concurrent_failures_in_two_clusters(self):
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(
            STENCIL, [FailureEvent(ranks=[1, 14], at_iteration=5)]
        )
        summary = check_all_recovery_invariants(reference, result, protocol, [1, 14])
        assert result.stats.ranks_rolled_back == 8
        assert summary["containment"]["fraction"] == pytest.approx(0.5)

    def test_whole_cluster_fails_at_once(self):
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(
            STENCIL, [FailureEvent(ranks=[8, 9, 10, 11], at_iteration=5)]
        )
        check_all_recovery_invariants(reference, result, protocol, [8, 9, 10, 11])
        assert result.stats.ranks_rolled_back == 4

    def test_three_cluster_concurrent_failure(self):
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(
            STENCIL, [FailureEvent(ranks=[0, 6, 11], at_iteration=4)]
        )
        check_all_recovery_invariants(reference, result, protocol, [0, 6, 11])
        assert result.stats.ranks_rolled_back == 12

    def test_sequential_failures_with_recovery_in_between(self):
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(
            STENCIL,
            [
                FailureEvent(ranks=[5], at_iteration=3),
                FailureEvent(ranks=[10], at_iteration=7, rank_trigger=10),
            ],
        )
        # Both recoveries completed; total restarts counted per failure.
        assert len(protocol.recovery_reports) == 2
        assert result.rank_results == reference.rank_results
        assert result.stats.ranks_rolled_back == 8

    @pytest.mark.parametrize("second_at", [202e-6, 205e-6, 300e-6])
    def test_strike_inside_a_recovery_session_joins_it(self, second_at):
        # Rank 5's session (cluster 1) is still active when rank 10 fails:
        # the strike lands at its time and joins the session, which then
        # rolls back clusters 1 and 2 together, as one simultaneous strike
        # of both ranks would.
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(
            STENCIL,
            [FailureEvent(ranks=[5], time=200e-6), FailureEvent(ranks=[10], time=second_at)],
        )
        check_all_recovery_invariants(reference, result, protocol, [5, 10])
        assert [report["rolled_back_ranks"] for report in protocol.recovery_reports] == [
            list(range(4, 12))
        ]
        assert protocol.recovery_reports[0]["started_at"] == 200e-6

    @pytest.mark.parametrize("second_at", [
        post_session_bug(1210e-6, DeadlockError),
        post_session_bug(1252e-6, ProtocolError),
        post_session_bug(1300e-6, ProtocolError),
        post_session_bug(1400e-6, InvariantViolation),
        1500e-6,
    ])
    def test_strike_after_a_completed_session(self, second_at):
        # Rank 5's session completes at about 1.2 ms; rank 10 then strikes
        # in a fresh session.  Until about 1.5 ms the second recovery
        # deadlocks, sees an orphan notification nobody reported, or
        # completes with wrong results.
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(
            STENCIL,
            [FailureEvent(ranks=[5], time=200e-6), FailureEvent(ranks=[10], time=second_at)],
        )
        check_all_recovery_invariants(reference, result, protocol, [5, 10])
        assert len(protocol.recovery_reports) == 2


class TestOtherWorkloadsAndTopologies:
    @pytest.mark.parametrize(
        "factory,clusters,failed",
        [
            (lambda: RingApplication(nprocs=16, iterations=6), CLUSTERS16, 7),
            (lambda: PipelineApplication(nprocs=16, iterations=5), CLUSTERS16, 11),
            (
                lambda: make_nas_application("cg", nprocs=16, iterations=4, message_scale=0.01),
                CLUSTERS16,
                6,
            ),
            (
                lambda: make_nas_application("bt", nprocs=16, iterations=4, message_scale=0.01),
                CLUSTERS16,
                3,
            ),
            (
                lambda: make_nas_application("ft", nprocs=16, iterations=3, message_scale=0.01),
                [[r for r in range(8)], [r for r in range(8, 16)]],
                12,
            ),
        ],
        ids=["ring", "pipeline", "cg", "bt", "ft-2clusters"],
    )
    def test_recovery_across_workloads(self, factory, clusters, failed):
        reference = reference_run(factory)
        result, protocol = recovery_run(
            factory, [FailureEvent(ranks=[failed], at_iteration=3)], clusters=clusters
        )
        check_all_recovery_invariants(reference, result, protocol, [failed])

    def test_unbalanced_clusters(self):
        clusters = [[0], [1, 2, 3, 4, 5], [6, 7, 8, 9], [10, 11, 12, 13, 14, 15]]
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(
            STENCIL, [FailureEvent(ranks=[0], at_iteration=5)], clusters=clusters
        )
        check_all_recovery_invariants(reference, result, protocol, [0])
        assert result.stats.ranks_rolled_back == 1

    def test_single_cluster_degenerates_to_global_rollback(self):
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(
            STENCIL, [FailureEvent(ranks=[5], at_iteration=5)], clusters=None
        )
        assert result.rank_results == reference.rank_results
        assert result.stats.ranks_rolled_back == 16
        assert protocol.pstats.logged_messages == 0

    def test_log_all_configuration_still_recovers(self):
        reference = reference_run(STENCIL)
        result, protocol = recovery_run(
            STENCIL,
            [FailureEvent(ranks=[5], at_iteration=5)],
            log_all_messages=True,
        )
        check_all_recovery_invariants(reference, result, protocol, [5])

    def test_no_event_logging_anywhere(self):
        """The headline claim: recovery succeeds although no determinant was
        ever recorded (the protocol has no determinant structure at all)."""
        result, protocol = recovery_run(STENCIL, [FailureEvent(ranks=[5], at_iteration=5)])
        assert result.completed
        assert protocol.pstats.determinants_logged == 0


class TestCheckpointWaves:
    """A coordinated checkpoint in progress is one wave record; nothing of it
    outlives its completion or its cluster's rollback."""

    @staticmethod
    def open_waves(protocol):
        return [wave for waves in protocol._waves for wave in waves.values()]

    def test_completed_run_leaves_no_wave_behind(self):
        result, protocol = recovery_run(
            lambda: PipelineApplication(nprocs=16, iterations=40), [], checkpoint_interval=1
        )
        assert result.completed
        assert protocol.sim.storage.writes == 40 * 16
        assert self.open_waves(protocol) == []

    def test_failure_striking_mid_wave_leaves_no_wave_behind(self, monkeypatch):
        # Find the write window of cluster 1's checkpoint at iteration 4 in a
        # failure-free run, then strike rank 5 in the middle of it: every
        # member has arrived, none has committed.  The store releases that
        # line once the next one is complete, so it is read as it is saved.
        saved = []
        save = StableStorage.save

        def save_spy(storage, **fields):
            saved.append(save(storage, **fields))
            return saved[-1]

        with monkeypatch.context() as patch:
            patch.setattr(StableStorage, "save", save_spy)
            _, failure_free = recovery_run(STENCIL, [])
        storage = failure_free.sim.storage
        (record,) = [r for r in saved if (r.rank, r.iteration) == (5, 4)]
        strike = record.time - storage.write_cost(record.size_bytes) / 2

        open_at_strike = []
        on_failure = HydEEProtocol.on_failure

        def spy(protocol, *args, **kwargs):
            open_at_strike.extend(self.open_waves(protocol))
            return on_failure(protocol, *args, **kwargs)

        monkeypatch.setattr(HydEEProtocol, "on_failure", spy)
        result, protocol = recovery_run(STENCIL, [FailureEvent(ranks=[5], time=strike)])

        struck = [wave for wave in open_at_strike if 5 in wave.arrived]
        assert len(struck) == 1
        assert struck[0].arrived == {4, 5, 6, 7} and not struck[0].saved
        check_all_recovery_invariants(reference_run(STENCIL), result, protocol, [5])
        assert protocol.sim.storage.latest_common_iteration([4, 5, 6, 7]) == 8
        assert self.open_waves(protocol) == []
