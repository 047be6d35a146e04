"""Integration tests: failure-free executions under every protocol.

The key property (used to normalise Figures 5 and 6) is that the protocols
are *transparent*: they change timing, never results; HydEE logs only
inter-cluster traffic; the paper's phase lemmas hold on the recorded traces.
"""

import pytest

from repro import (
    CoordinatedCheckpointProtocol,
    FullMessageLoggingProtocol,
    HybridEventLoggingProtocol,
    HydEEConfig,
    HydEEProtocol,
    Simulation,
)
from repro.core.invariants import (
    check_logged_messages_inter_cluster,
    check_message_phase_vs_sender,
    check_orphan_phases,
    check_phase_monotonicity,
)
from repro.workloads import (
    PipelineApplication,
    RingApplication,
    Stencil2DApplication,
    make_nas_application,
)

CLUSTERS16 = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]


def run(app_factory, protocol=None):
    app = app_factory()
    return Simulation(app, nprocs=app.nprocs, protocol=protocol).run()


WORKLOADS = {
    "ring": lambda: RingApplication(nprocs=16, iterations=5),
    "pipeline": lambda: PipelineApplication(nprocs=16, iterations=4),
    "stencil2d": lambda: Stencil2DApplication(nprocs=16, iterations=5),
    "cg": lambda: make_nas_application("cg", nprocs=16, iterations=2, message_scale=0.01),
    "ft": lambda: make_nas_application("ft", nprocs=16, iterations=2, message_scale=0.01),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_hydee_is_transparent_failure_free(workload):
    factory = WORKLOADS[workload]
    reference = run(factory)
    protocol = HydEEProtocol(HydEEConfig(clusters=CLUSTERS16, checkpoint_interval=2,
                                         checkpoint_size_bytes=4096))
    result = run(factory, protocol)
    assert result.completed
    assert result.rank_results == reference.rank_results


@pytest.mark.parametrize(
    "protocol_factory",
    [
        lambda: CoordinatedCheckpointProtocol(checkpoint_interval=2,
                                              checkpoint_size_bytes=4096),
        lambda: FullMessageLoggingProtocol(checkpoint_interval=2,
                                           checkpoint_size_bytes=4096),
        lambda: HybridEventLoggingProtocol(HydEEConfig(clusters=CLUSTERS16,
                                                       checkpoint_interval=2,
                                                       checkpoint_size_bytes=4096)),
    ],
    ids=["coordinated", "message-logging", "hybrid-event-logging"],
)
def test_baselines_are_transparent_failure_free(protocol_factory):
    factory = WORKLOADS["stencil2d"]
    reference = run(factory)
    result = run(factory, protocol_factory())
    assert result.completed
    assert result.rank_results == reference.rank_results


def test_hydee_logs_only_inter_cluster_messages():
    factory = WORKLOADS["stencil2d"]
    protocol = HydEEProtocol(HydEEConfig(clusters=CLUSTERS16))
    result = run(factory, protocol)
    check_logged_messages_inter_cluster(protocol)
    assert 0 < result.stats.logged_messages < result.stats.app_messages
    assert 0.0 < result.stats.logged_fraction_bytes < 1.0


def test_hydee_log_all_logs_everything():
    factory = WORKLOADS["stencil2d"]
    protocol = HydEEProtocol(HydEEConfig(clusters=CLUSTERS16, log_all_messages=True))
    result = run(factory, protocol)
    assert result.stats.logged_messages == result.stats.app_messages


def test_single_cluster_logs_nothing():
    factory = WORKLOADS["ring"]
    protocol = HydEEProtocol(HydEEConfig(clusters=None))
    result = run(factory, protocol)
    assert result.stats.logged_messages == 0


def test_phase_lemmas_hold_on_failure_free_trace():
    factory = WORKLOADS["pipeline"]
    protocol = HydEEProtocol(HydEEConfig(clusters=CLUSTERS16))
    app = factory()
    sim = Simulation(app, nprocs=app.nprocs, protocol=protocol)
    result = sim.run()
    assert result.completed
    assert check_phase_monotonicity(result.trace)["events_checked"] > 0
    assert check_message_phase_vs_sender(result.trace)["sends_checked"] > 0
    assert check_orphan_phases(result.trace)["sends_checked"] > 0


def test_phases_grow_along_pipeline():
    """The pipeline's long happened-before chains must raise phases cluster by
    cluster (each inter-cluster hop adds at least one, Lemma 3)."""
    protocol = HydEEProtocol(HydEEConfig(clusters=CLUSTERS16))
    app = PipelineApplication(nprocs=16, iterations=1)
    Simulation(app, nprocs=16, protocol=protocol).run()
    assert protocol.phase_of(15) >= protocol.phase_of(0) + 3


def test_coordinated_checkpoints_are_saved_per_cluster():
    factory = WORKLOADS["stencil2d"]
    protocol = HydEEProtocol(HydEEConfig(clusters=CLUSTERS16, checkpoint_interval=2,
                                         checkpoint_size_bytes=4096))
    app = factory()
    sim = Simulation(app, nprocs=app.nprocs, protocol=protocol)
    sim.run()
    # 5 iterations with interval 2 -> checkpoints at iterations 2 and 4 for
    # every rank.
    assert sim.storage.saves == 2 * 16
    for rank in range(16):
        assert sim.storage.latest(rank).iteration == 4


def test_garbage_collection_reclaims_log_memory():
    factory = lambda: Stencil2DApplication(nprocs=16, iterations=8)
    with_gc = HydEEProtocol(HydEEConfig(clusters=CLUSTERS16, checkpoint_interval=2,
                                        checkpoint_size_bytes=4096,
                                        garbage_collect_logs=True))
    without_gc = HydEEProtocol(HydEEConfig(clusters=CLUSTERS16, checkpoint_interval=2,
                                           checkpoint_size_bytes=4096,
                                           garbage_collect_logs=False))
    run(factory, with_gc)
    run(factory, without_gc)
    assert with_gc.pstats.gc_reclaimed_bytes > 0
    assert sum(with_gc.memory_usage_bytes().values()) < sum(
        without_gc.memory_usage_bytes().values()
    )


def test_protocol_overhead_is_small_but_nonzero():
    """Figure 6's qualitative claim on a small kernel: HydEE costs at most a
    few percent, and no more than logging every message."""
    factory = lambda: make_nas_application("lu", nprocs=16, iterations=2)
    native = run(factory).makespan
    hydee = run(factory, HydEEProtocol(HydEEConfig(clusters=CLUSTERS16))).makespan
    log_all = run(factory, HydEEProtocol(HydEEConfig(log_all_messages=True))).makespan
    assert native < hydee <= log_all * 1.0001
    assert hydee / native < 1.05
