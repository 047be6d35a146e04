"""Property-based end-to-end tests: HydEE recovery over randomized scenarios.

Hypothesis drives the failure scenario (which rank fails, when, with which
checkpoint interval and clustering) on small deterministic workloads; the
properties are the paper's theorems: the recovered execution terminates, only
the failed clusters roll back, and the results equal the failure-free
reference.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HydEEProtocol, Simulation
from repro.core.invariants import (
    check_containment,
    check_recovery_equivalence,
    check_send_determinism,
)
from repro.simulator.failures import FailureEvent, FailureInjector
from repro.simulator.trace import compare_send_sequences
from repro.workloads import RingApplication, Stencil2DApplication

NPROCS = 8
ITERATIONS = 6
CLUSTERINGS = [
    [[0, 1, 2, 3], [4, 5, 6, 7]],
    [[0, 1], [2, 3], [4, 5], [6, 7]],
    [[0, 1, 2], [3, 4], [5, 6, 7]],
]


def _make_app(kind: str):
    if kind == "ring":
        return RingApplication(nprocs=NPROCS, iterations=ITERATIONS)
    return Stencil2DApplication(nprocs=NPROCS, iterations=ITERATIONS)


@lru_cache(maxsize=None)
def _reference(kind: str):
    return Simulation(_make_app(kind), nprocs=NPROCS).run()


@given(
    kind=st.sampled_from(["ring", "stencil"]),
    failed_rank=st.integers(min_value=0, max_value=NPROCS - 1),
    fail_iteration=st.integers(min_value=1, max_value=ITERATIONS),
    checkpoint_interval=st.integers(min_value=1, max_value=4),
    clustering_index=st.integers(min_value=0, max_value=len(CLUSTERINGS) - 1),
)
@settings(max_examples=25, deadline=None)
def test_single_random_failure_recovers_correctly(
    kind, failed_rank, fail_iteration, checkpoint_interval, clustering_index
):
    clusters = CLUSTERINGS[clustering_index]
    reference = _reference(kind)
    protocol = HydEEProtocol(
        clusters=clusters,
        checkpoint_interval=checkpoint_interval,
        checkpoint_size_bytes=8 * 1024,
    )
    injector = FailureInjector(
        [FailureEvent(ranks=[failed_rank], at_iteration=fail_iteration)]
    )
    result = Simulation(
        _make_app(kind), nprocs=NPROCS, protocol=protocol, failures=injector
    ).run()

    check_recovery_equivalence(reference, result)
    check_containment(result, protocol, [failed_rank])
    check_send_determinism(reference.trace, result.trace)
    # No determinant was ever logged (the paper's headline property).
    assert protocol.pstats.determinants_logged == 0


@given(
    victims=st.sets(st.integers(min_value=0, max_value=NPROCS - 1), min_size=2, max_size=3),
    fail_iteration=st.integers(min_value=2, max_value=ITERATIONS - 1),
    clustering_index=st.integers(min_value=0, max_value=len(CLUSTERINGS) - 1),
)
@settings(max_examples=15, deadline=None)
def test_concurrent_random_failures_recover_correctly(
    victims, fail_iteration, clustering_index
):
    clusters = CLUSTERINGS[clustering_index]
    reference = _reference("stencil")
    protocol = HydEEProtocol(
        clusters=clusters, checkpoint_interval=2, checkpoint_size_bytes=8 * 1024
    )
    injector = FailureInjector(
        [FailureEvent(ranks=sorted(victims), at_iteration=fail_iteration)]
    )
    result = Simulation(
        _make_app("stencil"), nprocs=NPROCS, protocol=protocol, failures=injector
    ).run()

    check_recovery_equivalence(reference, result)
    check_containment(result, protocol, sorted(victims))
    assert not compare_send_sequences(reference.trace, result.trace)


@given(
    checkpoint_interval=st.integers(min_value=1, max_value=5),
    clustering_index=st.integers(min_value=0, max_value=len(CLUSTERINGS) - 1),
)
@settings(max_examples=10, deadline=None)
def test_failure_free_runs_are_reference_equivalent_for_any_configuration(
    checkpoint_interval, clustering_index
):
    reference = _reference("stencil")
    protocol = HydEEProtocol(
        clusters=CLUSTERINGS[clustering_index],
        checkpoint_interval=checkpoint_interval,
        checkpoint_size_bytes=8 * 1024,
    )
    result = Simulation(_make_app("stencil"), nprocs=NPROCS, protocol=protocol).run()
    assert result.rank_results == reference.rank_results
    assert not compare_send_sequences(reference.trace, result.trace)
