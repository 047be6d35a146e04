"""Integration tests for the topology layer: flat equivalence, congested
recovery divergence, and campaign determinism over contended topologies."""

import dataclasses

import pytest

from repro.analysis.congestion import (
    congestion_specs,
    recovery_divergence,
    render_congestion,
    rows_from_resultset,
)
from repro.campaign import ResultsStore, run_campaign
from repro.experiments import run
from repro.results.query import ResultSet
from repro.scenarios import (
    ClusteringSpec,
    FailureEvent,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)


def _representative_specs():
    """Scenario shapes from the existing experiments (no topology)."""
    return [
        ScenarioSpec(
            name="eq:native-ring",
            workload=WorkloadSpec(kind="ring", nprocs=6, iterations=4),
            protocol=ProtocolSpec(name="native"),
        ),
        ScenarioSpec(
            name="eq:netpipe",
            workload=WorkloadSpec(
                kind="netpipe", nprocs=2, iterations=1,
                params={"sizes": [64, 4096], "repeats": 2},
            ),
            protocol=ProtocolSpec(name="hydee"),
        ),
        ScenarioSpec(
            name="eq:hydee-failure",
            workload=WorkloadSpec(kind="stencil2d", nprocs=8, iterations=5),
            protocol=ProtocolSpec(
                name="hydee",
                options={"checkpoint_interval": 2},
                clustering=ClusteringSpec(method="block", num_clusters=2),
            ),
            failures=(FailureEvent(ranks=(3,), at_iteration=3),),
        ),
        ScenarioSpec(
            name="eq:coordinated-failure",
            workload=WorkloadSpec(kind="cg", nprocs=9, iterations=3),
            protocol=ProtocolSpec(
                name="coordinated", options={"checkpoint_interval": 2}
            ),
            failures=(FailureEvent(ranks=(2,), at_iteration=2),),
        ),
    ]


class TestFlatTopologyEquivalence:
    def test_flat_topology_reproduces_pre_topology_results(self):
        """Every scenario run through the degenerate flat TopologySpec must
        produce a record with metrics identical to the topology-free run."""
        baseline = run_campaign(_representative_specs())
        flat_specs = [
            dataclasses.replace(
                spec,
                network=dataclasses.replace(
                    spec.network, topology=TopologySpec(preset="flat")
                ),
            )
            for spec in _representative_specs()
        ]
        flat = run_campaign(flat_specs)
        for base_record, flat_record in zip(baseline.records, flat.records):
            assert flat_record["result"] == base_record["result"]

    def test_flat_topology_spec_hash_differs_but_name_matches(self):
        spec = _representative_specs()[0]
        flat = dataclasses.replace(
            spec, network=NetworkSpec(topology=TopologySpec(preset="flat"))
        )
        # The flat-topology spec is a distinct cache entry (its serialised
        # form names the topology); only the *metrics* are identical.
        assert flat.spec_hash() != spec.spec_hash()


@pytest.fixture(scope="module")
def congestion_rows():
    return run("congestion-recovery", nprocs=16, iterations=6, oversubscription=(1.0, 8.0))


class TestCongestedRecovery:
    def test_recovery_time_diverges_with_oversubscription(self, congestion_rows):
        divergence = recovery_divergence(congestion_rows)
        assert divergence["coordinated"] > divergence["hydee"]

    def test_contention_slows_recovery_monotonically(self, congestion_rows):
        by_key = {(r.protocol, r.oversubscription): r for r in congestion_rows}
        for protocol in ("hydee", "coordinated"):
            assert (
                by_key[(protocol, 8.0)].recovery_seconds
                >= by_key[(protocol, 1.0)].recovery_seconds
            )
            # Queueing on the oversubscribed fabric is what causes it.
            assert (
                by_key[(protocol, 8.0)].inter_cluster_wait_s
                > by_key[(protocol, 1.0)].inter_cluster_wait_s
            )

    def test_hydee_contains_the_rollback(self, congestion_rows):
        by_key = {(r.protocol, r.oversubscription): r for r in congestion_rows}
        for oversub in (1.0, 8.0):
            assert by_key[("hydee", oversub)].ranks_rolled_back == 4
            assert by_key[("coordinated", oversub)].ranks_rolled_back == 16
            assert by_key[("hydee", oversub)].replayed_messages > 0

    def test_render(self, congestion_rows):
        text = render_congestion(congestion_rows)
        assert "recovery_ms" in text
        assert "hydee" in text and "coordinated" in text
        assert "recovery growth (hydee)" in text


class TestContendedCampaignDeterminism:
    def test_serial_and_parallel_runs_byte_identical(self, tmp_path):
        specs = congestion_specs(
            nprocs=8, iterations=4, failed_rank=3, fail_at_iteration=3,
            oversubscription=(4.0,), ranks_per_node=2,
        )
        serial_store = ResultsStore(str(tmp_path / "serial.json"))
        parallel_store = ResultsStore(str(tmp_path / "parallel.json"))
        serial = run_campaign(specs, workers=1, store=serial_store)
        parallel = run_campaign(specs, workers=3, store=parallel_store)
        assert serial.records == parallel.records
        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "parallel.json"
        ).read_bytes()

    def test_rows_reject_truncated_runs(self, tmp_path):
        import copy

        from repro.errors import ConfigurationError

        specs = congestion_specs(
            nprocs=8, iterations=4, failed_rank=3, fail_at_iteration=3,
            oversubscription=(2.0,), ranks_per_node=2,
        )
        outcome = run_campaign(specs)
        doctored = copy.deepcopy(outcome)
        doctored.records[0]["result"]["status"] = "timeout"
        with pytest.raises(ConfigurationError):
            rows_from_resultset(ResultSet.from_campaign(doctored))

    def test_congestion_records_cache_and_rebuild_rows(self, tmp_path):
        specs = congestion_specs(
            nprocs=8, iterations=4, failed_rank=3, fail_at_iteration=3,
            oversubscription=(2.0,), ranks_per_node=2,
        )
        store = ResultsStore(str(tmp_path / "store.json"))
        first = run_campaign(specs, store=store)
        assert first.executed == len(specs)
        second = run_campaign(specs, store=ResultsStore(str(tmp_path / "store.json")))
        assert second.cache_hits == len(specs)
        rows = rows_from_resultset(ResultSet.from_campaign(second))
        assert {row.protocol for row in rows} == {"hydee", "coordinated"}
