"""Unit tests for the declarative scenario layer (spec / build / sweep)."""

import dataclasses
import inspect
import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.faults.spec import FaultModelSpec
from repro.scenarios import (
    ClusteringSpec,
    FailureEvent,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    available_workloads,
    build,
    build_application,
    build_config,
    build_network,
    load_specs,
    resolve_clusters,
    sweep,
    with_path,
)
from repro.simulator.simulation import Simulation
from repro.workloads.nas import NAS_BENCHMARKS


def full_spec() -> ScenarioSpec:
    """A spec exercising every nested piece."""
    return ScenarioSpec(
        name="full",
        workload=WorkloadSpec(
            kind="stencil2d", nprocs=16, iterations=6, params={"halo_bytes": 4096}
        ),
        protocol=ProtocolSpec(
            name="hydee",
            options={"checkpoint_interval": 2, "checkpoint_size_bytes": 65536},
            clustering=ClusteringSpec(method="block", num_clusters=4),
        ),
        network=NetworkSpec(model="ethernet-tcp", overrides={"send_overhead_s": 2e-6}),
        failures=(FailureEvent(ranks=(5,), at_iteration=4),),
        config={"record_trace_events": True},
        tags={"experiment": "unit-test"},
    )


class TestSpecRoundTrip:
    def test_json_round_trip_is_identity(self):
        spec = full_spec()
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.spec_hash() == spec.spec_hash()

    def test_round_trip_through_plain_json(self):
        # Through an actual serialised file representation (lists, not tuples).
        spec = full_spec()
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_specs_are_picklable(self):
        spec = full_spec()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_hash_changes_with_content(self):
        spec = full_spec()
        other = with_path(spec, "workload.nprocs", 64)
        assert other.spec_hash() != spec.spec_hash()

    def test_hash_is_stable_across_instances(self):
        assert full_spec().spec_hash() == full_spec().spec_hash()

    def test_load_specs_accepts_single_and_list(self):
        spec = full_spec()
        assert load_specs(spec.to_dict()) == (spec,)
        assert load_specs([spec.to_dict(), spec.to_dict()]) == (spec, spec)
        with pytest.raises(ConfigurationError):
            load_specs("nonsense")

    def test_explicit_clustering_normalises_to_tuples(self):
        clustering = ClusteringSpec(method="explicit", clusters=[[0, 1], [2, 3]])
        assert clustering.clusters == ((0, 1), (2, 3))

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusteringSpec(method="sideways")
        with pytest.raises(ConfigurationError):
            ClusteringSpec(method="explicit")  # no clusters
        with pytest.raises(ConfigurationError):
            ClusteringSpec(method="block")  # no num_clusters
        with pytest.raises(ConfigurationError):
            FailureEvent(ranks=())
        with pytest.raises(ConfigurationError):
            FailureEvent(ranks=(1,))  # neither time nor at_iteration
        with pytest.raises(ConfigurationError):
            FailureEvent(ranks=(1,), time=1.0, at_iteration=2)  # both


class TestSweep:
    def test_grid_expansion_counts_and_names(self):
        base = ScenarioSpec(
            name="base", workload=WorkloadSpec(kind="ring", nprocs=8, iterations=2)
        )
        specs = sweep(
            base,
            {
                "workload.nprocs": [4, 8],
                "protocol.name": ["none", "hydee-log-all"],
                "workload.params.message_bytes": [256, 1024, 4096],
            },
        )
        assert len(specs) == 2 * 2 * 3
        assert len({s.name for s in specs}) == len(specs)
        assert len({s.spec_hash() for s in specs}) == len(specs)
        # Deterministic order: first axis varies slowest.
        assert specs[0].workload.nprocs == 4
        assert specs[-1].workload.nprocs == 8
        assert specs[0].workload.params["message_bytes"] == 256
        assert specs[2].workload.params["message_bytes"] == 4096

    def test_empty_axes_returns_base(self):
        base = ScenarioSpec(
            name="base", workload=WorkloadSpec(kind="ring", nprocs=8, iterations=2)
        )
        assert sweep(base, {}) == [base]

    def test_with_path_sets_nested_mapping_entries(self):
        base = full_spec()
        updated = with_path(base, "config.raise_on_incomplete", False)
        assert updated.config["raise_on_incomplete"] is False
        assert updated.config["record_trace_events"] is True
        assert base.config == {"record_trace_events": True}  # base untouched

    def test_with_path_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            with_path(full_spec(), "workload.wheels", 4)
        with pytest.raises(ConfigurationError):
            sweep(full_spec(), {"workload.nprocs": []})


def _workload_spec(kind: str) -> WorkloadSpec:
    if kind == "netpipe":
        return WorkloadSpec(kind=kind, nprocs=2, iterations=1,
                            params={"sizes": [64], "repeats": 1})
    return WorkloadSpec(kind=kind, nprocs=4, iterations=2)


PROTOCOL_SPECS = {
    "none": ProtocolSpec(name="none"),
    "native": ProtocolSpec(name="native"),
    "hydee": ProtocolSpec(
        name="hydee", clustering=ClusteringSpec(method="block", num_clusters=2)
    ),
    "hydee-log-all": ProtocolSpec(name="hydee-log-all"),
    "coordinated": ProtocolSpec(name="coordinated"),
    "message-logging": ProtocolSpec(name="message-logging"),
    "hybrid-event-logging": ProtocolSpec(
        name="hybrid-event-logging",
        clustering=ClusteringSpec(method="block", num_clusters=2),
    ),
}


class TestBuild:
    @pytest.mark.parametrize("kind", sorted(available_workloads()))
    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOL_SPECS))
    def test_build_wires_every_workload_protocol_pair(self, kind, protocol_name):
        spec = ScenarioSpec(
            name=f"{kind}-{protocol_name}",
            workload=_workload_spec(kind),
            protocol=PROTOCOL_SPECS[protocol_name],
        )
        if kind == "master-worker" and protocol_name.startswith(
            ("hydee", "hybrid")
        ):
            # The HydEE family refuses non-send-deterministic applications
            # (master/worker is the paper's counterexample).
            with pytest.raises(ConfigurationError):
                build(spec)
            return
        sim = build(spec)
        assert isinstance(sim, Simulation)
        assert sim.nprocs == spec.workload.nprocs
        if protocol_name == "none":
            assert type(sim.protocol).__name__ == "ProtocolHooks"
        else:
            assert sim.protocol is not None
        # Campaign default: no per-event trace allocation.
        assert sim.trace.record_events is False

    @pytest.mark.parametrize("kind", ["ring", "stencil2d", "cg"])
    def test_built_simulations_run_to_completion(self, kind):
        spec = ScenarioSpec(
            name=f"run-{kind}",
            workload=_workload_spec(kind),
            protocol=PROTOCOL_SPECS["hydee"],
        )
        result = build(spec).run()
        assert result.completed

    def test_unknown_workload_and_network_are_rejected(self):
        with pytest.raises(ConfigurationError):
            build_application(WorkloadSpec(kind="frogger", nprocs=4, iterations=1))
        spec = ScenarioSpec(
            name="bad-net",
            workload=_workload_spec("ring"),
            network=NetworkSpec(model="carrier-pigeon"),
        )
        with pytest.raises(ConfigurationError):
            build_network(spec)

    def test_unknown_config_override_is_rejected(self):
        spec = ScenarioSpec(
            name="bad-config",
            workload=_workload_spec("ring"),
            config={"warp_speed": True},
        )
        with pytest.raises(ConfigurationError):
            build_config(spec)

    @pytest.mark.parametrize("key", ["max_time", "max_events"])
    def test_removed_run_bounds_are_unknown_overrides(self, key):
        # Runs end by completion or deadlock; a spec still carrying a bound
        # is refused by name, not turned into a TypeError.
        spec = ScenarioSpec(
            name="bounded", workload=_workload_spec("ring"), config={key: 10}
        )
        match = f"unknown SimulationConfig overrides: \\['{key}'\\]"
        with pytest.raises(ConfigurationError, match=match):
            build_config(spec)

    def test_network_overrides_are_applied(self):
        spec = ScenarioSpec(
            name="net",
            workload=_workload_spec("ring"),
            network=NetworkSpec(model="myrinet-mx",
                                overrides={"bandwidth_bytes_per_s": 5e8}),
        )
        assert build_network(spec).bandwidth_bytes_per_s == 5e8

    def test_resolve_clusters_methods(self):
        workload = WorkloadSpec(kind="cg", nprocs=16, iterations=1)
        assert resolve_clusters(ClusteringSpec(), workload) is None
        explicit = resolve_clusters(
            ClusteringSpec(method="explicit", clusters=((0, 1), (2, 3))), workload
        )
        assert explicit == [[0, 1], [2, 3]]
        block = resolve_clusters(
            ClusteringSpec(method="block", num_clusters=4), workload
        )
        assert len(block) == 4 and sorted(sum(block, [])) == list(range(16))
        partitioned = resolve_clusters(
            ClusteringSpec(method="partition", num_clusters=4), workload
        )
        assert len(partitioned) == 4
        preset = resolve_clusters(ClusteringSpec(method="preset"), workload)
        # CG's Table I preset is 16 clusters, clamped to nprocs.
        assert len(preset) == 16

    def test_nas_kinds_cover_the_six_kernels(self):
        assert set(NAS_BENCHMARKS) <= set(available_workloads())

    def test_failure_spec_builds_injector(self):
        spec = ScenarioSpec(
            name="failing",
            workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=6),
            protocol=PROTOCOL_SPECS["hydee"],
            failures=(FailureEvent(ranks=(5,), at_iteration=3),),
        )
        sim = build(spec)
        assert sim.failure_injector is not None
        result = sim.run()
        assert result.completed
        assert result.stats.failures_injected == 1
        assert result.stats.ranks_rolled_back > 0


class TestTopologySpec:
    def _topo_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="topo",
            workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=4),
            protocol=ProtocolSpec(
                name="hydee",
                options={"checkpoint_interval": 2},
                clustering=ClusteringSpec(method="topology"),
            ),
            network=NetworkSpec(
                topology=TopologySpec(
                    preset="cluster-per-node",
                    params={"ranks_per_node": 4, "oversubscription": 4.0},
                )
            ),
        )

    def test_json_round_trip_is_identity(self):
        spec = self._topo_spec()
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.network.topology == spec.network.topology
        assert restored.spec_hash() == spec.spec_hash()

    def test_round_trip_through_plain_json(self):
        spec = self._topo_spec()
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_specs_without_topology_serialise_as_before(self):
        # A spec with no topology must not gain a "topology" key: pre-topology
        # spec hashes are cache keys and must remain stable.
        spec = full_spec()
        assert "topology" not in spec.to_dict()["network"]
        pinned = ScenarioSpec(
            name="hash-pin",
            workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=8),
            protocol=ProtocolSpec(
                name="hydee",
                options={"checkpoint_interval": 2},
                clustering=ClusteringSpec(method="block", num_clusters=4),
            ),
            failures=(FailureEvent(ranks=(5,), at_iteration=5),),
        )
        # Hash computed before the topology layer existed (PR 1 code).
        assert pinned.spec_hash() == "47aa6a972cec363d"

    def test_unknown_preset_rejected_at_spec_time(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(preset="moebius-strip")

    def test_topology_params_are_sweepable(self):
        spec = self._topo_spec()
        grid = sweep(
            spec, {"network.topology.params.oversubscription": [1.0, 2.0, 8.0]}
        )
        values = [s.network.topology.params["oversubscription"] for s in grid]
        assert values == [1.0, 2.0, 8.0]
        assert len({s.spec_hash() for s in grid}) == 3

    def test_build_produces_routed_network(self):
        from repro.simulator.network import RoutedNetworkModel

        network = build_network(self._topo_spec())
        assert isinstance(network, RoutedNetworkModel)
        assert network.topology.num_clusters == 4
        flat = build_network(full_spec())
        assert not isinstance(flat, RoutedNetworkModel)

    def test_topology_clustering_methods_resolve(self):
        spec = self._topo_spec()
        clusters = resolve_clusters(
            spec.protocol.clustering, spec.workload, topology=spec.network.topology
        )
        assert clusters == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
        misaligned = resolve_clusters(
            ClusteringSpec(method="topology-misaligned"),
            spec.workload,
            topology=spec.network.topology,
        )
        assert sorted(r for c in misaligned for r in c) == list(range(16))
        assert misaligned != clusters

    def test_topology_clustering_requires_non_flat_topology(self):
        spec = self._topo_spec()
        with pytest.raises(ConfigurationError):
            resolve_clusters(spec.protocol.clustering, spec.workload, topology=None)
        with pytest.raises(ConfigurationError):
            resolve_clusters(
                spec.protocol.clustering,
                spec.workload,
                topology=TopologySpec(preset="flat"),
            )

    def test_built_topology_scenario_runs_to_completion(self):
        result = build(self._topo_spec()).run()
        assert result.completed
        assert result.metric("network.topology.clusters") == 4
        assert "links.tiers.inter-cluster" in result.metrics
        assert result.metric("network.contention_wait_s") >= 0.0


class TestFailureEventValidation:
    """PR-5 validation hardening of the declarative failure layer."""

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureEvent(ranks=(1,), time=-1.0)

    def test_non_finite_times_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                FailureEvent(ranks=(1,), time=bad)

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureEvent(ranks=(4, 4), time=1e-3)

    def test_trigger_outside_ranks_rejected(self):
        # Legal on the event itself (a simulator-level harness tool), but a
        # scenario requires the trigger to be one of the failing ranks.
        failure = FailureEvent(ranks=(5,), at_iteration=3, rank_trigger=3)
        workload = WorkloadSpec(kind="ring", nprocs=8)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="bad-trigger", workload=workload, failures=(failure,))
        data = ScenarioSpec(name="ok", workload=workload).to_dict()
        data["failures"] = [{"ranks": [5], "at_iteration": 3, "rank_trigger": 3}]
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(data)

    def test_build_hands_the_spec_failures_to_the_injector(self):
        failures = (
            FailureEvent(ranks=(3,), at_iteration=2),
            FailureEvent(ranks=(1, 2), time=5e-6),
        )
        spec = ScenarioSpec(
            name="handed-over",
            workload=WorkloadSpec(kind="ring", nprocs=4, iterations=3),
            protocol=ProtocolSpec(name="coordinated", options={"checkpoint_interval": 1}),
            failures=failures,
        )
        sim = build(spec)
        assert all(a is b for a, b in zip(sim.failure_injector.events, failures))
        hash_before = spec.spec_hash()
        sim.run()
        assert spec.failures == failures
        assert spec.spec_hash() == hash_before

    def test_trigger_inside_ranks_accepted(self):
        spec = FailureEvent(ranks=(3, 5), at_iteration=3, rank_trigger=5)
        assert spec.rank_trigger == 5

    def test_valid_time_spec_accepted(self):
        assert FailureEvent(ranks=(1, 2), time=0.0).time == 0.0


# ------------------------------------------------ every *Spec, every field
# The hashed experiment identity must be immutable and must carry every
# constructor field through the store round-trip and into the hash.  One
# row per ``*Spec`` dataclass: a base instance, how it sits inside a
# ScenarioSpec (the only JSON front door most of them have), and per field
# the ``dataclasses.replace`` changes that give it a valid non-base value.
_SCENARIO = ScenarioSpec(name="base", workload=WorkloadSpec(kind="ring", nprocs=4))

SPEC_FIELD_TABLE = {
    WorkloadSpec: (
        _SCENARIO.workload,
        lambda workload: dataclasses.replace(_SCENARIO, workload=workload),
        {
            "kind": dict(kind="pipeline"),
            "nprocs": dict(nprocs=8),
            "iterations": dict(iterations=3),
            "params": dict(params={"message_bytes": 64}),
        },
    ),
    ClusteringSpec: (
        ClusteringSpec(),
        lambda clustering: dataclasses.replace(
            _SCENARIO, protocol=ProtocolSpec(name="hydee", clustering=clustering)
        ),
        {
            "method": dict(method="preset"),
            "num_clusters": dict(num_clusters=2),
            "clusters": dict(clusters=((0, 1), (2, 3))),
            "balance_tolerance": dict(balance_tolerance=1.5),
            "matrix": dict(matrix="total"),
        },
    ),
    ProtocolSpec: (
        ProtocolSpec(),
        lambda protocol: dataclasses.replace(_SCENARIO, protocol=protocol),
        {
            "name": dict(name="coordinated"),
            "options": dict(options={"checkpoint_interval": 2}),
            "clustering": dict(clustering=ClusteringSpec(method="block", num_clusters=2)),
        },
    ),
    TopologySpec: (
        TopologySpec(),
        lambda topology: dataclasses.replace(
            _SCENARIO, network=NetworkSpec(topology=topology)
        ),
        {
            "preset": dict(preset="cluster-per-node"),
            "params": dict(params={"ranks_per_node": 2}),
        },
    ),
    NetworkSpec: (
        NetworkSpec(),
        lambda network: dataclasses.replace(_SCENARIO, network=network),
        {
            "model": dict(model="ethernet-tcp"),
            "overrides": dict(overrides={"send_overhead_s": 2e-6}),
            "topology": dict(topology=TopologySpec(preset="hierarchical")),
        },
    ),
    FailureEvent: (
        FailureEvent(ranks=(1, 2), at_iteration=2),
        lambda failure: dataclasses.replace(_SCENARIO, failures=(failure,)),
        {
            "ranks": dict(ranks=(3,)),
            "time": dict(time=1.5, at_iteration=None),
            "at_iteration": dict(at_iteration=5),
            "rank_trigger": dict(rank_trigger=2),
        },
    ),
    FaultModelSpec: (
        FaultModelSpec(params={"mtbf_s": 1.0}, horizon_s=10.0),
        lambda fault_model: dataclasses.replace(_SCENARIO, fault_model=fault_model),
        {
            "distribution": dict(distribution="fixed"),
            "params": dict(params={"mtbf_s": 2.0}),
            "scope": dict(scope="node"),
            "horizon_s": dict(horizon_s=20.0),
            "max_failures": dict(max_failures=3),
            "seed": dict(seed=7),
            "replica": dict(replica=4),
        },
    ),
    ScenarioSpec: (
        _SCENARIO,
        lambda scenario: scenario,
        {
            "name": dict(name="other"),
            "workload": dict(workload=WorkloadSpec(kind="ring", nprocs=8)),
            "protocol": dict(protocol=ProtocolSpec(name="coordinated")),
            "network": dict(network=NetworkSpec(model="ethernet-tcp")),
            "failures": dict(failures=(FailureEvent(ranks=(1,), at_iteration=1),)),
            "fault_model": dict(
                fault_model=FaultModelSpec(params={"mtbf_s": 1.0}, horizon_s=10.0)
            ),
            "execution": dict(execution="hybrid"),
            "config": dict(config={"raise_on_incomplete": False}),
            "tags": dict(tags={"experiment": "unit-test"}),
        },
    ),
}


def _through_json(data):
    return json.loads(json.dumps(data))


class TestEverySpecFieldRoundTripsAndRekeys:
    def test_table_covers_every_spec_dataclass(self):
        import repro.faults.spec
        import repro.scenarios.spec

        declared = {
            cls
            for module in (repro.scenarios.spec, repro.faults.spec)
            for name, cls in vars(module).items()
            if inspect.isclass(cls) and name.endswith("Spec")
        }
        # ScenarioSpec.failures holds the simulator's own failure value.
        declared.add(FailureEvent)
        assert declared == set(SPEC_FIELD_TABLE)
        assert all(dataclasses.is_dataclass(cls) for cls in declared)

    @pytest.mark.parametrize("cls", SPEC_FIELD_TABLE, ids=lambda cls: cls.__name__)
    def test_one_table_entry_per_field_and_frozen(self, cls):
        base, _lift, variants = SPEC_FIELD_TABLE[cls]
        # A new field without a table entry fails here.
        assert list(variants) == [f.name for f in dataclasses.fields(cls)]
        assert cls.__dataclass_params__.frozen
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(base, dataclasses.fields(cls)[0].name, None)

    @pytest.mark.parametrize(
        "cls, field",
        [(cls, field) for cls, row in SPEC_FIELD_TABLE.items() for field in row[2]],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_single_field_variant_round_trips_and_rekeys(self, cls, field):
        base, lift, variants = SPEC_FIELD_TABLE[cls]
        variant = dataclasses.replace(base, **variants[field])
        assert getattr(variant, field) != getattr(base, field)
        scenario = lift(variant)
        restored = ScenarioSpec.from_dict(_through_json(scenario.to_dict()))
        assert restored == scenario
        assert restored.canonical_json() == scenario.canonical_json()
        assert scenario.canonical_json() != lift(base).canonical_json()
        assert scenario.spec_hash() != lift(base).spec_hash()
        if cls is FaultModelSpec:  # the one nested spec with its own JSON pair
            assert cls.from_dict(_through_json(variant.to_dict())) == variant
            assert variant.canonical_json() != base.canonical_json()
