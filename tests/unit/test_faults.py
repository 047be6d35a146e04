"""Unit tests for the stochastic fault-model subsystem (:mod:`repro.faults`)."""

import dataclasses
import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FailureTrace,
    FaultModelSpec,
    TraceEntry,
    derive_rng,
    derive_seed,
    generate_trace,
    make_distribution,
)
from repro.faults.distributions import (
    ExponentialInterArrival,
    FixedInterArrival,
    ReplayInterArrival,
    WeibullInterArrival,
)
from repro.scenarios import (
    FailureSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
    build,
    sweep,
)
from repro.simulator.failures import FailureEvent
from repro.topology import build_topology


def fault(**overrides) -> FaultModelSpec:
    defaults = dict(
        distribution="exponential", params={"mtbf_s": 2e-3}, horizon_s=4e-3, seed=3
    )
    defaults.update(overrides)
    return FaultModelSpec(**defaults)


# --------------------------------------------------------------- distributions
class TestDistributions:
    def test_derive_seed_is_deterministic_and_content_keyed(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)
        assert derive_seed("a", 1) != derive_seed("a", 2)
        assert derive_seed("a", 12) != derive_seed("a1", 2)

    def test_same_stream_key_same_samples(self):
        dist = ExponentialInterArrival(mtbf_s=1.0)
        first = [dist.sample(derive_rng("k", i)) for i in range(5)]
        second = [dist.sample(derive_rng("k", i)) for i in range(5)]
        assert first == second

    def test_exponential_mean_roughly_mtbf(self):
        dist = ExponentialInterArrival(mtbf_s=3.0)
        rng = derive_rng("mean-test")
        samples = [dist.sample(rng) for _ in range(4000)]
        assert sum(samples) / len(samples) == pytest.approx(3.0, rel=0.1)

    def test_weibull_mean_matches_mtbf_for_any_shape(self):
        for shape in (0.7, 1.0, 2.5):
            dist = WeibullInterArrival(mtbf_s=2.0, shape=shape)
            rng = derive_rng("weibull", shape)
            samples = [dist.sample(rng) for _ in range(6000)]
            assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.1)

    def test_fixed_is_deterministic(self):
        dist = FixedInterArrival(mtbf_s=0.5)
        rng = derive_rng("fixed")
        assert [dist.sample(rng) for _ in range(3)] == [0.5, 0.5, 0.5]

    def test_replay_exhausts_and_scales(self):
        dist = ReplayInterArrival([1.0, 2.0])
        rng = derive_rng("replay")
        assert [dist.sample(rng) for _ in range(3)] == [1.0, 2.0, None]
        rewound = dist.scaled(2.0)
        assert [rewound.sample(rng) for _ in range(3)] == [2.0, 4.0, None]

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            make_distribution("exponential", {})
        with pytest.raises(ConfigurationError):
            make_distribution("exponential", {"mtbf_s": -1.0})
        with pytest.raises(ConfigurationError):
            make_distribution("weibull", {"mtbf_s": 1.0, "shape": 0.0})
        with pytest.raises(ConfigurationError):
            make_distribution("replay", {"intervals": []})
        with pytest.raises(ConfigurationError):
            make_distribution("no-such-process", {"mtbf_s": 1.0})


# ----------------------------------------------------------------------- spec
class TestFaultModelSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultModelSpec(distribution="uniformish")
        with pytest.raises(ConfigurationError):
            fault(scope="rack")
        with pytest.raises(ConfigurationError):
            fault(horizon_s=0.0)
        with pytest.raises(ConfigurationError):
            fault(horizon_s=float("nan"))
        with pytest.raises(ConfigurationError):
            FaultModelSpec(distribution="exponential", params={"mtbf_s": 1.0})
        with pytest.raises(ConfigurationError):
            fault(max_failures=0)
        with pytest.raises(ConfigurationError):
            fault(max_failures=2.5)
        with pytest.raises(ConfigurationError):
            fault(max_failures="3")
        with pytest.raises(ConfigurationError):
            fault(seed=-1)
        with pytest.raises(ConfigurationError):
            fault(replica=-2)

    def test_distribution_params_validated_eagerly(self):
        # A missing or mistyped mtbf_s must fail at spec construction, not
        # replicas-deep inside a campaign worker.
        with pytest.raises(ConfigurationError):
            fault(params={})
        with pytest.raises(ConfigurationError):
            fault(params={"mtbf_s": "0.008"})
        with pytest.raises(ConfigurationError):
            FaultModelSpec(distribution="trace", params={})
        with pytest.raises(ConfigurationError):
            fault(horizon_s=True)  # bool is not a duration
        # An explicit null source behaves like an absent key.
        with pytest.raises(ConfigurationError):
            FaultModelSpec(distribution="trace", params={"path": None})
        ok = FaultModelSpec(
            distribution="trace",
            params={"events": [[1e-3, [0]]], "path": None},
        )
        assert ok.params["path"] is None

    def test_json_round_trip(self):
        spec = fault(max_failures=3, replica=7)
        restored = FaultModelSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.canonical_json() == spec.canonical_json()

    def test_trace_distribution_needs_no_horizon(self):
        spec = FaultModelSpec(
            distribution="trace", params={"events": [[1e-3, [0]]]}
        )
        assert spec.horizon_s is None


class TestScenarioIntegration:
    def scenario(self, fault_model=None, **kwargs) -> ScenarioSpec:
        return ScenarioSpec(
            name="faulty",
            workload=WorkloadSpec(kind="ring", nprocs=8, iterations=4),
            protocol=ProtocolSpec(
                name="coordinated",
                options={"checkpoint_interval": 2, "checkpoint_size_bytes": 1024},
            ),
            fault_model=fault_model,
            **kwargs,
        )

    def test_fault_model_and_failures_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            self.scenario(
                fault_model=fault(),
                failures=(FailureSpec(ranks=(1,), time=1e-3),),
            )

    def test_spec_without_fault_model_serialises_as_before(self):
        spec = self.scenario()
        assert "fault_model" not in spec.to_dict()
        # The PR-1 pinned hash must survive the fault-model layer too.
        pinned = ScenarioSpec(
            name="hash-pin",
            workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=8),
            protocol=ProtocolSpec(
                name="hydee",
                options={"checkpoint_interval": 2},
                clustering=dataclasses.replace(
                    ProtocolSpec().clustering, method="block", num_clusters=4
                ),
            ),
            failures=(FailureSpec(ranks=(5,), at_iteration=5),),
        )
        assert pinned.spec_hash() == "47aa6a972cec363d"

    def test_spec_json_round_trip_with_fault_model(self):
        spec = self.scenario(fault_model=fault(replica=2))
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.fault_model == spec.fault_model
        assert restored.spec_hash() == spec.spec_hash()

    def test_fault_model_accepts_mapping(self):
        spec = self.scenario(fault_model=dict(
            distribution="fixed", params={"mtbf_s": 1e-3}, horizon_s=2e-3
        ))
        assert isinstance(spec.fault_model, FaultModelSpec)

    def test_sweep_over_fault_model_axes(self):
        base = self.scenario(fault_model=fault())
        grid = sweep(base, {
            "fault_model.params.mtbf_s": [1e-3, 2e-3],
            "fault_model.seed": [0, 1, 2],
        })
        assert len(grid) == 6
        hashes = {spec.spec_hash() for spec in grid}
        assert len(hashes) == 6
        assert {spec.fault_model.params["mtbf_s"] for spec in grid} == {1e-3, 2e-3}
        # Sweeping the seed re-draws the trace.
        traces = [
            generate_trace(spec.fault_model, 8)
            for spec in grid
            if spec.fault_model.params["mtbf_s"] == 1e-3
        ]
        assert len({tuple(t.failure_times) for t in traces}) == 3

    def test_sweeping_absent_fault_model_fails_loudly(self):
        with pytest.raises(ConfigurationError):
            sweep(self.scenario(), {"fault_model.seed": [0, 1]})

    def test_build_materialises_the_generated_trace(self):
        spec = self.scenario(fault_model=fault(max_failures=2))
        sim = build(spec)
        assert sim.failure_injector is not None
        trace = generate_trace(spec.fault_model, 8)
        assert [e.time for e in sim.failure_injector.events] == trace.failure_times
        assert len(sim.failure_injector.events) <= 2

    def test_empty_draw_still_gets_an_injector(self):
        # Every replica must publish the same metric paths, including the
        # calm ones: an empty draw keeps the (empty) injector.
        spec = self.scenario(
            fault_model=fault(params={"mtbf_s": 1e3}, horizon_s=1e-6)
        )
        sim = build(spec)
        assert sim.failure_injector is not None
        assert sim.failure_injector.events == []


# ---------------------------------------------------------------------- trace
class TestTraceGeneration:
    def test_same_spec_identical_trace(self):
        assert generate_trace(fault(), 8) == generate_trace(fault(), 8)

    def test_replica_and_seed_rekey_every_stream(self):
        base = generate_trace(fault(), 8)
        assert base != generate_trace(fault(replica=1), 8)
        assert base != generate_trace(fault(seed=4), 8)

    def test_times_inside_horizon_and_sorted(self):
        trace = generate_trace(fault(), 16)
        times = trace.failure_times
        assert times == sorted(times)
        assert all(0 < t <= 4e-3 for t in times)

    def test_max_failures_truncates_after_merge(self):
        full = generate_trace(fault(), 16)
        capped = generate_trace(fault(max_failures=3), 16)
        assert len(full) > 3
        assert capped.entries == full.entries[:3]

    def test_mtbf_scale_shifts_one_unit(self):
        # Scaling one rank's MTBF down makes it fail (much) more often.
        scaled = generate_trace(
            fault(params={"mtbf_s": 2e-3, "mtbf_scale": {"0": 0.05}}), 4
        )
        base = generate_trace(fault(), 4)
        count = lambda t, unit: sum(1 for e in t if e.unit == unit)  # noqa: E731
        assert count(scaled, "rank:0") > count(base, "rank:0")

    def test_node_scope_kills_whole_nodes(self):
        topo = build_topology_spec("cluster-per-node", 16, ranks_per_node=4)
        trace = generate_trace(fault(scope="node", params={"mtbf_s": 1e-3}), 16, topo)
        assert len(trace) > 0
        for entry in trace:
            assert entry.unit.startswith("node:")
            node = int(entry.unit.split(":")[1])
            assert entry.ranks == tuple(range(4 * node, 4 * node + 4))

    def test_cluster_scope_kills_whole_clusters(self):
        topo = build_topology_spec(
            "hierarchical", 16, ranks_per_node=4, nodes_per_cluster=2
        )
        trace = generate_trace(
            fault(scope="cluster", params={"mtbf_s": 1e-3}), 16, topo
        )
        assert len(trace) > 0
        assert all(len(entry.ranks) == 8 for entry in trace)

    def test_group_scopes_need_a_topology(self):
        with pytest.raises(ConfigurationError):
            generate_trace(fault(scope="node"), 16, None)

    def test_topology_rank_count_must_match(self):
        topo = build_topology_spec("cluster-per-node", 8, ranks_per_node=4)
        with pytest.raises(ConfigurationError):
            generate_trace(fault(scope="node"), 16, topo)

    def test_runaway_fault_model_is_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_trace(
                fault(params={"mtbf_s": 1e-9}, horizon_s=1.0), 4
            )

    def test_fixed_interval_trace(self):
        trace = generate_trace(
            fault(distribution="fixed", params={"mtbf_s": 1e-3}, horizon_s=3.5e-3), 1
        )
        assert trace.failure_times == pytest.approx([1e-3, 2e-3, 3e-3])


def build_topology_spec(preset, nprocs, **params):
    return build_topology(preset, nprocs, **params)


class TestTraceRoundTripAndReplay:
    def test_json_round_trip_identity(self):
        trace = generate_trace(fault(), 8)
        assert FailureTrace.from_json(trace.to_json()) == trace

    def test_save_load_round_trip(self, tmp_path):
        trace = generate_trace(fault(), 8)
        path = tmp_path / "trace.json"
        trace.save(str(path))
        assert FailureTrace.load(str(path)) == trace

    def test_unknown_version_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureTrace.from_dict({"version": 99, "entries": []})

    def test_to_failure_events(self):
        trace = FailureTrace([TraceEntry(time=1e-3, ranks=(1, 2))])
        events = trace.to_failure_events()
        assert len(events) == 1
        assert isinstance(events[0], FailureEvent)
        assert events[0].time == 1e-3 and list(events[0].ranks) == [1, 2]

    def test_entry_validation(self):
        with pytest.raises(ConfigurationError):
            TraceEntry(time=-1.0, ranks=(0,))
        with pytest.raises(ConfigurationError):
            TraceEntry(time=float("inf"), ranks=(0,))
        with pytest.raises(ConfigurationError):
            TraceEntry(time=1.0, ranks=())
        with pytest.raises(ConfigurationError):
            TraceEntry(time=1.0, ranks=(1, 1))

    def test_inline_trace_replay(self):
        spec = FaultModelSpec(
            distribution="trace",
            params={"events": [{"time": 2e-3, "ranks": [3]}, [1e-3, [0, 1]]]},
        )
        trace = generate_trace(spec, 8)
        # Replayed entries are normalised into deterministic time order.
        assert trace.failure_times == [1e-3, 2e-3]

    def test_file_trace_replay_round_trips_a_generated_trace(self, tmp_path):
        original = generate_trace(fault(), 8)
        path = tmp_path / "archived.json"
        original.save(str(path))
        replayed = generate_trace(
            FaultModelSpec(distribution="trace", params={"path": str(path)}), 8
        )
        assert replayed.failure_times == original.failure_times
        assert [e.ranks for e in replayed] == [e.ranks for e in original]

    def test_replayed_ranks_validated_against_nprocs(self):
        spec = FaultModelSpec(
            distribution="trace", params={"events": [[1e-3, [9]]]}
        )
        with pytest.raises(ConfigurationError):
            generate_trace(spec, 4)

    def test_trace_needs_exactly_one_source(self):
        with pytest.raises(ConfigurationError):
            generate_trace(FaultModelSpec(distribution="trace"), 4)
        with pytest.raises(ConfigurationError):
            generate_trace(
                FaultModelSpec(
                    distribution="trace",
                    params={"events": [[1e-3, [0]]], "path": "x.json"},
                ),
                4,
            )

    def test_horizon_filters_replayed_entries(self):
        spec = FaultModelSpec(
            distribution="trace",
            params={"events": [[1e-3, [0]], [5e-3, [1]]]},
            horizon_s=2e-3,
        )
        assert generate_trace(spec, 4).failure_times == [1e-3]


class TestReplayDistributionTrace:
    def test_replay_intervals_per_unit(self):
        spec = FaultModelSpec(
            distribution="replay",
            params={"intervals": [1e-3, 1e-3]},
            horizon_s=10e-3,
        )
        trace = generate_trace(spec, 2)
        # Both units replay the same intervals: failures at 1ms and 2ms each.
        assert trace.failure_times == pytest.approx([1e-3, 1e-3, 2e-3, 2e-3])

    def test_math_gamma_weibull_generation(self):
        spec = fault(distribution="weibull", params={"mtbf_s": 2e-3, "shape": 2.0})
        trace = generate_trace(spec, 8)
        assert len(trace) > 0
        assert all(math.isfinite(t) for t in trace.failure_times)


class TestConfigurationErrorsPropagate:
    def test_montecarlo_propagates_misconfiguration(self):
        # Runtime corner cases become per-replica error records, but a
        # configuration bug (identical in every replica) must fail loudly.
        from repro.faults.montecarlo import run_montecarlo

        spec = ScenarioSpec(
            name="misconfigured",
            workload=WorkloadSpec(kind="ring", nprocs=8, iterations=3),
            protocol=ProtocolSpec(
                name="coordinated",
                options={"checkpoint_interval": 2, "checkpoint_size_bytes": 1024},
            ),
            fault_model=fault(scope="node"),  # node scope without a topology
        )
        with pytest.raises(ConfigurationError):
            run_montecarlo(spec, replicas=3)


class TestMtbfScaleNormalisation:
    def test_int_keys_normalised_to_match_the_spec_hash(self):
        # json.dumps coerces int dict keys to strings, so {0: f} and
        # {"0": f} hash identically -- they must also DRAW identically.
        int_keys = fault(params={"mtbf_s": 2e-3, "mtbf_scale": {0: 0.05}})
        str_keys = fault(params={"mtbf_s": 2e-3, "mtbf_scale": {"0": 0.05}})
        assert int_keys == str_keys
        assert int_keys.stream_key() == str_keys.stream_key()
        assert generate_trace(int_keys, 4) == generate_trace(str_keys, 4)

    def test_invalid_scale_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            fault(params={"mtbf_s": 2e-3, "mtbf_scale": {"0": 0.0}})
        with pytest.raises(ConfigurationError):
            fault(params={"mtbf_s": 2e-3, "mtbf_scale": {"0": "fast"}})
        with pytest.raises(ConfigurationError):
            fault(params={"mtbf_s": 2e-3, "mtbf_scale": [0.5]})
