"""Unit tests for the network performance models."""

import pytest

from repro.errors import ConfigurationError
from repro.simulator.network import (
    EthernetTCPModel,
    MyrinetMXModel,
    NetworkModel,
    PiggybackPolicy,
    netpipe_sizes,
    pingpong_half_round_trip,
)
from repro.scenarios.build import build
from repro.scenarios.spec import (
    ClusteringSpec,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
)


class TestLatencyPlateaus:
    def test_small_message_latency_matches_paper(self):
        model = MyrinetMXModel()
        # Section V-C: ~3.3 us for 1-32 bytes, ~4 us afterwards.
        assert model.latency(1) == pytest.approx(3.3e-6)
        assert model.latency(32) == pytest.approx(3.3e-6)
        assert model.latency(33) == pytest.approx(4.0e-6)

    def test_latency_is_non_decreasing_in_size(self):
        model = MyrinetMXModel()
        sizes = [1, 16, 32, 64, 512, 2048, 16384, 1 << 20]
        latencies = [model.latency(s) for s in sizes]
        assert latencies == sorted(latencies)

    def test_transfer_time_monotone(self):
        model = MyrinetMXModel()
        previous = 0.0
        for size in [1, 64, 1024, 65536, 1 << 20, 8 << 20]:
            current = model.transfer_time(size)
            assert current > previous
            previous = current

    def test_rendezvous_adds_round_trip_above_eager_threshold(self):
        model = MyrinetMXModel()
        below = model.transfer_time(model.eager_threshold_bytes)
        above = model.transfer_time(model.eager_threshold_bytes + 1)
        extra = above - below
        assert extra >= 2.0 * model.min_latency()

    def test_bandwidth_approached_for_large_messages(self):
        model = MyrinetMXModel()
        size = 64 << 20
        effective = size / model.transfer_time(size)
        assert effective == pytest.approx(model.bandwidth_bytes_per_s, rel=0.05)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkModel(bandwidth_bytes_per_s=0)
        with pytest.raises(ConfigurationError):
            NetworkModel(latency_plateaus=[(32, 1e-6)])  # no catch-all entry


#: ``network.overrides`` values that used to pass construction and fail deep
#: inside a run (an event scheduled before the current time, a non-finite or
#: negative delay, a division by zero) or not at all (an infinite overhead).
BAD_NETWORK_OVERRIDES = [
    {"latency_plateaus": [(0, -1e-3)]},
    {"latency_plateaus": [(1024, float("nan")), (0, 8e-6)]},
    {"latency_plateaus": [(0, float("inf"))]},
    {"send_overhead_s": -1e-3},
    {"send_overhead_s": float("nan")},
    {"recv_overhead_s": float("inf")},
    {"recv_overhead_s": -1e-9},
    {"memcpy_bandwidth_bytes_per_s": 0},
    {"memcpy_bandwidth_bytes_per_s": -1.0},
    {"memcpy_bandwidth_bytes_per_s": float("nan")},
    {"memcpy_overlap_fraction": 1.5},
    {"memcpy_overlap_fraction": -0.1},
    {"memcpy_overlap_fraction": float("nan")},
    {"rendezvous_extra_rtts": -1.0},
    {"rendezvous_extra_rtts": float("inf")},
    {"bandwidth_bytes_per_s": float("nan")},
]


class TestParameterValidation:
    @pytest.mark.parametrize("overrides", BAD_NETWORK_OVERRIDES, ids=repr)
    @pytest.mark.parametrize("model_cls", [NetworkModel, MyrinetMXModel, EthernetTCPModel])
    def test_bad_parameter_rejected_at_construction(self, model_cls, overrides):
        with pytest.raises(ConfigurationError):
            model_cls(**overrides)

    @pytest.mark.parametrize("overrides", BAD_NETWORK_OVERRIDES, ids=repr)
    def test_bad_override_fails_the_build_not_the_run(self, overrides):
        spec = ScenarioSpec(
            name="bad-network",
            workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=4),
            protocol=ProtocolSpec(
                name="hydee",
                clustering=ClusteringSpec(method="block", num_clusters=4),
                options={"checkpoint_interval": 2},
            ),
            network=NetworkSpec(overrides=overrides),
        )
        with pytest.raises(ConfigurationError):
            build(spec)

    @pytest.mark.parametrize("overrides", [
        {"latency_plateaus": [(0, 0.0)]},
        {"send_overhead_s": 0.0, "recv_overhead_s": 0.0},
        {"memcpy_overlap_fraction": 0.0},
        {"memcpy_overlap_fraction": 1.0},
        {"memcpy_bandwidth_bytes_per_s": float("inf")},
        {"rendezvous_extra_rtts": 0.0},
    ], ids=repr)
    def test_boundary_values_accepted(self, overrides):
        model = NetworkModel(**overrides)
        assert model.transfer_time(1 << 20) >= 0.0
        assert model.memcpy_time(1 << 20) >= 0.0


class TestPiggybackCost:
    def test_none_policy_is_free(self):
        model = MyrinetMXModel()
        assert model.piggyback_cost(100, 12, PiggybackPolicy.NONE) == (0, 0.0)

    def test_inline_adds_bytes_only(self):
        model = MyrinetMXModel()
        extra_bytes, extra_latency = model.piggyback_cost(100, 12, PiggybackPolicy.INLINE)
        assert extra_bytes == 12
        assert extra_latency == 0.0

    def test_separate_costs_injection_overhead_only(self):
        model = MyrinetMXModel()
        extra_bytes, extra_latency = model.piggyback_cost(4096, 12, PiggybackPolicy.SEPARATE)
        assert extra_bytes == 0
        assert extra_latency == pytest.approx(model.send_overhead_s)

    def test_hybrid_policy_switches_at_1kib(self):
        model = MyrinetMXModel()
        small = model.piggyback_cost(512, 12, PiggybackPolicy.INLINE_SMALL_SEPARATE_LARGE)
        large = model.piggyback_cost(2048, 12, PiggybackPolicy.INLINE_SMALL_SEPARATE_LARGE)
        assert small == (12, 0.0)
        assert large[0] == 0 and large[1] > 0.0

    def test_zero_piggyback_bytes_is_free(self):
        model = MyrinetMXModel()
        assert model.piggyback_cost(100, 0, PiggybackPolicy.INLINE) == (0, 0.0)


class TestLoggingCost:
    def test_memcpy_mostly_overlapped(self):
        model = MyrinetMXModel()
        visible = model.memcpy_time(1 << 20)
        raw = (1 << 20) / model.memcpy_bandwidth_bytes_per_s
        assert visible < raw
        assert visible == pytest.approx(raw * (1 - model.memcpy_overlap_fraction))

    def test_logging_cost_small_vs_transfer(self):
        # The paper's claim: sender-based logging is invisible because the
        # copy overlaps with the (slower) network transfer.
        model = MyrinetMXModel()
        for size in (1024, 65536, 1 << 20):
            assert model.memcpy_time(size) < 0.05 * model.transfer_time(size)


class TestHelpers:
    def test_pingpong_half_round_trip_includes_overheads(self):
        model = MyrinetMXModel()
        value = pingpong_half_round_trip(model, 8)
        assert value == pytest.approx(
            model.send_overhead_s + model.transfer_time(8) + model.recv_overhead_s
        )

    def test_netpipe_sizes_cover_range(self):
        sizes = netpipe_sizes(8 * 1024 * 1024)
        assert sizes[0] == 1
        assert sizes[-1] == 8 * 1024 * 1024
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == len(sizes)

    def test_netpipe_sizes_perturb_above_16_bytes(self):
        sizes = netpipe_sizes(1024)
        # Powers of two up to 16 B are probed exactly; above 16 B each power
        # of two gets +/-3-byte probe points (the NetPIPE plateau-edge trick).
        assert [s for s in sizes if s <= 16] == [1, 2, 4, 8, 16]
        for power in (32, 64, 128, 256, 512, 1024):
            assert power in sizes
            assert power - 3 in sizes
        assert 1024 + 3 not in sizes  # beyond max_bytes
        assert 512 + 3 in sizes

    def test_netpipe_sizes_perturbation_configurable(self):
        plain = netpipe_sizes(256, perturbation=0)
        assert plain == [1, 2, 4, 8, 16, 32, 64, 128, 256]
        wide = netpipe_sizes(256, perturbation=5)
        assert 27 in wide and 37 in wide

    def test_ethernet_model_is_slower_than_myrinet(self):
        myrinet = MyrinetMXModel()
        ethernet = EthernetTCPModel()
        assert ethernet.latency(1) > myrinet.latency(1)
        assert ethernet.bandwidth_bytes_per_s < myrinet.bandwidth_bytes_per_s
