"""Cross-checks of the closed-form overhead model (analysis.perf_model).

The analytic helpers are used as a fast path by the Figure 5 / Figure 6
harnesses; these tests pin them against short full-DES runs of the same
configurations so the closed forms cannot silently drift away from what
the simulator actually models.
"""

import math

import pytest

from repro.analysis.perf_model import (
    analytic_pingpong_series,
    iteration_overhead_estimate,
    message_cost,
    piggyback_policy_rows,
)
from repro.experiments import run
from repro.simulator.network import (
    MyrinetMXModel,
    PiggybackPolicy,
    pingpong_half_round_trip,
)

SIZES = [1, 64, 1024, 65536, 1 << 20]


class TestAnalyticPingpongVsSimulation:
    """analytic_pingpong_series must track the simulated NetPIPE sweep."""

    @pytest.fixture(scope="class")
    def simulated(self):
        return run("figure5", sizes=SIZES, repeats=1)

    @pytest.fixture(scope="class")
    def analytic(self):
        return analytic_pingpong_series(sizes=SIZES)

    def test_logging_latency_series_matches(self, simulated, analytic):
        sim_series = [row.lat_log_pct for row in simulated]
        ana_series = analytic["latency_reduction_logging_pct"]
        assert len(sim_series) == len(ana_series) == len(SIZES)
        for size, sim_pct, ana_pct in zip(SIZES, sim_series, ana_series):
            assert sim_pct == pytest.approx(ana_pct, abs=2.0), (
                f"size {size}: simulated {sim_pct:.3f}% vs analytic {ana_pct:.3f}%"
            )

    def test_no_logging_latency_series_matches(self, simulated, analytic):
        sim_series = [row.lat_no_log_pct for row in simulated]
        ana_series = analytic["latency_reduction_no_logging_pct"]
        for size, sim_pct, ana_pct in zip(SIZES, sim_series, ana_series):
            assert sim_pct == pytest.approx(ana_pct, abs=2.0), (
                f"size {size}: simulated {sim_pct:.3f}% vs analytic {ana_pct:.3f}%"
            )

    def test_both_report_vanishing_large_message_overhead(self, simulated, analytic):
        assert simulated[-1].lat_log_pct > -2.0
        assert analytic["latency_reduction_logging_pct"][-1] > -2.0


class TestMessageCost:
    def test_total_latency_matches_simulated_half_round_trip(self):
        # With no piggyback bytes and no logging the model must collapse to
        # the plain network half round trip the simulator charges per send.
        network = MyrinetMXModel()
        for size in SIZES:
            cost = message_cost(network, size, piggyback_bytes=0, logging=False)
            assert cost.total_latency_s == pytest.approx(
                pingpong_half_round_trip(network, size), rel=1e-12
            )
            assert cost.overhead_s == pytest.approx(0.0, abs=1e-15)

    def test_logging_overhead_is_the_memcpy(self):
        network = MyrinetMXModel()
        for size in SIZES:
            logged = message_cost(network, size, piggyback_bytes=0, logging=True)
            plain = message_cost(network, size, piggyback_bytes=0, logging=False)
            memcpy = network.memcpy_time(size)
            assert logged.logging_latency_s == pytest.approx(memcpy, rel=1e-12)
            assert logged.total_latency_s - plain.total_latency_s == pytest.approx(
                memcpy, rel=1e-9
            )

    def test_inline_piggyback_grows_wire_bytes(self):
        network = MyrinetMXModel()
        cost = message_cost(
            network, 64, piggyback_bytes=12,
            policy=PiggybackPolicy.INLINE_SMALL_SEPARATE_LARGE,
        )
        assert cost.wire_bytes == 76
        assert cost.overhead_s > 0.0


class TestIterationOverheadEstimate:
    def test_matches_hand_computed_composition(self):
        network = MyrinetMXModel()
        messages, size, frac, compute = 4, 8192, 0.25, 40e-6
        estimate = iteration_overhead_estimate(
            network, messages_per_rank=messages, message_bytes=size,
            logged_fraction=frac, compute_seconds=compute,
        )
        logged = message_cost(network, size, logging=True)
        unlogged = message_cost(network, size, logging=False)
        base = compute + messages * pingpong_half_round_trip(network, size)
        overhead = messages * (frac * logged.overhead_s + (1 - frac) * unlogged.overhead_s)
        assert estimate == pytest.approx((base + overhead) / base, rel=1e-12)

    def test_monotone_in_logged_fraction(self):
        network = MyrinetMXModel()
        estimates = [
            iteration_overhead_estimate(
                network, messages_per_rank=4, message_bytes=8192,
                logged_fraction=f, compute_seconds=40e-6,
            )
            for f in (0.0, 0.25, 0.5, 1.0)
        ]
        assert all(e >= 1.0 for e in estimates)
        assert estimates == sorted(estimates)


class TestPiggybackPolicyRows:
    def test_rows_are_finite_and_cover_sizes(self):
        network = MyrinetMXModel()
        rows = piggyback_policy_rows(network, sizes=SIZES)
        assert len(rows) == len(SIZES)
        for row in rows:
            for value in row.values() if isinstance(row, dict) else row:
                if isinstance(value, float):
                    assert math.isfinite(value)
