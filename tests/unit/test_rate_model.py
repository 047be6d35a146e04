"""Unit tests of ``RateModel.iterations_at``, the projection that sizes the
DES window before a timed strike (simulator.hybrid).

The interesting inputs sit on checkpoint boundaries: a rank that has reached
a boundary count has already paid for that checkpoint (the projection adds
the surcharge there and removes it again one count later, where the phase
duration carries it), and a strike time can fall exactly on a projected
clock.  Every duration below is a binary fraction, so the projections are
exact floats and ``<=`` at a projection is decided by the model, not by
rounding.
"""

import pytest

from repro.simulator.hybrid import RateModel

K = 4
#: phase of the delta ending at count i is i % K; phase 1 carries the
#: checkpoint taken at the boundary before it.
PHASES = [1.0, 3.0, 1.0, 1.5]
EXTRA = 2.0
T0 = 10.0


def phase_model():
    return RateModel({0: sum(PHASES) / K}, {0: EXTRA}, K, 0.0, {0: list(PHASES)})


def flat_model():
    return RateModel({0: 1.25}, {0: 0.0}, 0, 0.0)


def reference(model, b, t, horizon=64):
    """Largest count in ``b..b+horizon`` whose projection is ``<= t`` (``b``
    itself for a time before the anchor)."""
    return max([b] + [m for m in range(b, b + horizon) if model.project(0, T0, b, m) <= t])


@pytest.mark.parametrize("b", [1, 3, K, K + 1, 2 * K])  # anchors on and off a boundary
class TestPhaseModel:
    def test_projection_is_strictly_increasing_through_boundaries(self, b):
        model = phase_model()
        clocks = [model.project(0, T0, b, m) for m in range(b, b + 3 * K + 1)]
        assert clocks[0] == T0
        assert all(later > earlier for earlier, later in zip(clocks, clocks[1:]))

    def test_a_time_exactly_on_a_projection_counts_that_iteration(self, b):
        model = phase_model()
        for m in range(b, b + 3 * K + 1):  # includes every residue, boundaries too
            on = model.project(0, T0, b, m)
            assert model.iterations_at(0, T0, b, on) == m
            if m > b:
                assert model.iterations_at(0, T0, b, on - 2.0 ** -20) == m - 1

    def test_count_landing_on_a_boundary_includes_its_checkpoint(self, b):
        model = phase_model()
        boundary = (b // K + 1) * K
        paid = model.project(0, T0, b, boundary)
        # Half the checkpoint written: the boundary count is not complete.
        assert model.iterations_at(0, T0, b, paid - EXTRA / 2) == boundary - 1
        assert model.iterations_at(0, T0, b, paid) == boundary
        # The next delta carries that checkpoint's cost inside phase 1: what
        # is left of it after the boundary is PHASES[1] - EXTRA.
        after = paid + PHASES[1] - EXTRA
        assert model.project(0, T0, b, boundary + 1) == after
        assert model.iterations_at(0, T0, b, after) == boundary + 1

    def test_agrees_with_the_exhaustive_walk(self, b):
        model = phase_model()
        for step in range(0, 160):
            t = T0 - 1.0 + step * 0.125
            assert model.iterations_at(0, T0, b, t) == reference(model, b, t), t


def test_a_time_at_or_before_the_anchor_is_the_anchor_count():
    for model in (phase_model(), flat_model()):
        assert model.iterations_at(0, T0, K, T0) == K
        assert model.iterations_at(0, T0, K, T0 - 1.0) == K


def test_flat_model_divides_and_counts_an_exact_projection():
    model = flat_model()
    for m in range(5, 20):
        on = model.project(0, T0, 5, m)
        assert model.iterations_at(0, T0, 5, on) == m
        assert model.iterations_at(0, T0, 5, on + 1.0) == m
        assert model.iterations_at(0, T0, 5, on + 1.25) == m + 1
