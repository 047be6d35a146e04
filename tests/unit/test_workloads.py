"""Unit tests for the workload definitions (patterns, matrices, metadata)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads import (
    BTApplication,
    CGApplication,
    FTApplication,
    LUApplication,
    MGApplication,
    MasterWorkerApplication,
    NAS_BENCHMARKS,
    PingPongApplication,
    PipelineApplication,
    RingApplication,
    SPApplication,
    Stencil1DApplication,
    Stencil2DApplication,
    make_nas_application,
)
from repro.workloads.base import Application, round9
from repro.workloads.nas import square_grid_side


class TestBaseValidation:
    def test_invalid_sizes_rejected(self):
        with pytest.raises(WorkloadError):
            RingApplication(nprocs=0)
        with pytest.raises(WorkloadError):
            RingApplication(nprocs=4, iterations=0)

    def test_info_and_parameters(self):
        app = RingApplication(nprocs=4, iterations=3, message_bytes=256)
        info = app.info()
        assert info.nprocs == 4
        assert info.iterations == 3
        assert info.parameters["message_bytes"] == 256

    def test_default_communication_matrix_not_implemented(self):
        app = RingApplication(nprocs=4)
        with pytest.raises(NotImplementedError):
            app.communication_matrix()


class TestStencils:
    def test_stencil1d_matrix_is_nearest_neighbour(self):
        app = Stencil1DApplication(nprocs=5, iterations=2, halo_bytes=100)
        matrix = app.communication_matrix()
        assert matrix[0, 1] == 200 and matrix[1, 0] == 200
        assert matrix[0, 2] == 0
        assert matrix[0, 4] == 0

    def test_stencil2d_grid_and_neighbours(self):
        app = Stencil2DApplication(nprocs=12, iterations=1)
        rows, cols = app.grid
        assert rows * cols == 12
        corner_neighbours = app.neighbours(0)
        assert len(corner_neighbours) == 2
        interior = app.rank_of(1, 1)
        assert len(app.neighbours(interior)) == 4

    def test_stencil2d_bad_grid_rejected(self):
        with pytest.raises(WorkloadError):
            Stencil2DApplication(nprocs=12, grid=(5, 2))

    def test_stencil2d_matrix_symmetric(self):
        app = Stencil2DApplication(nprocs=16, iterations=3)
        matrix = app.communication_matrix()
        assert np.allclose(matrix, matrix.T)


class TestNASKernels:
    @pytest.mark.parametrize("name", sorted(NAS_BENCHMARKS))
    def test_pattern_well_formed(self, name):
        app = make_nas_application(name, nprocs=16, iterations=2)
        matrix = app.communication_matrix()
        assert matrix.shape == (16, 16)
        assert np.all(np.diag(matrix) == 0)
        assert matrix.sum() > 0
        # every rank both sends and receives something
        assert np.all(matrix.sum(axis=1) > 0)
        assert np.all(matrix.sum(axis=0) > 0)

    @pytest.mark.parametrize("name", sorted(NAS_BENCHMARKS))
    def test_full_run_matrix_scales_with_npb_iterations(self, name):
        app = make_nas_application(name, nprocs=16, iterations=2)
        per_run = app.full_run_matrix().sum()
        per_iteration = app.communication_matrix().sum() / app.iterations
        assert per_run == pytest.approx(per_iteration * app.full_run_iterations)

    def test_bt_neighbours_are_torus(self):
        app = BTApplication(nprocs=16, iterations=1)
        peers = {p for p, _ in app.sends(0)}
        assert peers == {1, 3, 4, 12}  # +/-1 col, +/-1 row with wraparound on 4x4

    def test_lu_corner_has_two_partners(self):
        app = LUApplication(nprocs=16, iterations=1)
        assert len(app.sends(0)) == 2          # east + south only
        assert len(app.sends(5)) == 4          # interior rank

    def test_cg_row_partners_and_transpose(self):
        app = CGApplication(nprocs=16, iterations=1)
        peers = {p for p, _ in app.sends(1)}   # rank (0,1) on a 4x4 grid
        assert 4 in peers                       # transpose partner (1,0) = rank 4
        # the other partners stay within row 0 (ranks 0..3)
        assert all(p < 4 or p == 4 for p in peers)

    def test_ft_is_all_to_all(self):
        app = FTApplication(nprocs=9, iterations=1)
        matrix = app.communication_matrix()
        off_diagonal = matrix[~np.eye(9, dtype=bool)]
        assert off_diagonal[0] > 0
        assert np.all(off_diagonal == off_diagonal[0])

    def test_mg_has_multiple_distance_levels(self):
        app = MGApplication(nprocs=64, iterations=1)
        peers = {p for p, _ in app.sends(0)}
        assert len(peers) >= 8  # distance 1, 2 and 4 partners on an 8x8 grid

    def test_sp_total_volume_larger_than_lu(self):
        sp = SPApplication(nprocs=16, iterations=1)
        lu = LUApplication(nprocs=16, iterations=1)
        assert sp.full_run_matrix().sum() > lu.full_run_matrix().sum()

    def test_square_grid_required(self):
        with pytest.raises(WorkloadError):
            BTApplication(nprocs=12)
        assert square_grid_side(49) == 7

    def test_unknown_benchmark_name(self):
        with pytest.raises(KeyError):
            make_nas_application("does-not-exist", nprocs=16)

    def test_message_scale_shrinks_volumes(self):
        full = BTApplication(nprocs=16, iterations=1)
        scaled = BTApplication(nprocs=16, iterations=1, message_scale=0.5)
        assert scaled.communication_matrix().sum() == pytest.approx(
            0.5 * full.communication_matrix().sum(), rel=0.01
        )


class TestOtherWorkloads:
    def test_pingpong_requires_two_ranks(self):
        with pytest.raises(WorkloadError):
            PingPongApplication(nprocs=3)
        with pytest.raises(WorkloadError):
            PingPongApplication(nprocs=2, sizes=[])

    def test_pingpong_parameters(self):
        app = PingPongApplication(nprocs=2, sizes=[1, 1024], repeats=2)
        assert app.parameters()["sizes"] == 2

    def test_master_worker_declares_non_send_deterministic(self):
        app = MasterWorkerApplication(nprocs=4)
        assert app.send_deterministic is False
        assert app.total_tasks == 6

    def test_send_deterministic_flag_default_true(self):
        assert RingApplication(nprocs=4).send_deterministic is True
        assert PipelineApplication(nprocs=4).send_deterministic is True


#: workload kind -> factory for a small-but-nontrivial instance; every entry
#: must override fast_forward_states and is held to the bit-identity contract below.
FF_COVERED_APPS = {
    "stencil1d": lambda: Stencil1DApplication(nprocs=6, iterations=25, points_per_rank=8),
    "stencil2d": lambda: Stencil2DApplication(nprocs=12, iterations=25),
    "ring": lambda: RingApplication(nprocs=5, iterations=25),
    "pipeline": lambda: PipelineApplication(nprocs=5, iterations=25),
    "bt": lambda: BTApplication(nprocs=9, iterations=12),
    "cg": lambda: CGApplication(nprocs=9, iterations=12),
    "ft": lambda: FTApplication(nprocs=9, iterations=12),
    "lu": lambda: LUApplication(nprocs=9, iterations=12),
    "mg": lambda: MGApplication(nprocs=9, iterations=12),
    "sp": lambda: SPApplication(nprocs=9, iterations=12),
}


def _bulk_capable(app):
    """What HybridDirector._plan_batch asks: is fast_forward_states overridden?"""
    return type(app).fast_forward_states is not Application.fast_forward_states


class TestFastForwardStates:
    """The bulk fast-forward must be bit-identical to the message path."""

    @pytest.mark.parametrize("kind", sorted(FF_COVERED_APPS))
    def test_bulk_advance_bit_identical_to_full_simulation(self, kind):
        # Drive the real message path (full DES, every send/recv exchanged)
        # and require the analytically advanced states to land on the exact
        # same floats -- same operations in the same order, no tolerance.
        from repro.simulator.simulation import Simulation

        app = FF_COVERED_APPS[kind]()
        assert _bulk_capable(app)
        nprocs = app.nprocs
        sim = Simulation(app, nprocs=nprocs)
        result = sim.run()
        assert result.completed

        states = {rank: app.setup(rank, nprocs) for rank in range(nprocs)}
        assert app.fast_forward_states(states, 0, app.iterations) is True
        for rank in range(nprocs):
            assert states[rank] == sim.ranks[rank].app_state, (kind, rank)

    @pytest.mark.parametrize("kind", sorted(FF_COVERED_APPS))
    def test_bulk_advance_composes(self, kind):
        # Advancing k then n-k iterations lands on the same floats as n at
        # once (the hybrid director advances interval-by-interval).
        app = FF_COVERED_APPS[kind]()
        nprocs, n = app.nprocs, app.iterations
        split = {rank: app.setup(rank, nprocs) for rank in range(nprocs)}
        whole = {rank: app.setup(rank, nprocs) for rank in range(nprocs)}
        assert app.fast_forward_states(split, 0, n // 3)
        assert app.fast_forward_states(split, n // 3, n - n // 3)
        assert app.fast_forward_states(whole, 0, n)
        assert split == whole

    @pytest.mark.parametrize("kind", sorted(FF_COVERED_APPS))
    def test_incomplete_state_set_is_refused(self, kind):
        app = FF_COVERED_APPS[kind]()
        nprocs = app.nprocs
        states = {rank: app.setup(rank, nprocs) for rank in range(nprocs - 1)}
        assert app.fast_forward_states(states, 0, 1) is False

    def test_single_rank_bulk_advance(self):
        for app in (RingApplication(nprocs=1, iterations=4),
                    PipelineApplication(nprocs=1, iterations=4)):
            from repro.simulator.simulation import Simulation

            sim = Simulation(app, nprocs=1)
            assert sim.run().completed
            states = {0: app.setup(0, 1)}
            assert app.fast_forward_states(states, 0, app.iterations) is True
            assert states[0] == sim.ranks[0].app_state

    def test_non_deterministic_workloads_stay_uncovered(self):
        # Master-worker is not send-deterministic and netpipe's per-iteration
        # timing varies with message size; neither may claim bulk advance.
        assert not _bulk_capable(MasterWorkerApplication(nprocs=4))
        assert not _bulk_capable(PingPongApplication(nprocs=2))
        assert _bulk_capable(RingApplication(nprocs=4))


class TestRound9:
    @pytest.mark.parametrize(
        "x",
        [
            0.0, -0.0, 1.0000000005, -3.1415926535897, 123456.7890123456,
            2.0**24 - 2.0**-29, 2.0**24, -(2.0**24), 2.0**24 + 2.0, 1.0e15 / 3.0,
            -7.0e22 / 9.0, 1.0e300, float("inf"), float("-inf"),
        ],
    )
    def test_is_round_to_nine_decimals_bit_for_bit(self, x):
        assert round9(x).hex() == round(x, 9).hex()

    @given(st.floats(allow_nan=False))
    def test_agrees_with_round_on_every_float(self, x):
        assert round9(x).hex() == round(x, 9).hex()

    def test_nan_stays_nan(self):
        assert math.isnan(round9(float("nan")))
