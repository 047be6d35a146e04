"""Snapshot/restore round-trip coverage for the checkpoint fast path.

Checkpoints used to deep-copy application state on every save and restore;
they now go through :meth:`Application.snapshot_state` /
:meth:`Application.restore_state` (structurally-shared snapshots).  These
tests pin the contract for every workload in the package:

* the snapshot round-trips to a state equal to what ``deepcopy`` would have
  captured (byte-identical recovery results are separately pinned by
  ``tests/integration/test_determinism_pins.py``);
* mutating the live state after a snapshot never leaks into the snapshot;
* mutating a restored state never leaks into the snapshot or into a second
  restore (repeated rollbacks to the same checkpoint stay independent).
"""

import copy

import pytest

from repro.errors import ConfigurationError
from repro.simulator.stable_storage import StableStorage, snapshot_strategy_for
from repro.workloads.base import freeze_state, thaw_state
from repro.workloads.master_worker import MasterWorkerApplication
from repro.workloads.nas import NAS_BENCHMARKS, make_nas_application
from repro.workloads.netpipe import PingPongApplication
from repro.workloads.ring import PipelineApplication, RingApplication
from repro.workloads.stencil import Stencil1DApplication, Stencil2DApplication


def all_workloads():
    apps = [
        RingApplication(nprocs=4, iterations=2),
        PipelineApplication(nprocs=4, iterations=2),
        Stencil1DApplication(nprocs=4, iterations=2),
        Stencil2DApplication(nprocs=4, iterations=2),
        PingPongApplication(nprocs=2, iterations=1, sizes=[1, 64], repeats=1),
        MasterWorkerApplication(nprocs=4, iterations=1),
    ]
    apps.extend(
        make_nas_application(name, nprocs=4, iterations=2) for name in NAS_BENCHMARKS
    )
    return apps


def _ids():
    return [type(a).__name__ for a in all_workloads()]


def _mutate(state):
    """Aggressively mutate a workload state dict in place."""
    for key, value in list(state.items()):
        if isinstance(value, list):
            value.append(-123.0)
        elif isinstance(value, dict):
            value[-99] = -123.0
        elif isinstance(value, (int, float)):
            state[key] = value + 1000.0


@pytest.mark.parametrize("app", all_workloads(), ids=_ids())
class TestWorkloadSnapshotRoundTrip:
    def test_roundtrip_equals_deepcopy_semantics(self, app):
        state = app.setup(0, app.nprocs)
        reference = copy.deepcopy(state)
        restored = app.restore_state(app.snapshot_state(state))
        assert restored == reference
        assert type(restored) is type(reference)

    def test_snapshot_isolated_from_live_mutations(self, app):
        state = app.setup(0, app.nprocs)
        reference = copy.deepcopy(state)
        snapshot = app.snapshot_state(state)
        _mutate(state)
        assert app.restore_state(snapshot) == reference

    def test_restores_are_mutually_independent(self, app):
        state = app.setup(0, app.nprocs)
        reference = copy.deepcopy(state)
        snapshot = app.snapshot_state(state)
        first = app.restore_state(snapshot)
        _mutate(first)
        assert app.restore_state(snapshot) == reference


class TestFreezeThaw:
    def test_plain_data_roundtrip(self):
        value = {
            "a": [1.0, 2.5, [3, "x"]],
            "b": {"nested": (1, 2), "set": {7, 8}},
            "c": None,
            4: b"bytes",
        }
        thawed = thaw_state(freeze_state(value))
        assert thawed == value

    def test_frozen_value_shares_scalars_but_not_containers(self):
        value = {"xs": [1, 2, 3]}
        snapshot = freeze_state(value)
        value["xs"].append(4)
        assert thaw_state(snapshot) == {"xs": [1, 2, 3]}

    def test_tuple_state_not_confused_with_tags(self):
        value = {"pair": ("d", "l")}  # payload that looks like our tags
        assert thaw_state(freeze_state(value)) == value

    def test_opaque_objects_fall_back_to_deepcopy(self):
        class Box:
            def __init__(self, items):
                self.items = items

        box = Box([1, 2])
        snapshot = freeze_state({"box": box})
        box.items.append(3)
        first = thaw_state(snapshot)
        assert first["box"].items == [1, 2]
        # Restores never alias the opaque leaf either.
        first["box"].items.append(99)
        assert thaw_state(snapshot)["box"].items == [1, 2]


class TestStorageSnapshotContract:
    def test_strategy_for_is_the_application_or_the_generic_fallback(self):
        app = RingApplication(nprocs=2, iterations=1)
        assert snapshot_strategy_for(app) is app
        assert snapshot_strategy_for(object()) is None

    def test_storage_uses_application_snapshots_end_to_end(self):
        app = RingApplication(nprocs=2, iterations=1)
        storage = StableStorage(
            write_bandwidth_bytes_per_s=None,
            snapshot_strategy=snapshot_strategy_for(app),
        )
        state = app.setup(0, 2)
        record = storage.save(rank=0, iteration=1, app_state=state, time=0.0)
        state["received"].append(9.9)
        restored = record.restore_app_state()
        assert restored == {"value": 1.0, "received": []}
        restored["received"].append(1.0)
        assert record.restore_app_state() == {"value": 1.0, "received": []}

    def test_default_is_generic_freeze_thaw(self):
        storage = StableStorage(write_bandwidth_bytes_per_s=None)
        state = {"nested": [1, 2]}
        record = storage.save(rank=0, iteration=1, app_state=state, time=0.0)
        state["nested"].append(3)
        assert record.app_state == freeze_state({"nested": [1, 2]})
        assert record.restore_app_state() == {"nested": [1, 2]}


class TestWriteBandwidthValidation:
    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            StableStorage(write_bandwidth_bytes_per_s=0)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            StableStorage(write_bandwidth_bytes_per_s=-1.0e9)

    def test_nan_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            StableStorage(write_bandwidth_bytes_per_s=float("nan"))

    def test_none_means_free_writes(self):
        storage = StableStorage(write_bandwidth_bytes_per_s=None)
        assert storage.write_cost(1 << 30) == 0.0

    def test_positive_bandwidth_prices_writes(self):
        storage = StableStorage(write_bandwidth_bytes_per_s=2.0)
        assert storage.write_cost(10) == pytest.approx(5.0)
