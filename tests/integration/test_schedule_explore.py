"""Integration tests for schedule-space exploration.

The positive half of the race detector's contract: the pinned faulty
scenarios (HydEE partial rollback, coordinated global rollback,
message-logging replay) are interleaving-invariant across 10+ seeded
adversarial schedules.  The negative half: an artificially order-sensitive
fixture -- two non-commuting same-time mutations of observable state -- IS
flagged, its witness shrinks to a handful of decisions, and the shrunk
witness replays the same first divergence deterministically, including
after a save/load round-trip.  The ``schedule-explore`` campaign job must
produce byte-identical records serial vs ``--workers N`` (through the
library and through ``repro-campaign run`` on a spec file), and a red
``repro-experiment schedule-explore --report`` must leave a witness the
library replays.
"""

import json

from repro.campaign import ResultsStore, run_spec
from repro.campaign.cli import main as campaign_main
from repro.scenarios.build import build
from repro.experiments import main as experiment_main
from repro.scenarios.spec import (
    ClusteringSpec,
    FailureEvent,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.schedexplore.explorer import (
    explore,
    explore_factory,
    prepare_spec,
    replay_witness,
)
from repro.schedexplore.pinned import PINNED_SCENARIOS, available_pinned, pinned_spec
from repro.schedexplore.witness import ScheduleWitness


class TestPinnedScenariosAreInterleavingInvariant:
    def test_ten_adversarial_seeds_reproduce_every_observable(self):
        # Acceptance criterion: 10+ seeded interleavings over the pinned
        # HydEE / coordinated / message-logging fault scenarios yield
        # bit-identical final fingerprints and normalized recovery traces.
        for name, spec in sorted(PINNED_SCENARIOS.items()):
            report = explore(spec, seeds=10, policy="adversarial")
            assert report.invariant, (
                f"{name}: schedule-space divergence: "
                f"{[w.divergence for w in report.witnesses]}"
            )
            assert report.interleavings == 11
            # Every pinned scenario runs on the flat network, so timing
            # joined the invariant and the makespan spread collapsed to zero.
            assert report.times_compared
            payload = report.to_payload()
            assert payload["makespan"]["spread"] == 0.0
            base = report.baseline
            assert base.trace_digest is not None
            assert base.boundary_fingerprints, f"{name}: no checkpoint boundaries seen"
            for run in report.runs:
                assert run.final_fingerprint == base.final_fingerprint
                assert run.trace_digest == base.trace_digest
                assert run.boundary_fingerprints == base.boundary_fingerprints
                # The seeds genuinely perturbed the schedule: every run hit
                # equal-time ties it could (and mostly did) reorder.
                assert run.tie_dispatches > 0

    def test_random_policy_is_also_invariant(self):
        report = explore(
            PINNED_SCENARIOS["message-logging-ring"], seeds=3, policy="random"
        )
        assert report.invariant


# ----------------------------------------------------- order-sensitive fixture
_FIXTURE_SPEC = prepare_spec(
    ScenarioSpec(
        name="order-sensitive-fixture",
        workload=WorkloadSpec(kind="ring", nprocs=4, iterations=2),
        protocol=ProtocolSpec(name="none"),
    )
)


def order_sensitive_factory():
    """A simulation whose outcome depends on one equal-time tie-break.

    Two callbacks at the same timestamp mutate an observable counter
    non-commutatively (``+1`` then ``*2`` vs ``*2`` then ``+1``), exactly
    the kind of order sensitivity the explorer exists to flag.
    """
    sim = build(_FIXTURE_SPEC)

    def bump():
        sim.stats.ranks_rolled_back += 1

    def double():
        sim.stats.ranks_rolled_back *= 2

    sim.engine.schedule_at(1e-05, bump)
    sim.engine.schedule_at(1e-05, double)
    return sim


def _first_witness():
    report = explore_factory(order_sensitive_factory, seeds=3, policy="adversarial")
    assert not report.invariant
    return report.witnesses[0]


class TestOrderSensitiveFixtureIsFlagged:
    def test_explorer_flags_the_race_and_shrinks_the_witness(self):
        report = explore_factory(
            order_sensitive_factory, seeds=3, policy="adversarial"
        )
        assert not report.invariant
        assert report.witnesses
        for witness in report.witnesses:
            assert witness.divergence["kind"] == "final-fingerprint"
            # Delta-debugging stripped the irrelevant reorderings: a raw
            # adversarial schedule carries dozens of decisions, the shrunk
            # witness keeps only the few that matter.
            assert witness.original_decisions > len(witness.decisions)
            assert 0 < len(witness.decisions) <= 8

    def test_random_policy_also_flags_the_race(self):
        report = explore_factory(
            order_sensitive_factory, seeds=5, policy="random", shrink=False
        )
        assert not report.invariant

    def test_shrunk_witness_replays_deterministically(self):
        witness = _first_witness()
        outcomes = [
            replay_witness(witness, sim_factory=order_sensitive_factory)
            for _ in range(2)
        ]
        for outcome in outcomes:
            assert outcome["reproduced"], outcome
        # Replay is deterministic: both replays observe the same divergence.
        assert outcomes[0]["divergence"] == outcomes[1]["divergence"]

    def test_witness_from_file_reproduces_same_first_divergence(self, tmp_path):
        witness = _first_witness()
        path = str(tmp_path / "fixture.witness.json")
        witness.save(path)
        loaded = ScheduleWitness.load(path)
        assert loaded.decisions == witness.decisions
        assert loaded.divergence == witness.divergence
        outcome = replay_witness(loaded, sim_factory=order_sensitive_factory)
        assert outcome["reproduced"], outcome
        assert outcome["divergence"]["kind"] == witness.divergence["kind"]
        assert outcome["divergence"]["index"] == witness.divergence["index"]


# ------------------------------------------------------------- campaign job
class TestScheduleExploreCampaignJob:
    def test_serial_vs_workers_byte_identical(self, tmp_path, capsys):
        # The front door for arbitrary spec files: tag the scenario, hand
        # the file to `repro-campaign run`.
        specs = [pinned_spec(name, seeds=2) for name in available_pinned()]
        specfile = tmp_path / "explore-specs.json"
        specfile.write_text(json.dumps([spec.to_dict() for spec in specs]))
        outputs = {}
        for label, workers in (("serial", "1"), ("parallel", "2")):
            store = str(tmp_path / f"{label}.json")
            argv = ["run", str(specfile), "--workers", workers, "--store", store, "--json"]
            assert campaign_main(argv) == 0
            outputs[label] = capsys.readouterr().out
        records = json.loads(outputs["serial"].rsplit("results store:", 1)[0])
        assert [r["analysis"] for r in records] == ["schedule-explore"] * len(specs)
        assert all(r["result"]["invariant"] for r in records)
        assert outputs["serial"].replace("serial.json", "") == outputs[
            "parallel"
        ].replace("parallel.json", "")
        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "parallel.json"
        ).read_bytes()
        assert len(ResultsStore(str(tmp_path / "serial.json"))) == len(specs)

    def test_job_payload_reports_invariance_verdict(self):
        record, _ = run_spec(pinned_spec("message-logging-ring", seeds=2))
        assert record["analysis"] == "schedule-explore"
        result = record["result"]
        assert result["invariant"] is True
        assert result["divergences"] == 0
        assert result["interleavings"] == 3
        assert result["status"] == "completed"
        assert result["witnesses"] == []
        assert result["checkpoint_boundaries"] > 0

    def test_exploration_parameters_rekey_the_cache(self):
        two = pinned_spec("message-logging-ring", seeds=2)
        three = pinned_spec("message-logging-ring", seeds=3)
        assert two.spec_hash() != three.spec_hash()


# ------------------------------------------------- witnesses without a CLI
class TestWitnessReplayIsALibraryCall:
    def test_stale_witness_from_file_is_not_reproduced(self, tmp_path):
        # A witness whose decisions no longer diverge (empty = pure FIFO)
        # replays from its embedded scenario and reports NOT reproduced.
        witness = ScheduleWitness(
            policy="adversarial",
            seed=0,
            decisions={},
            divergence={
                "kind": "final-fingerprint",
                "index": None,
                "baseline": "a",
                "observed": "b",
            },
            scenario=PINNED_SCENARIOS["message-logging-ring"].to_dict(),
        )
        path = str(tmp_path / "stale.witness.json")
        witness.save(path)
        outcome = replay_witness(ScheduleWitness.load(path))
        assert outcome["reproduced"] is False
        assert outcome["divergence"] is None
        assert outcome["expected"] == witness.divergence

    def test_red_registry_report_carries_a_replayable_witness(
        self, tmp_path, monkeypatch, capsys
    ):
        # Link contention makes which checkpoint beats the failure depend on
        # the schedule, so this spec diverges; pinned in the entry's place it
        # turns `repro-experiment schedule-explore --report` red, and the
        # report it leaves behind must be enough to replay the divergence.
        contended = ScenarioSpec(
            name="hydee-ring-contended",
            workload=WorkloadSpec(kind="ring", nprocs=8, iterations=6),
            protocol=ProtocolSpec(
                name="hydee",
                options={"checkpoint_interval": 2, "checkpoint_size_bytes": 16 * 1024},
                clustering=ClusteringSpec(method="block", num_clusters=2),
            ),
            network=NetworkSpec(
                topology=TopologySpec(
                    preset="cluster-per-node",
                    params={"ranks_per_node": 2, "oversubscription": 4.0},
                )
            ),
            failures=(FailureEvent(ranks=(1,), at_iteration=3),),
        )
        monkeypatch.setattr(
            "repro.experiments.timed.PINNED_SCENARIOS",
            {"hydee-stencil2d-single-failure": contended},
        )
        code = experiment_main(
            ["schedule-explore", "--seeds", "1", "--contended-seeds", "1",
             "--report", str(tmp_path)]
        )
        assert code == 1
        assert "failed checks: zero_divergences" in capsys.readouterr().err
        report = json.loads((tmp_path / "BENCH_schedule_explore.json").read_text())
        assert report["checks"]["zero_divergences"] is False
        assert report["divergences"] == len(report["witnesses"]) == 1
        path = tmp_path / "ci.witness.json"
        path.write_text(json.dumps(report["witnesses"][0]), encoding="utf-8")
        witness = ScheduleWitness.load(str(path))
        assert 0 < len(witness.decisions) < witness.original_decisions
        assert replay_witness(witness)["reproduced"]
