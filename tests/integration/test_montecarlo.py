"""Integration tests for Monte Carlo fault campaigns:

* serial vs ``--workers 4`` replica campaigns produce byte-identical store
  files (the acceptance gate of the fault-model subsystem),
* the ``montecarlo`` campaign job aggregates deterministically and its
  records survive the cache round trip,
* the efficiency-vs-MTBF experiment reproduces the paper's qualitative
  ordering (HydEE wasted work < coordinated) across a 3-point MTBF sweep,
  and its table rebuilds from a cached store via ``repro-campaign query``.
"""

import json

import pytest

from repro.analysis.efficiency import (
    containment_holds,
    render_efficiency,
    rows_from_resultset,
    run_efficiency_experiment,
)
from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultsStore
from repro.faults import FaultModelSpec
from repro.faults.montecarlo import replica_specs, run_montecarlo
from repro.faults.trace import generate_trace
from repro.results.query import ResultSet
from repro.scenarios import (
    ClusteringSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.workloads.base import Application

REPLICAS = 20


def mc_base(name="mc", protocol="hydee", mtbf_s=8e-3, seed=0) -> ScenarioSpec:
    clustering = (
        ClusteringSpec(method="block", num_clusters=4)
        if protocol == "hydee"
        else ClusteringSpec()
    )
    return ScenarioSpec(
        name=name,
        workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=6),
        protocol=ProtocolSpec(
            name=protocol,
            options={"checkpoint_interval": 1, "checkpoint_size_bytes": 64 * 1024},
            clustering=clustering,
        ),
        fault_model=FaultModelSpec(
            distribution="exponential",
            params={"mtbf_s": mtbf_s},
            horizon_s=2e-3,
            seed=seed,
        ),
        config={"raise_on_incomplete": False},
    )


class TestSerialParallelByteIdentity:
    def test_twenty_replica_stores_identical_serial_vs_four_workers(self, tmp_path):
        base = mc_base()
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        serial = run_montecarlo(
            base, replicas=REPLICAS, workers=1, store=ResultsStore(str(serial_path))
        )
        parallel = run_montecarlo(
            base, replicas=REPLICAS, workers=4, store=ResultsStore(str(parallel_path))
        )
        assert serial.executed == REPLICAS and parallel.executed == REPLICAS
        assert serial_path.read_bytes() == parallel_path.read_bytes()
        assert serial.metrics.to_tree() == parallel.metrics.to_tree()

    def test_cached_rerun_skips_execution_and_aggregates_identically(self, tmp_path):
        base = mc_base()
        store = ResultsStore(str(tmp_path / "store.json"))
        first = run_montecarlo(base, replicas=REPLICAS, workers=2, store=store)
        again = run_montecarlo(
            base, replicas=REPLICAS, workers=1, store=ResultsStore(store.path)
        )
        assert again.executed == 0 and again.cache_hits == REPLICAS
        assert again.metrics.to_tree() == first.metrics.to_tree()

    def test_fully_cached_rerun_builds_no_simulation(self, tmp_path, monkeypatch):
        """The pre-warm used to run before anyone knew whether a replica
        would execute: one build + run per re-run.  Growing the campaign
        pre-warms once more, in memory, for the new replicas."""
        import importlib

        # The package re-exports the function under the module's own name.
        scenario_build = importlib.import_module("repro.scenarios.build")
        builds = []
        real_build = scenario_build.build
        monkeypatch.setattr(
            scenario_build, "build", lambda spec: builds.append(spec.name) or real_build(spec)
        )
        base = mc_base()
        on_disk = ResultsStore(str(tmp_path / "store.json"))
        in_memory = ResultsStore()
        for store in (on_disk, in_memory):
            first = run_montecarlo(base, replicas=5, store=store)
            assert len(builds) == 1 + first.executed  # the pre-warm, then the replicas
            builds.clear()
        for store in (ResultsStore(on_disk.path), in_memory):
            again = run_montecarlo(base, replicas=5, store=store)
            assert again.executed == 0 and again.cache_hits == 5
            assert builds == []
        grown = run_montecarlo(base, replicas=8, store=ResultsStore(on_disk.path))
        assert grown.cache_hits == 5
        assert sum(name.endswith("#calibration") for name in builds) == 1
        assert len(builds) == 1 + grown.executed

    def test_growing_the_campaign_only_runs_new_replicas(self, tmp_path):
        base = mc_base()
        store = ResultsStore(str(tmp_path / "store.json"))
        run_montecarlo(base, replicas=5, workers=1, store=store)
        grown = run_montecarlo(
            base, replicas=8, workers=1, store=ResultsStore(store.path)
        )
        assert grown.cache_hits == 5 and grown.executed == 3


class TestMonteCarloSemantics:
    def test_replica_specs_rekey_fault_model_and_hashes(self):
        base = mc_base()
        specs = replica_specs(base, 4)
        assert [s.fault_model.replica for s in specs] == [0, 1, 2, 3]
        assert len({s.spec_hash() for s in specs}) == 4
        assert all(s.tags["mc_base"] == base.spec_hash() for s in specs)
        assert all(s.tags["analysis"] == "montecarlo-replica" for s in specs)

    def test_mc_base_hash_independent_of_replica_count_and_job_tag(self):
        # Growing a campaign (or launching it via the 'montecarlo' job tag)
        # must not re-key the replicas, or nothing would ever cache-hit.
        import dataclasses

        plain = mc_base()
        tagged_20 = dataclasses.replace(
            plain, tags={"analysis": "montecarlo", "replicas": 20}
        )
        tagged_30 = dataclasses.replace(
            plain, tags={"analysis": "montecarlo", "replicas": 30}
        )
        hashes = lambda b: [s.spec_hash() for s in replica_specs(b, 3)]  # noqa: E731
        assert hashes(plain) == hashes(tagged_20) == hashes(tagged_30)

    def test_replica_specs_need_a_fault_model(self):
        from repro.errors import ConfigurationError

        plain = ScenarioSpec(
            name="plain", workload=WorkloadSpec(kind="ring", nprocs=4)
        )
        with pytest.raises(ConfigurationError):
            replica_specs(plain, 3)

    def test_aggregate_has_faults_namespace_statistics(self):
        result = run_montecarlo(mc_base(), replicas=6)
        assert result.metric("faults.replicas") == 6
        assert 0 < result.metric("faults.completed_replicas") <= 6
        mean = result.metric("faults.sim.makespan.mean")
        low = result.metric("faults.sim.makespan.min")
        high = result.metric("faults.sim.makespan.max")
        assert low <= mean <= high
        assert result.metric("faults.sim.makespan.std") >= 0
        assert result.metric("faults.sim.total_compute_time.mean") > 0
        # Injector health counters aggregate too (every replica has them).
        assert result.metric("faults.sim.injector.failed_ranks.mean") is not None

    def test_montecarlo_job_record_survives_cache_round_trip(self, tmp_path):
        spec = mc_base(name="mc-job").with_name("mc-job")
        import dataclasses

        spec = dataclasses.replace(
            spec, tags={"analysis": "montecarlo", "replicas": 5}
        )
        store_path = tmp_path / "job.json"
        outcome = run_campaign([spec], workers=1, store=ResultsStore(str(store_path)))
        fresh = outcome.records[0]
        cached = ResultsStore(str(store_path)).get(spec.spec_hash())
        canonical = lambda r: json.dumps(r, sort_keys=True)  # noqa: E731
        assert canonical(fresh) == canonical(cached)
        metrics = fresh["result"]["metrics"]
        assert metrics["faults"]["replicas"] == 5
        assert len(fresh["result"]["data"]["replicas"]) == 5


class TestEfficiencyExperiment:
    @pytest.fixture(scope="class")
    def experiment(self, tmp_path_factory):
        store_path = tmp_path_factory.mktemp("efficiency") / "store.json"
        store = ResultsStore(str(store_path))
        rows = run_efficiency_experiment(
            protocols=("hydee", "coordinated"),
            mtbf_factors=(4.0, 8.0, 16.0),
            replicas=20,
            workers=2,
            store=store,
        )
        return rows, store_path

    def test_containment_ordering_across_three_point_sweep(self, experiment):
        rows, _ = experiment
        assert len(rows) == 6  # 2 protocols x 3 MTBF points
        assert len({row.mtbf_s for row in rows}) == 3
        assert containment_holds(rows)
        for row in rows:
            assert row.completed_replicas > 0
            assert 0 < row.efficiency < 1
            assert row.wasted_work_s >= 0

    def test_hydee_rolls_back_fewer_ranks(self, experiment):
        rows, _ = experiment
        by_key = {(r.protocol, r.mtbf_s): r for r in rows}
        for (protocol, mtbf), row in by_key.items():
            if protocol == "hydee":
                assert row.ranks_rolled_back_mean < \
                    by_key[("coordinated", mtbf)].ranks_rolled_back_mean

    def test_table_rebuilds_from_cached_store(self, experiment):
        rows, store_path = experiment
        rebuilt = rows_from_resultset(ResultSet.from_store(str(store_path)))
        assert [dict(r) for r in rebuilt] == [dict(r) for r in rows]
        assert "efficiency" in render_efficiency(rebuilt)

    def test_query_cli_renders_the_table(self, experiment, capsys):
        _, store_path = experiment
        from repro.campaign.cli import main as campaign_main

        assert campaign_main(
            ["query", str(store_path), "--table", "efficiency"]
        ) == 0
        out = capsys.readouterr().out
        assert "hydee" in out and "coordinated" in out and "wasted_us" in out


class TestMixedCampaignStores:
    def test_efficiency_table_rejects_replicas_of_two_campaigns(self, tmp_path):
        from repro.errors import ConfigurationError

        def run_with_seed(seed, store):
            return run_efficiency_experiment(
                nprocs=8,
                iterations=3,
                workload_kind="ring",
                protocols=("coordinated",),
                mtbf_factors=(4.0,),
                replicas=2,
                seed=seed,
                store=store,
            )

        store = ResultsStore(str(tmp_path / "mixed.json"))
        run_with_seed(0, store)
        # The second sweep lands at the same (protocol, mtbf) coordinates;
        # its aggregation over the shared store must refuse to pool the two
        # campaigns' replicas -- as must any later query of that store.
        with pytest.raises(ConfigurationError, match="mixes replicas"):
            run_with_seed(1, ResultsStore(store.path))
        with pytest.raises(ConfigurationError, match="mixes replicas"):
            rows_from_resultset(ResultSet.from_store(ResultsStore(store.path)))


class TestNonCompletedReplicas:
    def test_a_single_strike_message_logging_replica_completes(self):
        # ROADMAP 1(a): one strike at MTBF factor 16 (seed 0) used to leave
        # ranks 11 and 14 waiting on a re-sent message read as a duplicate.
        store = ResultsStore()
        run_efficiency_experiment(
            protocols=("message-logging",), mtbf_factors=(16.0,), replicas=5, store=store
        )
        (record,) = [
            record for record in store.records().values()
            if record["name"] == "efficiency:message-logging:np16:mtbf0.00570496#r4"
        ]
        fault_model = ScenarioSpec.from_dict(record["spec"]).fault_model
        assert len(generate_trace(fault_model, 16)) == 1
        assert record["result"]["status"] == "completed"

    #: Ranks 0 and 1 of a three-rank workload each wait for the other
    #: first; rank 2 finishes.  A replica of it deadlocks by construction.
    STUCK = "mutual-wait#deadlock"
    STUCK_BLOCKED = {"0": "recv(source=1, tag=-1)", "1": "recv(source=0, tag=-1)"}

    class MutualWait(Application):
        name = "mutual-wait"

        def setup(self, rank, nprocs):
            return {}

        def iteration(self, comm, rank, state, it):
            if rank < 2:
                yield from comm.recv(source=1 - rank)

        def finalize(self, comm, rank, state):
            return rank
            yield  # pragma: no cover

    def run_stuck_and_completed(self, monkeypatch, store):
        """One deadlocked and one completed replica, through a campaign."""
        from repro.scenarios.build import WORKLOAD_FACTORIES

        monkeypatch.setitem(WORKLOAD_FACTORIES, "mutual-wait", self.MutualWait)
        replica = dict(
            protocol=ProtocolSpec(name="none"),
            config={"raise_on_incomplete": False},
            tags={"analysis": "montecarlo-replica"},
        )
        run_campaign(
            [
                ScenarioSpec(
                    name=self.STUCK,
                    workload=WorkloadSpec(kind="mutual-wait", nprocs=3, iterations=1),
                    **replica,
                ),
                ScenarioSpec(
                    name="ring#completed",
                    workload=WorkloadSpec(kind="ring", nprocs=3, iterations=1),
                    **replica,
                ),
            ],
            store=store,
        )

    def test_a_deadlock_record_keeps_what_each_unfinished_rank_waits_on(self, monkeypatch):
        # The store row must say which ranks are stuck and on what, without a
        # re-run.
        store = ResultsStore()
        self.run_stuck_and_completed(monkeypatch, store)
        by_name = {record["name"]: record["result"] for record in store.records().values()}
        stuck = by_name[self.STUCK]
        assert stuck["status"] == "deadlock"
        assert stuck["data"]["blocked"] == self.STUCK_BLOCKED
        assert sorted(stuck["data"]["blocked"]) == sorted(
            rank for rank, state in stuck["data"]["rank_states"].items() if state != "done"
        )
        # A completed replica's record is what it was: no new key.
        completed = by_name["ring#completed"]
        assert completed["status"] == "completed"
        assert sorted(completed["data"]) == ["rank_states"]

    def test_the_blocked_table_diagnoses_a_deadlock_row_from_the_store(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.campaign.cli import main as campaign_main

        path = str(tmp_path / "store.json")
        self.run_stuck_and_completed(monkeypatch, ResultsStore(path))
        query = ["query", path, "--table", "blocked", "--format", "csv", "--where"]
        assert campaign_main([*query, f"name={self.STUCK}"]) == 0
        assert capsys.readouterr().out.strip().splitlines() == [
            "record,status,rank,waits_on",
            *(f'{self.STUCK},deadlock,{rank},"{waits_on}"'
              for rank, waits_on in sorted(self.STUCK_BLOCKED.items(), key=lambda kv: int(kv[0]))),
        ]
        # Completed records have nothing to say.
        assert campaign_main([*query, "status=completed"]) == 0
        assert capsys.readouterr().out.strip().splitlines() == ["record,status,rank,waits_on"]
        assert campaign_main(["query", "--list-tables"]) == 0
        assert any(line.split()[0] == "blocked" for line in capsys.readouterr().out.splitlines())

    #: protocol -> completed / drawn replicas per strike bucket (0, 1, 2, >= 3)
    #: of the harsh sweep: 16-rank stencil2d, 6 iterations, interval 1, MTBF
    #: factors 2-16, 20 replicas each, seed 0 (ROADMAP item 1).  Equality, not
    #: a floor: the PR that makes a failure trace terminate edits the numbers.
    HARSH_SWEEP_COMPLETED = {
        "coordinated": [(1, 1), (8, 8), (8, 8), (63, 63)],
        "hydee": [(1, 1), (8, 8), (8, 8), (63, 63)],
        "message-logging": [(1, 1), (8, 8), (8, 8), (63, 63)],
    }

    def test_harsh_mtbf_completion_counts_are_pinned(self):
        store = ResultsStore()
        run_efficiency_experiment(
            protocols=tuple(self.HARSH_SWEEP_COMPLETED), mtbf_factors=(2, 4, 8, 16),
            replicas=20, seed=0, store=store,
        )
        replicas = [run for run in ResultSet.from_store(store) if "#r" in run.name]
        assert len(replicas) == 240
        table = {name: [[0, 0] for _ in range(4)] for name in self.HARSH_SWEEP_COMPLETED}
        for run in replicas:
            strikes = len(generate_trace(ScenarioSpec.from_dict(run.spec).fault_model, 16))
            cell = table[run.field("protocol")][min(strikes, 3)]
            cell[0] += run.completed
            cell[1] += 1
            if not run.completed:
                assert run.status == "deadlock" and run.data["blocked"], run.name
        assert {
            name: [tuple(cell) for cell in cells] for name, cells in table.items()
        } == self.HARSH_SWEEP_COMPLETED

    #: protocol -> harsh replicas whose exact, traced rerun does not reproduce
    #: the protocol's own failure-free baseline: its rank results and its
    #: effective send sequences.  Completed is not correct; equality, like
    #: the table above.
    HARSH_SWEEP_NONCONFORMING = {
        "coordinated": [],
        "hydee": [
            "efficiency:hydee:np16:mtbf0.00142624#r17",
            "efficiency:hydee:np16:mtbf0.00285248#r9",
            "efficiency:hydee:np16:mtbf0.00570496#r0",
        ],
        "message-logging": [],
    }

    def test_harsh_sweep_replicas_reproduce_their_baseline(self):
        import dataclasses

        from repro.analysis.efficiency import (
            baseline_spec,
            montecarlo_base_spec,
            reference_spec,
        )
        from repro.core.invariants import check_recovery_equivalence, check_send_determinism
        from repro.errors import ReproError
        from repro.scenarios.build import build

        def traced(spec):
            return build(dataclasses.replace(
                spec, execution="exact", config={**spec.config, "record_trace_events": True}
            )).run()

        makespan = build(reference_spec()).run().stats.makespan
        nonconforming = {}
        for protocol in self.HARSH_SWEEP_NONCONFORMING:
            baseline = traced(baseline_spec(protocol))
            names = nonconforming[protocol] = []
            for factor in (2, 4, 8, 16):
                base = montecarlo_base_spec(protocol, factor * makespan, 2 * makespan)
                for spec in replica_specs(base, 20, execution="exact"):
                    try:
                        run = traced(spec)
                        check_recovery_equivalence(baseline, run)
                        check_send_determinism(baseline.trace, run.trace)
                    except ReproError:
                        names.append(spec.name)
        assert nonconforming == self.HARSH_SWEEP_NONCONFORMING
