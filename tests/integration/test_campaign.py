"""Integration tests for the campaign runner: serial vs parallel equivalence,
result-store caching, artifacts, analysis jobs and the CLI."""

import json

import pytest

from repro.campaign import ResultsStore, run_campaign, run_spec
from repro.campaign.cli import main as campaign_main
from repro.results import RunResult
from repro.scenarios import (
    ClusteringSpec,
    FailureEvent,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
    sweep,
)


def sweep_specs():
    """A small 8-spec grid (2 workloads x 2 sizes x 2 protocols)."""
    base = ScenarioSpec(
        name="grid", workload=WorkloadSpec(kind="stencil2d", nprocs=8, iterations=3)
    )
    return sweep(
        base,
        {
            "workload.kind": ["stencil2d", "ring"],
            "workload.nprocs": [4, 8],
            "protocol.name": ["none", "hydee-log-all"],
        },
    )


def canonical(records):
    return json.dumps(records, sort_keys=True, separators=(",", ":"))


class TestSerialParallelEquivalence:
    def test_parallel_records_byte_identical_to_serial(self):
        specs = sweep_specs()
        assert len(specs) >= 8
        serial = run_campaign(specs, workers=1)
        parallel = run_campaign(specs, workers=2)
        assert serial.executed == len(specs)
        assert parallel.executed == len(specs)
        assert canonical(serial.records) == canonical(parallel.records)

    def test_parallel_store_file_byte_identical_to_serial(self, tmp_path):
        specs = sweep_specs()
        serial_store = ResultsStore(str(tmp_path / "serial.json"))
        parallel_store = ResultsStore(str(tmp_path / "parallel.json"))
        run_campaign(specs, workers=1, store=serial_store)
        run_campaign(specs, workers=2, store=parallel_store)
        serial_bytes = (tmp_path / "serial.json").read_bytes()
        parallel_bytes = (tmp_path / "parallel.json").read_bytes()
        assert serial_bytes == parallel_bytes

    def test_records_follow_input_order(self):
        specs = sweep_specs()
        outcome = run_campaign(specs, workers=2)
        assert [r["name"] for r in outcome.records] == [s.name for s in specs]


class TestResultCaching:
    def test_cache_hit_skips_execution(self, tmp_path):
        specs = sweep_specs()
        store = ResultsStore(str(tmp_path / "store.json"))
        first = run_campaign(specs, store=store)
        assert first.executed == len(specs) and first.cache_hits == 0

        # Reload from disk: everything must come from the cache.
        reloaded = ResultsStore(str(tmp_path / "store.json"))
        second = run_campaign(specs, store=reloaded, workers=2)
        assert second.executed == 0 and second.cache_hits == len(specs)
        assert canonical(first.records) == canonical(second.records)

    def test_cached_record_is_returned_verbatim(self, tmp_path):
        # Plant a sentinel record: if the campaign returns it, it provably
        # skipped re-execution.
        spec = sweep_specs()[0]
        store = ResultsStore(str(tmp_path / "store.json"))
        sentinel = {
            "name": spec.name,
            "spec": spec.to_dict(),
            "spec_hash": spec.spec_hash(),
            "analysis": "simulate",
            "result": {"status": "sentinel"},
        }
        store.put(spec.spec_hash(), sentinel)
        outcome = run_campaign([spec], store=store)
        assert outcome.records[0]["result"]["status"] == "sentinel"
        assert outcome.executed == 0

    def test_force_reexecutes_despite_cache(self, tmp_path):
        spec = sweep_specs()[0]
        store = ResultsStore(str(tmp_path / "store.json"))
        run_campaign([spec], store=store)
        forced = run_campaign([spec], store=store, force=True)
        assert forced.executed == 1 and forced.cache_hits == 0

    def test_partial_cache_executes_only_missing(self, tmp_path):
        specs = sweep_specs()
        store = ResultsStore(str(tmp_path / "store.json"))
        run_campaign(specs[:3], store=store)
        outcome = run_campaign(specs, store=store, workers=2)
        assert outcome.cache_hits == 3
        assert outcome.executed == len(specs) - 3

    def test_mutated_cache_hit_is_not_written_back(self, tmp_path):
        """Only put() marks a record for writing: a record handed out as a
        cache hit and edited by the caller must not leak into the file when
        the same store object saves later."""
        specs = sweep_specs()
        path = str(tmp_path / "store.json")
        run_campaign(specs[:1], store=ResultsStore(path))
        store = ResultsStore(path)
        hit = run_campaign(specs[:1], store=store)
        assert hit.cache_hits == 1
        hit.records[0]["result"]["status"] = "edited by the caller"
        run_campaign(specs[:2], store=store)  # executes one spec, then saves
        on_disk = ResultsStore(path)
        assert len(on_disk) == 2
        assert on_disk.get(specs[0].spec_hash())["result"]["status"] == "completed"
        # ... while a record mutated between put() and save() is written as mutated.
        late = ResultsStore(path)
        record = {"name": "late", "result": {"status": "before"}}
        late.put("late", record)
        record["result"]["status"] = "after"
        late.save()
        assert ResultsStore(path).get("late")["result"]["status"] == "after"


class TestArtifactsAndJobs:
    def test_keep_artifacts_returns_live_results(self):
        specs = sweep_specs()[:2]
        outcome = run_campaign(specs, keep_artifacts=True)
        for artifact, run in zip(outcome.artifacts, outcome.results()):
            assert artifact is not None
            assert artifact.completed
            assert artifact.makespan == run.metric("sim.makespan")

    def test_failure_scenarios_record_recovery(self):
        spec = ScenarioSpec(
            name="campaign:failure",
            workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=6),
            protocol=ProtocolSpec(
                name="hydee",
                options={"checkpoint_interval": 2, "checkpoint_size_bytes": 65536},
                clustering=ClusteringSpec(method="block", num_clusters=4),
            ),
            failures=(FailureEvent(ranks=(5,), at_iteration=4),),
        )
        record, _ = run_spec(spec)
        run = RunResult.from_record(record)
        assert run.status == "completed"
        assert run.metric("sim.failures_injected") == 1
        assert run.metric("sim.ranks_rolled_back") == 4

    def test_analytic_jobs_run_through_campaign(self):
        from repro.analysis.table1 import cluster_sweep_spec, table1_specs

        outcome = run_campaign(
            [*table1_specs(["cg"], nprocs=64),
             cluster_sweep_spec("bt", nprocs=64, counts=(2, 4))],
            workers=2,
        )
        table1_run, sweep_run = outcome.results()
        assert table1_run.analysis == "table1-row"
        assert table1_run.data["row"]["benchmark"] == "cg"
        assert table1_run.metric("clustering.num_clusters") == table1_run.data["row"]["num_clusters"]
        assert [row["clusters"] for row in sweep_run.data["rows"]] == [2, 4]

    def test_unknown_analysis_is_rejected(self):
        spec = ScenarioSpec(
            name="bad",
            workload=WorkloadSpec(kind="ring", nprocs=4, iterations=1),
            tags={"analysis": "divination"},
        )
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_spec(spec)

    def test_jsonify_turns_numpy_values_into_python_values(self):
        # jobs.py never imports numpy; once it is loaded, its values still
        # normalise like the Python numbers and lists they stand for.
        import numpy as np

        from repro.campaign.jobs import jsonify

        assert jsonify(np.int64(3)) == 3
        assert type(jsonify(np.int64(3))) is int
        assert jsonify(np.float32(0.5)) == 0.5
        assert type(jsonify(np.float32(0.5))) is float
        assert jsonify(np.arange(3)) == [0, 1, 2]


class TestCampaignCli:
    def test_demo_list_run_cycle(self, tmp_path, capsys):
        specfile = tmp_path / "specs.json"
        storefile = tmp_path / "results.json"
        assert campaign_main(["demo", "--out", str(specfile)]) == 0
        assert campaign_main(["list", str(specfile)]) == 0
        assert campaign_main([
            "run", str(specfile), "--workers", "2", "--store", str(storefile)
        ]) == 0
        out = capsys.readouterr().out
        assert "Campaign" in out
        data = json.loads(storefile.read_text())
        assert len(data["records"]) == 8
        # A second run is served from the cache.
        assert campaign_main(["run", str(specfile), "--store", str(storefile)]) == 0
        out = capsys.readouterr().out
        assert "8 cached" in out


# ----------------------------------------------------------- concurrent saves
def _concurrent_put(path: str, index: int, barrier) -> None:
    """Worker body: open the (shared) store, add one record, save.

    The barrier maximises overlap: every worker loads the store *before* any
    of them saves, which is exactly the read-modify-write race that used to
    drop records under last-writer-wins.
    """
    store = ResultsStore(path)
    store.put(f"hash-{index}", {"name": f"rec-{index}", "result": {"status": "ok"}})
    barrier.wait()
    store.save()


class TestConcurrentWriters:
    def test_concurrent_saves_merge_all_records(self, tmp_path):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        ctx = multiprocessing.get_context("fork")
        path = str(tmp_path / "shared_store.json")
        n_workers = 6
        barrier = ctx.Barrier(n_workers)
        workers = [
            ctx.Process(target=_concurrent_put, args=(path, i, barrier))
            for i in range(n_workers)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        merged = ResultsStore(path)
        assert sorted(merged) == [f"hash-{i}" for i in range(n_workers)]
        for i in range(n_workers):
            assert merged.get(f"hash-{i}")["name"] == f"rec-{i}"

    def test_save_merges_records_written_by_another_process_in_between(self, tmp_path):
        path = str(tmp_path / "store.json")
        first = ResultsStore(path)
        first.put("a", {"name": "a"})
        first.save()
        # Simulate another campaign writing between our load and save.
        mine = ResultsStore(path)
        mine.put("mine", {"name": "mine", "fresh": True})
        other = ResultsStore(path)
        other.put("other", {"name": "other"})
        other.save()
        mine.save()
        merged = ResultsStore(path)
        assert sorted(merged) == ["a", "mine", "other"]
        # Our own record wins on hash collisions.
        collider = ResultsStore(path)
        collider.put("mine", {"name": "mine", "fresh": False})
        collider.save()
        assert ResultsStore(path).get("mine")["fresh"] is False

    def test_clear_then_save_truncates_the_file(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = ResultsStore(path)
        store.put("a", {"name": "a"})
        store.put("b", {"name": "b"})
        store.save()
        store.clear()
        store.save()
        assert len(ResultsStore(path)) == 0
        # Saves after the deliberate truncation merge normally again.
        late = ResultsStore(path)
        late.put("c", {"name": "c"})
        late.save()
        assert sorted(ResultsStore(path)) == ["c"]
