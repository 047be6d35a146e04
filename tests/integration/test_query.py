"""Integration tests for the results query layer and the store format:

* store files of any version other than the current one (version-1 files
  of early builds included) fail with a clear error,
* where/select/pivot are deterministic (serial vs --workers N stores are
  byte-identical and query output over them matches),
* spec hashes of every preset scenario are pinned to their pre-redesign
  values (cache keys must survive the results API redesign),
* the ``repro-campaign query`` CLI reproduces the Table I summary from a
  store file.
"""

import json
import os

import pytest

from repro.campaign import ResultsStore, run_campaign
from repro.campaign.cli import main as campaign_main
from repro.campaign.store import STORE_VERSION
from repro.errors import ConfigurationError
from repro.results import ResultSet

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")
PINNED_HASHES = os.path.join(DATA_DIR, "pinned_spec_hashes.json")


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class TestStoreVersion:
    def test_version1_store_rejected(self, tmp_path):
        """Early builds wrote no ``version`` field; such files are version 1
        and are no longer read (the migrator is gone)."""
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"records": {}}))
        with pytest.raises(
            ValueError,
            match=rf"unsupported results-store version 1; .* version {STORE_VERSION} only",
        ):
            ResultsStore(str(path))

    def test_unknown_store_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"version": 99, "records": {}}))
        with pytest.raises(ValueError, match="unsupported results-store version"):
            ResultsStore(str(path))

    def test_not_a_store_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a campaign results store"):
            ResultsStore(str(path))


class TestPinnedSpecHashes:
    def test_preset_scenario_hashes_unchanged(self):
        """Cache keys must be byte-identical to their pre-redesign values."""
        from repro.analysis.congestion import congestion_specs
        from repro.analysis.containment import containment_specs
        from repro.analysis.netpipe_analysis import netpipe_specs
        from repro.analysis.overhead import figure6_specs
        from repro.analysis.perf_model import piggyback_spec
        from repro.analysis.table1 import cluster_sweep_spec, table1_specs
        from repro.workloads.nas import NAS_BENCHMARKS

        with open(PINNED_HASHES, encoding="utf-8") as fh:
            pinned = json.load(fh)

        current = {}
        for spec in table1_specs():
            current[f"table1:{spec.tags['benchmark']}"] = spec.spec_hash()
        for name in sorted(NAS_BENCHMARKS):
            current[f"cluster-sweep:{name}"] = cluster_sweep_spec(name).spec_hash()
        for spec in netpipe_specs():
            current[spec.name] = spec.spec_hash()
        for spec in figure6_specs():
            current[spec.name] = spec.spec_hash()
        for spec in containment_specs():
            current[spec.name] = spec.spec_hash()
        for spec in congestion_specs():
            current[spec.name] = spec.spec_hash()
        current[piggyback_spec().name] = piggyback_spec().spec_hash()

        assert current == pinned


@pytest.fixture(scope="module")
def small_campaign(tmp_path_factory):
    """A small mixed campaign run serially and with workers into stores."""
    from repro.analysis.table1 import table1_specs
    from repro.scenarios import ScenarioSpec, WorkloadSpec, sweep

    base = ScenarioSpec(
        name="query-grid",
        workload=WorkloadSpec(kind="stencil2d", nprocs=8, iterations=3),
    )
    specs = sweep(
        base,
        {
            "workload.kind": ["stencil2d", "ring"],
            "protocol.name": ["none", "hydee-log-all"],
        },
    ) + table1_specs(["cg"], nprocs=64)
    tmp = tmp_path_factory.mktemp("query-stores")
    serial_store = ResultsStore(str(tmp / "serial.json"))
    parallel_store = ResultsStore(str(tmp / "parallel.json"))
    run_campaign(specs, workers=1, store=serial_store)
    run_campaign(specs, workers=2, store=parallel_store)
    return tmp


class TestQueryDeterminism:
    def test_serial_and_parallel_v2_stores_byte_identical(self, small_campaign):
        serial = (small_campaign / "serial.json").read_bytes()
        parallel = (small_campaign / "parallel.json").read_bytes()
        assert serial == parallel
        assert json.loads(serial)["version"] == STORE_VERSION

    def test_where_select_pivot_identical_across_stores(self, small_campaign):
        serial = ResultSet.from_store(str(small_campaign / "serial.json"))
        parallel = ResultSet.from_store(str(small_campaign / "parallel.json"))
        for resultset in (serial, parallel):
            assert len(resultset) == 5
        assert canonical(serial.select("name", "sim.makespan")) == \
            canonical(parallel.select("name", "sim.makespan"))
        assert canonical(serial.pivot("workload", "protocol", "sim.makespan")) == \
            canonical(parallel.pivot("workload", "protocol", "sim.makespan"))

    def test_where_filters_on_spec_fields_and_metrics(self, small_campaign):
        resultset = ResultSet.from_store(str(small_campaign / "serial.json"))
        assert len(resultset.where(workload="ring")) == 2
        assert len(resultset.where(protocol="hydee-log-all")) == 2
        assert len(resultset.where(workload="ring", protocol="none")) == 1
        assert len(resultset.where(**{"sim.failures_injected": 0})) == 4
        assert len(resultset.where(analysis="table1-row")) == 1
        assert len(resultset.where(workload="no-such-workload")) == 0

    def test_overhead_vs_and_speedup(self, small_campaign):
        resultset = ResultSet.from_store(str(small_campaign / "serial.json"))
        sims = resultset.where(analysis="simulate")
        pairs = sims.overhead_vs(
            metric="sim.makespan", index=("workload.kind",), protocol="none"
        )
        ratios = {(run.field("workload"), run.field("protocol")): ratio
                  for run, ratio in pairs}
        assert ratios[("stencil2d", "none")] == 1.0
        assert ratios[("stencil2d", "hydee-log-all")] > 1.0
        speedups = dict(
            (run.name, v) for run, v in sims.speedup(
                metric="sim.makespan", index=("workload.kind",), protocol="none"
            )
        )
        for (workload, protocol), ratio in ratios.items():
            if protocol == "hydee-log-all":
                assert any(abs(v - 1.0 / ratio) < 1e-12 for v in speedups.values())

    def test_missing_baseline_is_an_error(self, small_campaign):
        resultset = ResultSet.from_store(str(small_campaign / "serial.json"))
        with pytest.raises(ConfigurationError, match="no baseline"):
            resultset.overhead_vs(metric="sim.makespan", protocol="coordinated")


@pytest.fixture(scope="module")
def analysis_store(tmp_path_factory):
    """A store holding one Table I row and one congestion grid column."""
    from repro.analysis.congestion import congestion_specs
    from repro.analysis.table1 import table1_specs

    specs = table1_specs(["cg"], nprocs=64) + congestion_specs(oversubscription=(2.0,))
    path = tmp_path_factory.mktemp("query-cli") / "store.json"
    run_campaign(specs, workers=1, store=ResultsStore(str(path)))
    return str(path)


class TestQueryCli:
    def test_table1_summary_from_store(self, analysis_store, capsys):
        """Acceptance: the CLI reproduces Table I from a store file."""
        assert campaign_main(["query", analysis_store, "--table", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "CG" in out

    def test_where_select_and_formats(self, analysis_store, capsys):
        assert campaign_main([
            "query", analysis_store, "--where", "tags.experiment=congestion-recovery",
            "--select", "name", "sim.makespan", "--format", "json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4
        assert all(isinstance(r["sim.makespan"], float) for r in rows)
        assert campaign_main([
            "query", analysis_store, "--table", "congestion", "--format", "csv",
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("protocol,oversubscription")

    def test_version1_store_errors_cleanly(self, tmp_path, capsys):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"records": {}}))
        assert campaign_main(["query", str(path)]) == 2
        assert "unsupported results-store version 1" in capsys.readouterr().err

    def test_unknown_table_errors_cleanly(self, analysis_store, capsys):
        assert campaign_main(["query", analysis_store, "--table", "nope"]) == 2
        assert "unknown table" in capsys.readouterr().err


class TestTableIndex:
    """``repro.analysis.TABLES`` is the one list of tables the CLI and the
    experiment registry name."""

    def test_list_tables_prints_the_index(self, capsys):
        from repro.analysis import TABLES

        assert campaign_main(["query", "--list-tables"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == sorted(TABLES)
        for line in lines:
            schema = TABLES[line.split()[0]]
            assert schema.title in line
            assert line.endswith("(live-only)") == (schema.rows is None)

    def test_every_campaign_backed_experiment_names_an_indexed_schema(self):
        import inspect

        from repro.analysis import TABLES
        from repro.experiments import EXPERIMENTS

        backed = [
            entry for entry in EXPERIMENTS.values()
            if "workers" in inspect.signature(entry.run).parameters
        ]
        assert backed
        for entry in backed:
            assert entry.table is not None, entry.name
            assert TABLES[entry.table.name] is entry.table, entry.name

    def test_a_live_only_table_fails_with_one_error_line(self, analysis_store, capsys):
        assert campaign_main(["query", analysis_store, "--table", "containment"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("repro-campaign: error: ")
        assert len(captured.err.splitlines()) == 1 and "live" in captured.err


class TestNetpipeTableFromStore:
    def test_a_store_without_figure5_runs_prints_the_empty_table(self, analysis_store, capsys):
        query = ["query", analysis_store, "--table", "netpipe", "--format", "csv"]
        assert campaign_main(query) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().splitlines() == [
            "bytes,lat_no_log_pct,lat_log_pct,bw_no_log_pct,bw_log_pct"
        ]
        assert not captured.err

    def test_a_partial_sweep_names_the_missing_series(self, tmp_path, capsys):
        from repro.analysis.netpipe_analysis import netpipe_specs

        path = str(tmp_path / "store.json")
        partial = [
            spec for spec in netpipe_specs(sizes=[1, 32])
            if spec.name != "figure5:hydee_logging"
        ]
        run_campaign(partial, workers=1, store=ResultsStore(path))
        assert campaign_main(["query", path, "--table", "netpipe"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("repro-campaign: error: ")
        assert len(captured.err.splitlines()) == 1 and "hydee_logging" in captured.err
