"""Unit tests for the repro.results subsystem: metric trees, run results,
table schemas and the protocol duplicate-metric detection."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.results import (
    Column,
    MetricSet,
    RunResult,
    TableSchema,
    make_payload,
    pivot_rows,
    units_for,
)


class TestMetricSet:
    def test_set_get_roundtrip(self):
        m = MetricSet()
        m.set("sim.makespan", 1.5)
        m.set("protocol.name", "hydee")
        m.set("links.tiers.inter-cluster.bytes", 1024)
        assert m.get("sim.makespan") == 1.5
        assert m.get("links.tiers.inter-cluster.bytes") == 1024
        assert m.get("missing.path", 42) == 42

    def test_mapping_values_flatten(self):
        m = MetricSet()
        m.set("network.topology", {"nodes": 4, "clusters": 2})
        assert m.get("network.topology.nodes") == 4
        # a namespace lookup returns the nested dict
        assert m.get("network.topology") == {"nodes": 4, "clusters": 2}

    def test_duplicate_metric_raises(self):
        m = MetricSet()
        m.set("protocol.recoveries", 1)
        with pytest.raises(ConfigurationError, match="duplicate"):
            m.set("protocol.recoveries", 2)

    def test_leaf_namespace_conflicts_raise(self):
        m = MetricSet()
        m.set("sim.makespan", 1.0)
        with pytest.raises(ConfigurationError):
            m.set("sim.makespan.seconds", 1.0)     # leaf used as namespace
        m2 = MetricSet()
        m2.set("links.tiers.inter", 1)
        with pytest.raises(ConfigurationError):
            m2.set("links.tiers", 2)               # namespace used as leaf

    def test_empty_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="empty mapping"):
            MetricSet().set("links.tiers", {})

    def test_invalid_paths_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricSet().set("", 1)
        with pytest.raises(ConfigurationError):
            MetricSet().set("sim..makespan", 1)

    def test_tree_roundtrip_is_strict(self):
        m = MetricSet()
        m.set("sim.makespan", 2.0)
        m.set("sim.app_messages", 7)
        m.set("protocol.rollback_events", [{"time": 0.1}])
        tree = m.to_tree()
        assert MetricSet.from_tree(tree) == m
        # tree form is what JSON stores: survive a JSON cycle too
        assert MetricSet.from_tree(json.loads(json.dumps(tree))) == m

    def test_items_sorted_and_subset(self):
        m = MetricSet({"b.y": 1, "a.x": 2, "b.z": 3})
        assert [path for path, _ in m.items()] == ["a.x", "b.y", "b.z"]
        assert [path for path, _ in m.subset("b").items()] == ["b.y", "b.z"]

    def test_merge_detects_cross_namespace_duplicates(self):
        a = MetricSet({"protocol.name": "x"})
        b = MetricSet({"protocol.name": "y"})
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_units_catalog(self):
        assert units_for("sim.makespan") == "s"
        assert units_for("protocol.logged_bytes") == "B"
        assert units_for("clustering.rollback_pct") == "%"
        assert units_for("protocol.name") is None
        m = MetricSet({"sim.makespan": 1.0})
        (metric,) = m.metrics()
        assert metric.units == "s" and metric.namespace == "sim"


class TestRunResult:
    def record(self):
        return {
            "name": "r1",
            "analysis": "simulate",
            "spec_hash": "abc123",
            "spec": {
                "name": "r1",
                "workload": {"kind": "ring", "nprocs": 4},
                "protocol": {"name": "hydee"},
                "tags": {"experiment": "e2e", "benchmark": "cg"},
            },
            "result": make_payload(
                "completed",
                MetricSet({"sim.makespan": 0.5, "protocol.name": "hydee"}),
                {"rank_states": {"0": "done"}},
            ),
        }

    def test_record_roundtrip(self):
        record = self.record()
        run = RunResult.from_record(record)
        assert run.to_record() == record
        assert run.completed
        assert run.metric("sim.makespan") == 0.5
        assert run.data["rank_states"] == {"0": "done"}

    def test_field_resolution_order(self):
        run = RunResult.from_record(self.record())
        assert run.field("protocol") == "hydee"          # alias -> spec
        assert run.field("workload") == "ring"
        assert run.field("nprocs") == 4
        assert run.field("tags.benchmark") == "cg"
        assert run.field("sim.makespan") == 0.5          # metric fallback
        assert run.field("status") == "completed"
        assert run.field("nope.nope", "dflt") == "dflt"

    @pytest.mark.parametrize("metrics, error", [
        ({"sim": {"makespan": 0.5}, "links": {}}, "empty mappings"),
        ({"sim": {"makespan": 0.5}, "sim.makespan": 1.0}, "duplicate metric name"),
        ({"sim.": 1.0}, "empty segment"),
    ])
    def test_malformed_stored_tree_raises_at_from_store(self, tmp_path, metrics, error):
        from repro.campaign.store import ResultsStore
        from repro.results import ResultSet

        path = str(tmp_path / "store.json")
        store = ResultsStore(path)
        good, bad = self.record(), self.record()
        bad["spec_hash"] = "bad"
        bad["result"]["metrics"] = metrics
        store.put(good["spec_hash"], good)
        store.put("bad", bad)
        store.save()
        with pytest.raises(ConfigurationError, match=error):
            ResultSet.from_store(path)

    def test_a_dotted_key_that_collides_with_nothing_loads_as_before(self):
        record = self.record()
        record["result"]["metrics"] = {"sim": {"makespan": 0.5}, "links.bytes": 7}
        run = RunResult.from_record(record)
        assert run.metrics == MetricSet.from_tree(record["result"]["metrics"])
        assert run.metric("links.bytes") == 7 and run.metric("links") == {"bytes": 7}

    def test_kept_tree_is_read_not_written(self):
        record = self.record()
        tree = record["result"]["metrics"]
        snapshot = json.dumps(tree, sort_keys=True)
        run = RunResult.from_record(record)
        assert run.metric("sim.makespan") == 0.5
        assert run.metric("sim") == {"makespan": 0.5}
        assert run.metric("sim.makespan.x", "d") == "d" and run.metric("sim.", "d") == "d"
        run.metrics.set("sim.extra", 1)
        assert run.metric("sim.extra") == 1
        assert json.dumps(tree, sort_keys=True) == snapshot

    def test_v1_record_rejected_when_strict(self):
        bad = self.record()
        bad["result"] = {"status": "completed", "stats": {}}
        with pytest.raises(ConfigurationError, match="v2"):
            RunResult.from_record(bad)
        lenient = RunResult.from_record(bad, strict=False)
        assert lenient.status == "completed"
        assert len(lenient.metrics) == 0


class TestTableSchema:
    def schema(self):
        return TableSchema(
            "unit-test-table",
            columns=(
                Column("name", "str", display=str.upper),
                Column("count", "int"),
                Column("ratio", "float", scale=100.0, format=".1f", header="pct"),
                Column("note", "str", optional=True),
            ),
            title="unit test table",
        )

    def test_row_validation_and_order(self):
        schema = self.schema()
        row = schema.row(ratio=0.25, name="a", count=3)
        assert list(row) == ["name", "count", "ratio", "note"]
        assert row.name == "a" and row["count"] == 3 and row.note is None
        assert row.to_dict() == {"name": "a", "count": 3, "ratio": 0.25, "note": None}

    def test_dtype_and_missing_errors(self):
        schema = self.schema()
        with pytest.raises(ConfigurationError, match="expects int"):
            schema.row(name="a", count=1.5, ratio=0.1)
        with pytest.raises(ConfigurationError, match="required"):
            schema.row(name="a", ratio=0.1)
        with pytest.raises(ConfigurationError, match="unknown column"):
            schema.row(name="a", count=1, ratio=0.1, bogus=1)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate column"):
            TableSchema("t", columns=(Column("x"), Column("x")))

    def test_render_text_scales_and_formats(self):
        schema = self.schema()
        text = schema.render_text([schema.row(name="a", count=3, ratio=0.25)])
        assert "unit test table" in text
        assert "pct" in text          # header override
        assert "25.0" in text         # 0.25 scaled by 100, .1f
        assert "A" in text            # display transform
        assert "-" in text            # optional None renders as dash

    def test_render_csv_and_json_keep_raw_values(self):
        schema = self.schema()
        rows = [schema.row(name="a", count=3, ratio=0.25)]
        csv_text = schema.render_csv(rows)
        assert csv_text.splitlines()[0] == "name,count,ratio,note"
        assert "0.25" in csv_text
        parsed = json.loads(schema.render_json(rows))
        assert parsed == [{"name": "a", "count": 3, "ratio": 0.25, "note": None}]

    def test_plain_rows_render_aligned(self):
        rows = [{"a": 1, "bee": 2.5}, {"a": "xx", "bee": 0.001}]
        lines = TableSchema.of_rows(rows).render_text(rows).splitlines()
        assert lines == [
            "a  | bee  ",
            "---+------",
            "1  | 2.50 ",
            "xx | 0.001",
        ]

    def test_plain_rows_take_their_columns_from_the_keys(self):
        # Columns in first-seen key order; a cell a row lacks is blank, a
        # None cell shows as is; CSV writes raw values.
        rows = [{"z": 3, "x": 1}, {"x": None, "y": [1, 2]}]
        schema = TableSchema.of_rows(rows, title="plain")
        assert schema.column_names == ["z", "x", "y"]
        assert schema.render_text(rows).splitlines() == [
            "plain",
            "z | x    | y     ",
            "--+------+-------",
            "3 | 1    |       ",
            "  | None | [1, 2]",
        ]
        assert schema.render_csv(rows) == 'z,x,y\n3,1,\n,,"[1, 2]"\n'

    def test_pivot_rows(self):
        rows = [
            {"bench": "cg", "config": "native", "norm": 1.0},
            {"bench": "cg", "config": "hydee", "norm": 1.01},
            {"bench": "lu", "config": "native", "norm": 1.0},
        ]
        pivoted = pivot_rows(rows, index="bench", columns="config", values="norm")
        assert pivoted[0] == {"bench": "cg", "native": 1.0, "hydee": 1.01}


class TestProtocolMetricCollisions:
    def test_subclass_duplicate_metric_raises(self):
        """Satellite: a protocol re-publishing a ProtocolStatistics counter
        name must fail loudly instead of silently colliding."""
        from repro.ftprotocols.coordinated import CoordinatedCheckpointProtocol
        from repro.simulator.protocol_api import add_metric

        class Shadowing(CoordinatedCheckpointProtocol):
            def extra_metrics(self):
                info = super().extra_metrics()
                # "rollbacks" is already a ProtocolStatistics counter.
                add_metric(info, "rollbacks", -1)
                return info

        with pytest.raises(ConfigurationError, match="duplicate protocol metric"):
            Shadowing().metrics()
