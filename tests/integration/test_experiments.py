"""Integration tests for the experiment registry: the paper claims each
entry reproduces (Table I, Figures 5-6, containment, ablations) and the
registry contract every entry honours (derived flags, report, checks)."""

import inspect
import json
import os

import pytest

from repro.analysis import analytic_pingpong_series, by_config
from repro.clustering.presets import TABLE1_PAPER_VALUES
from repro.experiments import EXPERIMENTS, main, run


def render(name, result, **params):
    return EXPERIMENTS[name].render(result, params)


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return run("table1", nprocs=256)

    def test_all_six_benchmarks_present(self, rows):
        assert sorted(r.benchmark for r in rows) == ["bt", "cg", "ft", "lu", "mg", "sp"]

    def test_cluster_counts_match_paper(self, rows):
        for row in rows:
            assert row.num_clusters == TABLE1_PAPER_VALUES[row.benchmark]["clusters"]

    def test_rollback_fraction_close_to_paper(self, rows):
        for row in rows:
            paper = TABLE1_PAPER_VALUES[row.benchmark]["rollback_pct"]
            assert row.rollback_pct == pytest.approx(paper, abs=6.0), row.benchmark

    def test_logged_fraction_close_to_paper(self, rows):
        for row in rows:
            paper = TABLE1_PAPER_VALUES[row.benchmark]["logged_pct"]
            assert row.logged_pct == pytest.approx(paper, abs=8.0), row.benchmark

    def test_ft_is_the_outlier_as_in_the_paper(self, rows):
        by_name = {r.benchmark: r for r in rows}
        assert by_name["ft"].logged_pct > 40
        assert all(by_name[b].logged_pct < 30 for b in ("bt", "cg", "lu", "mg", "sp"))

    def test_total_volumes_same_order_of_magnitude_as_paper(self, rows):
        for row in rows:
            paper_total = TABLE1_PAPER_VALUES[row.benchmark]["total_gb"]
            assert 0.5 * paper_total <= row.total_gb <= 2.0 * paper_total, row.benchmark

    def test_render_table(self, rows):
        text = render("table1", rows)
        assert "BT" in text and "paper" in text.lower()


class TestFigure5:
    @pytest.fixture(scope="class")
    def rows(self):
        sizes = [1, 16, 32, 64, 512, 4096, 65536, 1 << 20]
        return run("figure5", sizes=sizes, repeats=2)

    def test_hydee_never_faster_than_native(self, rows):
        for column in ("lat_no_log_pct", "lat_log_pct", "bw_no_log_pct", "bw_log_pct"):
            assert all(row[column] <= 1e-9 for row in rows)

    def test_overhead_small_and_vanishes_for_large_messages(self, rows):
        degradation = [row.lat_log_pct for row in rows]
        assert degradation[-1] > -2.5          # >= 64 KiB: almost no overhead
        assert min(degradation) > -45.0        # worst case bounded (peaks of Fig. 5)

    def test_logging_and_no_logging_nearly_equivalent(self, rows):
        """Section V-C: sender-based logging itself is invisible."""
        for row in rows:
            assert abs(row.lat_log_pct - row.lat_no_log_pct) < 5.0

    def test_piggyback_peak_exists_at_plateau_crossing(self, rows):
        by_size = {row.bytes: row.lat_no_log_pct for row in rows}
        # 32 B + 12 piggybacked bytes crosses the first MX latency plateau.
        assert by_size[32] < by_size[1] - 5.0

    def test_simulation_matches_analytic_model(self, rows):
        model = analytic_pingpong_series(sizes=[row.bytes for row in rows])
        predicted = model["latency_reduction_logging_pct"]
        for row, model_v in zip(rows, predicted):
            assert row.lat_log_pct == pytest.approx(model_v, abs=3.0)

    def test_text_rendering(self, rows):
        assert "Figure 5" in render("figure5", rows)


class TestFigure6:
    @pytest.fixture(scope="class")
    def rows(self):
        return run("figure6", benchmarks=["lu", "mg"], nprocs=16, iterations=2)

    def test_normalized_times_shape(self, rows):
        for benchmark in ("lu", "mg"):
            configs = by_config(rows, benchmark)
            assert configs["native"].normalized == pytest.approx(1.0)
            assert 1.0 < configs["hydee"].normalized < 1.08
            assert configs["hydee"].normalized <= configs["message_logging"].normalized + 1e-6

    def test_hydee_logs_less_than_message_logging(self, rows):
        for benchmark in ("lu", "mg"):
            configs = by_config(rows, benchmark)
            assert configs["hydee"].logged_fraction < configs["message_logging"].logged_fraction
            assert configs["message_logging"].logged_fraction == pytest.approx(1.0)

    def test_render(self, rows):
        text = render("figure6", rows)
        assert "Figure 6" in text and "LU" in text


class TestContainmentExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        return run("recovery-containment", nprocs=16, iterations=6, fail_at_iteration=4)

    def test_all_protocols_recover_correctly(self, rows):
        assert all(row.results_match_reference for row in rows)
        assert all(row.send_sequences_match for row in rows)

    def test_rollback_ordering(self, rows):
        by_name = {row.protocol: row for row in rows}
        assert by_name["message-logging"].ranks_rolled_back == 1
        assert by_name["hydee"].ranks_rolled_back == 4
        assert by_name["coordinated"].ranks_rolled_back == 16

    def test_hydee_replays_and_suppresses(self, rows):
        hydee = next(row for row in rows if row.protocol == "hydee")
        assert hydee.replayed_messages > 0
        assert hydee.suppressed_orphans > 0

    def test_render(self, rows):
        assert "protocol" in render("recovery-containment", rows)


class TestAblations:
    def test_piggyback_ablation_policies_ordering(self):
        rows = run("ablation-piggyback", sizes=[16, 64, 2048, 65536])
        for row in rows:
            assert row["none_pct"] == pytest.approx(0.0, abs=1e-9)
            assert row["inline-small-separate-large_pct"] >= 0.0
            # logging adds a bounded extra cost
            assert 0.0 <= row["logging_extra_pct"] < 10.0

    def test_cluster_sweep_frontier(self):
        rows = run("ablation-clusters", benchmark="bt", nprocs=64, counts=[2, 4, 8])
        rollbacks = [row["rollback_pct"] for row in rows]
        assert rollbacks == sorted(rollbacks, reverse=True)
        assert all(0 <= row["logged_pct"] <= 100 for row in rows)


#: Every entry at its smallest size (the timed ones far below benchmark size).
SMALL = {
    "table1": dict(nprocs=64, benchmarks=["bt", "cg"]),
    "figure5": dict(sizes=[1, 32, 65536], repeats=1),
    "figure6": dict(benchmarks=["lu"], nprocs=16),
    "recovery-containment": dict(nprocs=16, iterations=6, fail_at_iteration=4),
    "congestion-recovery": dict(oversubscription=[1.0, 8.0]),
    "efficiency-mtbf": dict(mtbf_factors=[8.0], replicas=6),
    "ablation-piggyback": dict(sizes=[16, 2048]),
    "ablation-clusters": dict(nprocs=64, counts=[2, 4, 8]),
    "hybrid": dict(iterations=200, replicas=3),
    "ff-coverage": dict(iterations=40),
}

#: The report fields CI reads, as dotted paths.
REPORT_FIELDS = {
    "hybrid": ["exact.replica_sims_per_s", "hybrid.replica_sims_per_s", "speedup",
               "makespan_mean_rel_err", "replicas"],
    "ff-coverage": ["workloads_fast_forwarding", "workloads_swept",
                    "workloads.stencil2d.fallback", "cells_swept", "cells_batching.cached",
                    "workloads.stencil2d.cells.coordinated/4.cached.batched_iterations",
                    "workloads.ring.cells.hydee/8.cached.probe_mismatch",
                    "workloads.stencil2d.cells.hydee/4.cached.line_mismatch",
                    "workloads.stencil2d.cells.hydee/4.cached.line_commits",
                    "workloads.stencil2d.cells.hydee/4.cached.ff_checkpoints",
                    "checks.cached_start_batches_wherever_self_calibrated_does",
                    "checks.long_batched_spans_commit_one_line"],
    "efficiency-mtbf": ["replica_sims", "replicas_per_s", "containment_holds"],
}

CAMPAIGN_BACKED = [
    name for name, entry in EXPERIMENTS.items()
    if "workers" in inspect.signature(entry.run).parameters
]


def _argv(params):
    argv = []
    for key, value in params.items():
        values = value if isinstance(value, list) else [value]
        argv += ["--" + key.replace("_", "-"), *map(str, values)]
    return argv


def _plain(value):
    return list(value) if isinstance(value, (list, tuple)) else value


class TestRegistryContract:
    def test_every_entry_has_a_small_size(self):
        assert sorted(SMALL) == sorted(EXPERIMENTS)
        # Only the self-timed entries are outside the campaign runner's reach.
        assert set(EXPERIMENTS) - set(CAMPAIGN_BACKED) == {"hybrid", "ff-coverage"}

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_flags_are_the_run_signature(self, name):
        import argparse

        from repro.experiments.runner import add_flags

        entry = EXPERIMENTS[name]
        parser = argparse.ArgumentParser()
        add_flags(parser, entry.run)
        parameters = inspect.signature(entry.run).parameters
        defaults = vars(parser.parse_args([]))
        assert list(defaults) == list(parameters)
        for key, parameter in parameters.items():
            assert _plain(defaults[key]) == _plain(parameter.default), key
        # Every parameter is reachable from the command line.
        reached = vars(parser.parse_args(_argv(SMALL[name])))
        for key, value in SMALL[name].items():
            assert reached[key] == value, key
        assert entry.title and entry.artefact

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_report_mode_times_checks_and_writes(self, name, tmp_path, capsys):
        assert main([name, *_argv(SMALL[name]), "--report", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip()  # render returned text
        with open(tmp_path / f"BENCH_{name.replace('-', '_')}.json") as fh:
            report = json.load(fh)
        assert isinstance(report, dict) and report["elapsed_s"] >= 0
        assert report["checks"] and all(report["checks"].values()), report["checks"]
        for path in REPORT_FIELDS.get(name, ()):
            value = report
            for key in path.split("."):
                value = value[key]
            assert value is not None, path

    @pytest.mark.parametrize("name", CAMPAIGN_BACKED)
    def test_workers_do_not_change_the_rows(self, name):
        serial = run(name, **SMALL[name])
        parallel = run(name, **SMALL[name], workers=2)
        assert [dict(row) for row in parallel] == [dict(row) for row in serial]

    def test_a_false_check_exits_1(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        failing = dataclasses.replace(
            EXPERIMENTS["ablation-piggyback"], checks=lambda rows: {"never": False}
        )
        monkeypatch.setitem(EXPERIMENTS, "ablation-piggyback", failing)
        assert main(["ablation-piggyback", "--sizes", "16", "--report", str(tmp_path)]) == 1
        assert "failed checks: never" in capsys.readouterr().err

    def test_list_prints_one_entry_per_line_name_first(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(EXPERIMENTS)
        # README quotes the registry, it does not restate it.
        readme = os.path.join(os.path.dirname(__file__), "..", "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            quoted = fh.read().splitlines()
        assert all(line in quoted for line in lines)

    def test_help_shows_the_entry_docstring(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["congestion-recovery", "--help"])
        assert exit_info.value.code == 0
        assert "oversubscribed" in capsys.readouterr().out


class TestErrorPaths:
    """User errors get a one-line ``repro-experiment: error:`` and exit 2."""

    def _one_line_error(self, capsys):
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-experiment: error: ")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err

    def test_store_of_an_unsupported_version(self, tmp_path, capsys):
        store = tmp_path / "v1.json"
        store.write_text('{"version": 1, "records": {}}')
        assert main(["table1", "--nprocs", "16", "--store", str(store)]) == 2
        self._one_line_error(capsys)

    def test_store_that_is_not_json(self, tmp_path, capsys):
        store = tmp_path / "notes.txt"
        store.write_text("not a results store")
        assert main(["ablation-clusters", "--store", str(store)]) == 2
        self._one_line_error(capsys)

    def test_unknown_benchmark_name(self, capsys):
        assert main(["table1", "--benchmarks", "nosuch"]) == 2
        self._one_line_error(capsys)

    def test_bare_invocation_prints_usage_to_stderr(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: repro-experiment") and not captured.out
