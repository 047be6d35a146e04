"""Smoke test of the observatory: tiny sizes, one repeat, no timing asserted.

Checks that the committed ``BENCHMARK.json`` is the one the package
declares, that ``run --smoke`` and a traced run emit every declared
workload and metric, and that tracing leaves no wrapper behind.
"""

import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.observatory import cli, layers, manifest, measure, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_the_declared_manifest():
    declared = _declared()
    assert declared == manifest.benchmark_json()
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert all(NAME.match(name) for name in names)
    for key in ("workloads", "end_to_end", "per_layer"):
        section = [entry["name"] for entry in declared[key]]
        assert len(section) == len(set(section)), f"duplicate name in {key}"
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_run_smoke_emits_every_workload_and_end_to_end_metric(tmp_path):
    declared = _declared()
    out = tmp_path / "run.json"
    assert cli.main(["run", "--smoke", "--seconds", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(report["workloads"]) == sorted(w["name"] for w in declared["workloads"])
    assert {"commit", "python", "nproc", "compiled_core", "seed", "repeats"} <= set(
        report["environment"])
    assert report["host_calib_s"] > 0
    for name, result in report["workloads"].items():
        assert result["correct"] and result["failed"] == 0, (name, result["problems"])
        assert result["attempted"] >= 1 and result["repeats"] == 1
        assert sorted(result["metrics"]) == sorted(m["name"] for m in declared["end_to_end"])
        for metric in declared["end_to_end"]:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"] and emitted["value"] > 0
    # A result file compares clean against itself.
    assert cli.main(["compare", str(out), str(out)]) == 0


def test_traced_run_emits_every_per_layer_metric_and_leaves_no_wrapper(tmp_path):
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    originals = [(owner, name, vars(owner)[name]) for _layer, owner, name, _kind
                 in layers.boundaries()]
    build = workloads.build
    results = {
        workload.name: measure.per_layer(workload, 11, 0.0, workloads.SMOKE, str(tmp_path),
                                         smoke=True, trace_dir=str(tmp_path))
        for workload in workloads.WORKLOADS
    }
    for name, result in results.items():
        assert result["failed"] == 0, (name, result["problems"])
        emitted = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
        assert emitted == declared
        assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.9
        spans = json.loads((tmp_path / f"trace_{name}.json").read_text(encoding="utf-8"))["spans"]
        assert spans and all(span["end_s"] >= span["start_s"] for span in spans)
    steady = results["exact_steady"]["metrics"]
    assert steady["engine.calls"]["value"] > 0 and steady["topology.calls"]["value"] == 0
    assert results["routed_alltoall"]["metrics"]["topology.calls"]["value"] > 0
    assert results["mc_dense_faults"]["metrics"]["recovery.calls"]["value"] > 0
    assert results["store_query_1k"]["metrics"]["store.calls"]["value"] > 0
    # Every wrapped attribute is the original object again, in the owner and
    # in modules that imported a function by name.
    for owner, name, original in originals:
        assert vars(owner)[name] is original, f"{owner}.{name} still wrapped"
    assert workloads.build is build
