"""No run loads numpy.

numpy is a declared dependency, but only the communication-matrix and
partitioning code needs it (and imports it inside those functions).  Every
run path -- an exact replica of each workload shape, a struck hybrid Monte
Carlo sweep, a campaign into a store and a pivot query over it -- must
complete in a process where importing numpy fails, so that none of them pays
numpy's start-up time and memory.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

_SCRIPT = textwrap.dedent(
    """
    import contextlib, dataclasses, io, json, sys
    sys.modules["numpy"] = None

    from repro.campaign import cli
    from repro.campaign.runner import run_campaign
    from repro.campaign.store import ResultsStore
    from repro.faults.montecarlo import run_montecarlo
    from repro.faults.spec import FaultModelSpec
    from repro.scenarios.build import build
    from repro.scenarios.spec import (
        ClusteringSpec, NetworkSpec, ProtocolSpec, ScenarioSpec, TopologySpec, WorkloadSpec,
    )

    def spec(kind, iterations, interval, protocol="hydee", topology=None, fault=None):
        clustering = (ClusteringSpec(method="block", num_clusters=4)
                      if protocol == "hydee" else ClusteringSpec())
        return ScenarioSpec(
            name=f"no-numpy-{kind}-{protocol}",
            workload=WorkloadSpec(kind=kind, nprocs=16, iterations=iterations),
            protocol=ProtocolSpec(name=protocol, clustering=clustering,
                                  options={"checkpoint_interval": interval}),
            network=NetworkSpec(topology=topology),
            fault_model=fault,
        )

    hierarchical = TopologySpec(preset="hierarchical", params={
        "ranks_per_node": 2, "nodes_per_cluster": 2, "oversubscription": 8})
    for exact in (spec("stencil2d", 16, 8), spec("pipeline", 8, 1),
                  spec("ft", 4, 2, topology=hierarchical)):
        result = build(exact).run()
        assert result.status == "completed", (exact.name, result.status)

    for protocol in ("hydee", "coordinated"):
        base = spec("stencil2d", 24, 4, protocol=protocol)
        makespan = build(base).run().makespan
        fault = FaultModelSpec(distribution="exponential", seed=5,
                               params={"mtbf_s": 4 * makespan}, horizon_s=makespan,
                               max_failures=1)
        sweep = run_montecarlo(dataclasses.replace(base, fault_model=fault), replicas=4,
                               execution="hybrid")
        assert sweep.completed_replicas == 4, (protocol, [r.status for r in sweep.runs])
        failures = sum(r.metrics.to_tree()["sim"]["failures_injected"] for r in sweep.runs)
        assert failures > 0, protocol

    path = sys.argv[1]
    specs = [ScenarioSpec(name=f"no-numpy-ring-{i}",
                          workload=WorkloadSpec(kind="ring", nprocs=4, iterations=i + 1),
                          tags={"row": f"r{i // 2}", "col": f"c{i % 2}"})
             for i in range(4)]
    assert run_campaign(specs, store=ResultsStore(path)).executed == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["query", path, "--pivot", "tags.row", "tags.col", "sim.makespan",
                         "--format", "json"])
    assert code == 0, code
    assert len(json.loads(out.getvalue())) == 2, out.getvalue()
    assert "numpy" not in sys.modules or sys.modules["numpy"] is None
    """
)


def test_every_run_path_completes_without_numpy(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path / "store.json")], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
