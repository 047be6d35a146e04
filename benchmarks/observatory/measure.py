"""Measure one workload in this process: end to end, or traced layer by layer.

End-to-end run (tracing off): set-up several times, then timed repeats of
the body for the requested seconds, ``gc.collect()`` before each, outputs
checked after each (outside the clock).

**Host-speed normalisation.**  The sandbox this was built on slows down by
1.2-1.6x for seconds to minutes at a time (neighbours on the same core and
cache; CPU time slows with wall time).  Over 12 s windows of one commit the
best repeat then spreads 30 % and the median 34 %.  So a fixed pure-Python
calibration loop is timed right before and right after every repeat, each
repeat's time is divided by ``calibration / CALIBRATION_REF_S``, and the
reported value is the median of those normalised times: seconds as the
quiet reference host would read them.  On the same recorded series that
spreads 7 % through a two-minute slow period and 3.5 % on a quiet host.
The calibration loop shares no code with the program, so the ratio moves
only when the program's cost moves.  Raw samples are kept beside the
normalised ones.
"""

import gc
import json
import os
import statistics
from typing import Any, Callable, Dict, List, Optional

from . import manifest
from .clock import CALIBRATION_REF_S, calibration_s, clock, cpu_clock, peak_rss_mib
from .layers import LAYERS, Tracer
from .rungs import run_ladder
from .workloads import Sizes, Verdict

SETUP_REPEATS = 3
MIN_REPEATS = 5


def _metric(name: str, value: float) -> Dict[str, Any]:
    return {"value": value, "unit": manifest.unit_of(name)}


def _calibrated(run: Callable[[], Any]) -> Dict[str, Any]:
    """Time ``run`` between two calibration loops; wall and CPU, raw and normalised."""
    before = calibration_s()
    cpu_started, started = cpu_clock(), clock()
    outcome = run()
    wall_s, cpu_s = clock() - started, cpu_clock() - cpu_started
    slowdown = (before + calibration_s()) / 2.0 / CALIBRATION_REF_S
    return {"outcome": outcome, "slowdown": slowdown, "raw_wall_s": wall_s,
            "wall_s": wall_s / slowdown, "cpu_s": cpu_s / slowdown}


def _timed_repeats(
    workload: Any, ctx: Dict[str, Any], seconds: float, at_least: int,
    run: Callable[[Callable[[], Any]], Any],
) -> List[Dict[str, Any]]:
    """Repeat the body until ``seconds`` have passed; one record per repeat."""
    repeats: List[Dict[str, Any]] = []
    deadline = clock() + seconds
    while len(repeats) < at_least or clock() < deadline:
        workload.prepare(ctx)
        gc.collect()
        repeat = _calibrated(lambda: run(lambda: workload.body(ctx)))
        repeat["verdict"] = workload.check(ctx, repeat.pop("outcome"))
        repeats.append(repeat)
    return repeats


def _samples(repeats: List[Dict[str, Any]], key: str) -> List[float]:
    return [repeat[key] for repeat in repeats]


def _operations(repeats: List[Dict[str, Any]]) -> Dict[str, Any]:
    verdicts: List[Verdict] = [r["verdict"] for r in repeats]
    digests = sorted({v.sim_digest for v in verdicts})
    problems = sorted({p for v in verdicts for p in v.problems})
    failed = sum(v.failed for v in verdicts)
    if len(digests) > 1:
        # Counted as one more failed operation: the simulator is deterministic.
        problems.append("simulated statistics differ between repeats of one input")
        failed += 1
    return {
        "correct": failed == 0,
        "attempted": sum(v.attempted for v in verdicts) + 1,
        "failed": failed,
        "problems": problems,
        "sim_digest": digests[0],
        "makespan_rel_err": max(v.makespan_rel_err for v in verdicts),
        "counts": verdicts[-1].counts,
    }


def end_to_end(workload: Any, seed: int, seconds: float, sizes: Sizes, workdir: str,
               smoke: bool = False) -> Dict[str, Any]:
    """The end-to-end metrics of one workload (tracing off)."""
    setups = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        gc.collect()
        setups.append(_calibrated(lambda: workload.setup(seed, sizes, workdir)))
    ctx = [setup.pop("outcome") for setup in setups][-1]
    # The set-up's reference run has warmed caches and lazy imports.
    repeats = _timed_repeats(workload, ctx, seconds, 1 if smoke else MIN_REPEATS,
                             lambda body: body())
    samples = {
        "setup_s": _samples(setups, "wall_s"),
        "wall_s": _samples(repeats, "wall_s"),
        "cpu_s": _samples(repeats, "cpu_s"),
        "work_per_s": [ctx["work_count"] / wall for wall in _samples(repeats, "wall_s")],
    }
    values = {name: statistics.median(series) for name, series in samples.items()}
    values["peak_rss_mb"] = peak_rss_mib()
    samples["raw_wall_s"] = _samples(repeats, "raw_wall_s")
    samples["slowdown"] = _samples(repeats, "slowdown")
    result = _operations(repeats)
    result.update(
        workload=workload.name,
        seed=seed,
        work_unit=workload.work_unit,
        work_count=ctx["work_count"],
        repeats=len(repeats),
        metrics={name: _metric(name, value) for name, value in values.items()},
        samples=samples,
    )
    return result


def per_layer(workload: Any, seed: int, seconds: float, sizes: Sizes, workdir: str,
              smoke: bool = False, trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """The per-layer metrics of one workload: traced body, counts, rungs."""
    ctx = workload.setup(seed, sizes, workdir)
    untraced = _timed_repeats(workload, ctx, 0.3 * seconds, 1 if smoke else 3,
                              lambda body: body())
    tracers: List[Tracer] = []

    def traced(body: Callable[[], Any]) -> Any:
        tracers.append(Tracer())
        return tracers[-1].run(body)

    repeats = _timed_repeats(workload, ctx, 0.3 * seconds, 1 if smoke else 3, traced)
    # The table comes from the traced repeat the host disturbed least.
    quietest = min(range(len(repeats)), key=lambda i: repeats[i]["slowdown"])
    tracer = tracers[quietest]

    result = _operations(untraced + repeats)
    values: Dict[str, float] = {}
    for layer, row in tracer.layer_table().items():
        for leaf, value in row.items():
            values[f"{layer}.{leaf}"] = value
    values["harness.self_s"] = tracer.harness_self_s
    # Traced wall excludes installing the wrappers; same normalisation as untraced.
    traced_walls = [t.total_s / r["slowdown"] for t, r in zip(tracers, repeats)]
    values["trace.overhead_frac"] = (statistics.median(traced_walls)
                                     / statistics.median(_samples(untraced, "wall_s")) - 1.0)
    values["trace.coverage_frac"] = tracer.coverage_frac()
    values.update(result["counts"])
    values.update(run_ladder(sizes, seed, workdir))
    values["engine.est_s"] = values["engine.events"] / values["engine.events_per_s"]
    values["process.residual_s"] = values["engine.self_s"] - values["engine.est_s"]
    values["accuracy.makespan_rel_err"] = result["makespan_rel_err"]

    names = manifest.per_layer_names()
    if sorted(values) != sorted(names):
        raise RuntimeError(f"per-layer names drifted: {sorted(set(values) ^ set(names))}")
    result.update(
        workload=workload.name,
        seed=seed,
        repeats=len(repeats),
        traced_wall_s=tracer.total_s,
        metrics={name: _metric(name, values[name]) for name in names},
    )
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, f"trace_{workload.name}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"workload": workload.name, "seed": seed, "wall_s": tracer.total_s,
                       "layers": tracer.layer_table(), "spans": tracer.spans},
                      handle, indent=1)
            handle.write("\n")
    return result


def render(result: Dict[str, Any]) -> str:
    """Every metric by name with its unit, then the operation counts."""
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"repeats {result['repeats']}"]
    metrics = result["metrics"]
    if "wall_s" in metrics:
        lines[0] += f"  work {result['work_count']} {result['work_unit']}"
        for name, metric in metrics.items():
            samples = result["samples"].get(name)
            spread = ""
            if samples and len(samples) > 1:
                spread = (f"  (median of {len(samples)}, host-speed normalised; "
                          f"min {min(samples):.6g}, max {max(samples):.6g})")
            lines.append(f"  {name:<14} {metric['value']:>14.6g} {metric['unit']}{spread}")
        slowdown = result["samples"]["slowdown"]
        lines.append(f"  host slowdown vs reference: median {statistics.median(slowdown):.3f}, "
                     f"max {max(slowdown):.3f}; raw wall median "
                     f"{statistics.median(result['samples']['raw_wall_s']):.6g} s")
    else:
        lines.append(f"  traced wall {result['traced_wall_s']:.4f} s (raw, least disturbed "
                     "traced repeat)")
        lines.append(f"  {'layer':<12} {'calls':>10} {'self_s':>10} {'share':>8}")
        for layer in LAYERS + ("harness",):
            calls = metrics.get(f"{layer}.calls", {"value": 1})["value"]
            self_s = metrics[f"{layer}.self_s"]["value"]
            lines.append(f"  {layer:<12} {calls:>10} {self_s:>10.4f} "
                         f"{self_s / result['traced_wall_s']:>8.1%}")
        for name, metric in metrics.items():
            if name.split(".")[-1] not in ("calls", "self_s", "share"):
                lines.append(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    lines.append(f"  operations attempted {result['attempted']}, failed {result['failed']}; "
                 f"makespan_rel_err {result['makespan_rel_err']:.3g}; "
                 f"sim_digest {result['sim_digest'][:16]}")
    lines.extend(f"  FAILED: {problem}" for problem in result["problems"])
    return "\n".join(lines)
