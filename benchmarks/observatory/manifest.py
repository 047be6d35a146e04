"""Metric declarations: the single source of ``BENCHMARK.json``.

``python3 benchmarks/observatory/__main__.py manifest`` prints the file;
the smoke test asserts the committed ``BENCHMARK.json`` equals it.
"""

from typing import Any, Dict, List

from .layers import LAYERS
from .rungs import RUNG_NAMES
from .workloads import COUNT_NAMES, WORKLOADS

#: seconds one driver run measures (``--seconds``).
RUN_SECONDS = 12

#: end-to-end metrics: (name, unit, better, bound).  The bound is the share
#: of the parent's value by which a metric may worsen before ``compare``
#: (and the driver) call it a regression.  Ten runs of one commit on ten
#: seeds spread (interquartile range / median) 1-4 % on the timing metrics
#: on a quiet host and up to 11 % on a disturbed one (README.md, "Host-speed
#: normalisation"), under 2 % on peak RSS.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.15),
    ("cpu_s", "s", "lower", 0.15),
    ("work_per_s", "1/s", "higher", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

_HIGHER = {
    "hybrid.ff_ratio",
    "hybrid.batched_iterations",
    "hybrid.calibration_hits",
    "campaign.cache_hits",
    "campaign.cache_hit_ratio",
    "trace.coverage_frac",
}


def _unit(name: str) -> str:
    """The unit of a per-layer metric, from the suffix of its name."""
    leaf = name.rsplit(".", 1)[-1]
    for suffix, unit in (("_per_s", "1/s"), ("_us_per_record", "us"), ("_us_per_msg", "us"),
                         ("_ms", "ms"), ("_s", "s"), ("bytes", "bytes"), ("bytes_written", "bytes"),
                         ("share", "ratio"), ("_ratio", "ratio"), ("_frac", "ratio"),
                         ("_rel_err", "ratio")):
        if leaf.endswith(suffix):
            return unit
    return "count"


def per_layer_names() -> List[str]:
    names = [f"{layer}.{leaf}" for layer in LAYERS for leaf in ("calls", "self_s", "share")]
    names += ["harness.self_s", "trace.overhead_frac", "trace.coverage_frac"]
    names += list(COUNT_NAMES)
    names += list(RUNG_NAMES)
    names += ["engine.est_s", "process.residual_s", "accuracy.makespan_rel_err"]
    return names


def per_layer() -> List[Dict[str, str]]:
    return [
        {"name": name, "unit": _unit(name),
         "better": "higher" if name in _HIGHER or name.endswith("_per_s") else "lower"}
        for name in per_layer_names()
    ]


def unit_of(name: str) -> str:
    for declared, unit, _better, _bound in END_TO_END:
        if declared == name:
            return unit
    return _unit(name)


def benchmark_json() -> Dict[str, Any]:
    return {
        "command": ["python3", "benchmarks/observatory/__main__.py"],
        "paths": ["benchmarks/observatory"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": per_layer(),
    }
