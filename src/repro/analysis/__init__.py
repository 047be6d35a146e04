"""Measurement harnesses and performance models for the paper's evaluation.

Importing this package also registers every analysis table schema
(:mod:`repro.results.tables`), which is what makes ``repro-campaign query
STORE --table NAME`` work over cached stores.
"""

from repro.analysis.perf_model import (
    MessageCostBreakdown,
    analytic_pingpong_series,
    iteration_overhead_estimate,
    message_cost,
)
from repro.analysis.netpipe_analysis import (
    NETPIPE,
    NetpipeResult,
)
from repro.analysis.table1 import (
    CLUSTER_SWEEP,
    TABLE1,
)
from repro.analysis.overhead import (
    FIGURE6,
    by_config,
    render_figure6,
)
from repro.analysis.containment import (
    CONTAINMENT,
    run_containment_experiment,
)
from repro.analysis.congestion import (
    CONGESTION,
    congestion_specs,
    recovery_divergence,
    render_congestion,
)
from repro.analysis.efficiency import (
    EFFICIENCY,
    containment_holds,
    render_efficiency,
    run_efficiency_experiment,
    wasted_work_by_protocol,
)
from repro.analysis.reporting import format_dict_table, format_table, percent

__all__ = [
    "MessageCostBreakdown",
    "message_cost",
    "analytic_pingpong_series",
    "iteration_overhead_estimate",
    "NETPIPE",
    "NetpipeResult",
    "TABLE1",
    "CLUSTER_SWEEP",
    "FIGURE6",
    "by_config",
    "render_figure6",
    "CONTAINMENT",
    "run_containment_experiment",
    "CONGESTION",
    "congestion_specs",
    "render_congestion",
    "recovery_divergence",
    "EFFICIENCY",
    "run_efficiency_experiment",
    "render_efficiency",
    "wasted_work_by_protocol",
    "containment_holds",
    "format_table",
    "format_dict_table",
    "percent",
]
