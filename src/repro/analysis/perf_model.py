"""Analytic overhead model for HydEE's per-message costs.

Section V of the paper attributes HydEE's failure-free overhead to exactly
two mechanisms, both modelled here on top of
:class:`repro.simulator.network.NetworkModel`:

* **piggybacking** the (date, phase) pair: inlined below 1 KiB (which can
  push a small message onto the next latency plateau -- the two peaks of
  Figure 5), shipped as a separate message above 1 KiB (one extra
  small-message latency, negligible next to the transfer time);
* **sender-based payload logging**: a memcpy overlapped with the NIC
  transfer, of which only a small non-overlapped fraction is visible.

These closed-form predictions are used by the Figure 5 harness both as a
fast path and as a cross-check of the simulated ping-pong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.results.query import ResultSet
from repro.results.tables import Column, Row, TableSchema
from repro.scenarios.spec import ProtocolSpec, ScenarioSpec, WorkloadSpec
from repro.simulator.network import (
    MyrinetMXModel,
    NetworkModel,
    PiggybackPolicy,
    netpipe_sizes,
    pingpong_half_round_trip,
)


@dataclass
class MessageCostBreakdown:
    """Cost of sending one application message under a protocol configuration."""

    app_bytes: int
    wire_bytes: int
    base_latency_s: float
    total_latency_s: float
    piggyback_latency_s: float
    logging_latency_s: float

    @property
    def overhead_s(self) -> float:
        return self.total_latency_s - self.base_latency_s

    @property
    def overhead_fraction(self) -> float:
        if self.base_latency_s == 0:
            return 0.0
        return self.overhead_s / self.base_latency_s


def message_cost(
    network: NetworkModel,
    app_bytes: int,
    piggyback_bytes: int = 12,
    policy: PiggybackPolicy = PiggybackPolicy.INLINE_SMALL_SEPARATE_LARGE,
    logging: bool = False,
) -> MessageCostBreakdown:
    """One-way cost of a message under HydEE's mechanisms."""
    base = pingpong_half_round_trip(network, app_bytes)
    extra_bytes, extra_latency = network.piggyback_cost(app_bytes, piggyback_bytes, policy)
    wire = app_bytes + extra_bytes
    logging_cost = network.memcpy_time(app_bytes) if logging else 0.0
    total = (
        network.send_overhead_s
        + extra_latency
        + logging_cost
        + network.transfer_time(wire)
        + network.recv_overhead_s
    )
    return MessageCostBreakdown(
        app_bytes=app_bytes,
        wire_bytes=wire,
        base_latency_s=base,
        total_latency_s=total,
        piggyback_latency_s=extra_latency
        + (network.transfer_time(wire) - network.transfer_time(app_bytes)),
        logging_latency_s=logging_cost,
    )


def analytic_pingpong_series(
    sizes: Optional[Sequence[int]] = None,
    network: Optional[NetworkModel] = None,
    piggyback_bytes: int = 12,
    policy: PiggybackPolicy = PiggybackPolicy.INLINE_SMALL_SEPARATE_LARGE,
) -> Dict[str, List[float]]:
    """Closed-form Figure 5 series.

    Returns a dict with the message ``sizes`` and, for the "no logging"
    (intra-cluster) and "logging" (inter-cluster) configurations, the latency
    and bandwidth change relative to the native library, in percent (negative
    values = slower / less bandwidth, matching the paper's axes).
    """
    network = network or MyrinetMXModel()
    sizes = list(sizes) if sizes is not None else list(netpipe_sizes())
    out: Dict[str, List[float]] = {
        "sizes": [float(s) for s in sizes],
        "latency_reduction_no_logging_pct": [],
        "latency_reduction_logging_pct": [],
        "bandwidth_reduction_no_logging_pct": [],
        "bandwidth_reduction_logging_pct": [],
    }
    for size in sizes:
        native = pingpong_half_round_trip(network, size)
        no_log = message_cost(network, size, piggyback_bytes, policy, logging=False)
        log = message_cost(network, size, piggyback_bytes, policy, logging=True)
        for key, cost in (
            ("no_logging", no_log.total_latency_s),
            ("logging", log.total_latency_s),
        ):
            latency_red = 100.0 * (native - cost) / native
            native_bw = size / native
            bw = size / cost
            bw_red = 100.0 * (bw - native_bw) / native_bw
            out[f"latency_reduction_{key}_pct"].append(latency_red)
            out[f"bandwidth_reduction_{key}_pct"].append(bw_red)
    return out


def iteration_overhead_estimate(
    network: NetworkModel,
    messages_per_rank: int,
    message_bytes: int,
    logged_fraction: float,
    compute_seconds: float,
    piggyback_bytes: int = 12,
    policy: PiggybackPolicy = PiggybackPolicy.INLINE_SMALL_SEPARATE_LARGE,
) -> float:
    """Rough normalized-execution-time estimate for one NAS-like iteration.

    Used by sanity tests of the Figure 6 harness: the full simulation should
    land near this closed-form estimate.
    """
    base_comm = messages_per_rank * pingpong_half_round_trip(network, message_bytes)
    logged = message_cost(network, message_bytes, piggyback_bytes, policy, logging=True)
    unlogged = message_cost(network, message_bytes, piggyback_bytes, policy, logging=False)
    overhead = messages_per_rank * (
        logged_fraction * logged.overhead_s + (1.0 - logged_fraction) * unlogged.overhead_s
    )
    base_total = compute_seconds + base_comm
    return (base_total + overhead) / base_total


def piggyback_policy_rows(
    network: NetworkModel,
    sizes: Sequence[int],
    piggyback_bytes: int = 12,
) -> List[Dict[str, float]]:
    """Per-policy one-way overhead decomposition (ablation E5).

    For each message size, the visible overhead of every piggyback policy in
    percent of the native one-way time, plus the extra cost of sender-based
    logging under the paper's hybrid rule.
    """
    rows: List[Dict[str, float]] = []
    hybrid = PiggybackPolicy.INLINE_SMALL_SEPARATE_LARGE
    for size in sizes:
        row: Dict[str, float] = {"bytes": float(size)}
        for policy in (
            PiggybackPolicy.NONE,
            PiggybackPolicy.INLINE,
            PiggybackPolicy.SEPARATE,
            hybrid,
        ):
            cost = message_cost(network, size, piggyback_bytes, policy, logging=False)
            row[f"{policy.value}_pct"] = 100.0 * cost.overhead_fraction
        logged = message_cost(network, size, piggyback_bytes, hybrid, logging=True)
        row["logging_extra_pct"] = (
            100.0 * logged.overhead_fraction - row[f"{hybrid.value}_pct"]
        )
        rows.append(row)
    return rows


def _rows_from_store(resultset: ResultSet) -> List[Row]:
    return [
        PIGGYBACK.from_mapping(row)
        for run in resultset.where(analysis="piggyback-policy")
        for row in run.data["rows"]
    ]


def _percent(name: str) -> Column:
    return Column(name, "float", units="%", display=lambda value: round(value, 3))


#: One size point of ablation E5: overhead per policy, in % of native.
PIGGYBACK = TableSchema(
    "piggyback-policy",
    columns=(
        Column("bytes", "float", units="B"),
        *(_percent(f"{policy.value}_pct") for policy in PiggybackPolicy),
        _percent("logging_extra_pct"),
    ),
    title="Piggyback policy ablation -- one-way overhead vs native (percent)",
    rows=_rows_from_store,
)


def piggyback_spec(
    sizes: Optional[Sequence[int]] = None,
    piggyback_bytes: int = 12,
) -> ScenarioSpec:
    """Piggyback policy and logging cost decomposition.

    The prototype inlines the piggybacked (date, phase) below 1 KiB and
    ships it as a separate message above.  One analytic ``piggyback-policy``
    scenario (default sweep: 1 B .. 1 MiB) prices each policy in isolation,
    with and without sender-based logging: the two Figure 5 peaks are the
    inline policy crossing a latency plateau, and the logging memcpy is
    invisible because it overlaps the transfer.
    """
    sizes = list(netpipe_sizes(1 << 20)) if sizes is None else list(sizes)
    return ScenarioSpec(
        name="ablation:piggyback",
        workload=WorkloadSpec(
            kind="netpipe", nprocs=2, iterations=1, params={"sizes": sizes}
        ),
        protocol=ProtocolSpec(
            name="hydee", options={"piggyback_bytes": piggyback_bytes}
        ),
        tags={"experiment": "ablation-piggyback", "analysis": "piggyback-policy"},
    )


def piggyback_policy_job(spec):
    """Campaign job for the piggyback-policy ablation (analytic, E5).

    The scenario's netpipe workload supplies the size sweep, its protocol
    options the piggybacked byte count, and its network spec the model.
    Imported lazily by the campaign job registry.
    """
    from repro.campaign.jobs import jsonify
    from repro.results.run import make_payload
    from repro.scenarios.build import build_network

    sizes = list(spec.workload.params.get("sizes") or netpipe_sizes(1 << 20))
    piggyback_bytes = int(spec.protocol.options.get("piggyback_bytes", 12))
    rows = piggyback_policy_rows(
        build_network(spec), sizes, piggyback_bytes=piggyback_bytes
    )
    return jsonify(make_payload("completed", None, {"rows": rows})), rows
