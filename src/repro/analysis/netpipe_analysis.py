"""Figure 5 harness: NetPIPE ping-pong under native MPICH2 and HydEE.

Three configurations are measured over a sweep of message sizes:

* ``native``            -- no protocol (the MPICH2 reference);
* ``hydee_no_logging``  -- both ranks in the same cluster: only the
  piggybacked (date, phase) is paid;
* ``hydee_logging``     -- ranks in different clusters: piggyback plus
  sender-based payload logging.

The closed-form model of :mod:`repro.analysis.perf_model`
(``analytic_pingpong_series``) predicts the same series; the ``figure5``
experiment checks the simulated sweep against it.  The per-size
measurements are read through :class:`~repro.results.run.RunResult`
(``data["rank_results"]``), and the printed series follow the
:data:`NETPIPE` table schema, whose row builder lets ``repro-campaign query
STORE --table netpipe`` rebuild the Figure 5 series from a cached store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.results.query import ResultSet
from repro.results.run import RunResult
from repro.results.tables import Column, Row, TableSchema
from repro.scenarios.spec import (
    ClusteringSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.simulator.network import netpipe_sizes


@dataclass
class NetpipeResult:
    """Latency/bandwidth sweep for the three Figure 5 configurations."""

    sizes: List[int]
    latency_s: Dict[str, List[float]] = field(default_factory=dict)
    bandwidth_bytes_per_s: Dict[str, List[float]] = field(default_factory=dict)

    def latency_reduction_pct(self, config: str) -> List[float]:
        """Latency change vs native, in percent (negative = slower)."""
        native = self.latency_s["native"]
        other = self.latency_s[config]
        return [100.0 * (n - o) / n if n > 0 else 0.0 for n, o in zip(native, other)]

    def bandwidth_reduction_pct(self, config: str) -> List[float]:
        """Bandwidth change vs native, in percent (negative = lower)."""
        native = self.bandwidth_bytes_per_s["native"]
        other = self.bandwidth_bytes_per_s[config]
        return [100.0 * (o - n) / n if n > 0 else 0.0 for n, o in zip(native, other)]

    def rows(self) -> List[Row]:
        """The sweep as :data:`NETPIPE` table rows."""
        lat_no_log = self.latency_reduction_pct("hydee_no_logging")
        lat_log = self.latency_reduction_pct("hydee_logging")
        bw_no_log = self.bandwidth_reduction_pct("hydee_no_logging")
        bw_log = self.bandwidth_reduction_pct("hydee_logging")
        return [
            NETPIPE.row(
                bytes=size,
                lat_no_log_pct=lat_no_log[idx],
                lat_log_pct=lat_log[idx],
                bw_no_log_pct=bw_no_log[idx],
                bw_log_pct=bw_log[idx],
            )
            for idx, size in enumerate(self.sizes)
        ]


def netpipe_specs(
    max_bytes: int = 8 * 1024 * 1024,
    repeats: int = 3,
    piggyback_bytes: int = 12,
    sizes: Optional[Sequence[int]] = None,
) -> List[ScenarioSpec]:
    """NetPIPE ping-pong latency/bandwidth change under HydEE.

    Three series over the NetPIPE size sweep up to ``max_bytes`` (paper:
    8 MiB; ``sizes`` replaces the sweep): ``native``, ``hydee_no_logging``
    (both ranks in one cluster: only the piggybacked (date, phase) is paid)
    and ``hydee_logging`` (ranks apart: piggyback plus sender-based payload
    logging).  The MX latency curve is a staircase, so the piggybacked
    bytes cost nothing except where they push a message across a plateau
    edge -- the isolated peaks of Figure 5 (e.g. 32 B + 12 B); above 1 KiB
    the pair travels as a separate small message, and the logging memcpy
    hides behind the transfer, so both HydEE curves coincide and the
    overhead vanishes for large messages.
    """
    # Sorted and de-duplicated: netpipe_sizes emits +-3-byte probes around
    # each power of two, which a custom sweep may overlap.
    sizes = (
        list(netpipe_sizes(max_bytes)) if sizes is None
        else sorted({int(s) for s in sizes})
    )
    workload = WorkloadSpec(
        kind="netpipe", nprocs=2, iterations=1,
        params={"sizes": sizes, "repeats": repeats},
    )
    # Cluster layouts select what HydEE logs: both ranks together -> nothing,
    # ranks apart -> the whole ping-pong channel.
    series = {
        "native": ProtocolSpec(name="native"),
        "hydee_no_logging": ProtocolSpec(
            name="hydee",
            options={"piggyback_bytes": piggyback_bytes},
            clustering=ClusteringSpec(method="explicit", clusters=((0, 1),)),
        ),
        "hydee_logging": ProtocolSpec(
            name="hydee",
            options={"piggyback_bytes": piggyback_bytes},
            clustering=ClusteringSpec(method="explicit", clusters=((0,), (1,))),
        ),
    }
    return [
        ScenarioSpec(
            name=f"figure5:{name}",
            workload=workload,
            protocol=protocol,
            tags={"experiment": "figure5", "series": name},
        )
        for name, protocol in series.items()
    ]


def _measurements(run: RunResult) -> Dict[str, Dict[str, float]]:
    """Rank 0's per-size measurements (record keys are JSON strings)."""
    return run.data["rank_results"]["0"]["measurements"]


def netpipe_rows(resultset: ResultSet) -> List[Row]:
    """Rebuild the three Figure 5 series from figure5-tagged runs.

    Refuses a result set mixing several netpipe sweeps (different size
    lists or duplicate series) or lacking a series: silently combining
    series measured under different parameters would fabricate a Figure 5
    that nobody ran.  A result set without figure5 runs is the empty table.
    """
    from repro.errors import ConfigurationError

    runs = resultset.where(**{"tags.experiment": "figure5"})
    result: Optional[NetpipeResult] = None
    for run in runs:
        sizes = [int(s) for s in run.spec_field("workload.params.sizes", ())]
        if result is None:
            result = NetpipeResult(sizes=sizes)
        elif sizes != result.sizes:
            raise ConfigurationError(
                "figure5 runs with different size sweeps in one result set; "
                "filter the store (e.g. --where name=figure5:native style "
                "spec names) down to a single sweep first"
            )
        name = str(run.field("tags.series"))
        if name in result.latency_s:
            raise ConfigurationError(
                f"several figure5 runs for series {name!r} in one result set "
                "(mixed sweeps?); filter the store down to a single sweep"
            )
        measurements = _measurements(run)
        result.latency_s[name] = [measurements[str(s)]["latency_s"] for s in result.sizes]
        result.bandwidth_bytes_per_s[name] = [
            measurements[str(s)]["bandwidth_bytes_per_s"] for s in result.sizes
        ]
    if result is None:
        return []
    missing = {"native", "hydee_no_logging", "hydee_logging"} - set(result.latency_s)
    if missing:
        raise ConfigurationError(f"figure5 runs lack the series {', '.join(sorted(missing))}")
    return result.rows()


#: One NetPIPE size point: latency/bandwidth change vs native, in percent.
NETPIPE = TableSchema(
    "netpipe",
    columns=(
        Column("bytes", "int"),
        Column("lat_no_log_pct", "float", units="%", format=".2f",
               header="lat% no-log"),
        Column("lat_log_pct", "float", units="%", format=".2f",
               header="lat% log"),
        Column("bw_no_log_pct", "float", units="%", format=".2f",
               header="bw% no-log"),
        Column("bw_log_pct", "float", units="%", format=".2f",
               header="bw% log"),
    ),
    title="Figure 5 -- ping-pong performance change vs native MPICH2 "
          "(negative = overhead)",
    rows=netpipe_rows,
)
