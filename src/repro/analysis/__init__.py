"""Measurement harnesses and performance models for the paper's evaluation.

Each harness module declares its table as a
:class:`~repro.results.tables.TableSchema` that carries its row builder;
:data:`TABLES` is the index of every table ``repro-campaign query STORE
--table NAME`` can name.  A new table is one ``TableSchema(..., rows=...)``
in its analysis module plus one entry here.
"""

from typing import Dict

from repro.analysis.congestion import CONGESTION
from repro.analysis.containment import CONTAINMENT
from repro.analysis.efficiency import EFFICIENCY
from repro.analysis.netpipe_analysis import NETPIPE
from repro.analysis.overhead import FIGURE6, by_config
from repro.analysis.perf_model import PIGGYBACK, analytic_pingpong_series
from repro.analysis.table1 import CLUSTER_SWEEP, TABLE1
from repro.results.tables import BLOCKED, TableSchema

#: The paper's tables and figures, plus what non-completed records say, by name.
TABLES: Dict[str, TableSchema] = {
    schema.name: schema
    for schema in (
        TABLE1, CLUSTER_SWEEP, NETPIPE, FIGURE6, CONTAINMENT, CONGESTION,
        EFFICIENCY, PIGGYBACK, BLOCKED,
    )
}

__all__ = ["TABLES", "analytic_pingpong_series", "by_config"]
