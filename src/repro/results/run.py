"""Typed view of one campaign record: spec provenance + metrics + data.

A version-2 campaign record looks like::

    {
      "name": "...", "analysis": "...", "spec_hash": "...",
      "spec": { ... full ScenarioSpec.to_dict() ... },
      "result": {
        "status": "completed",
        "metrics": { "sim": {...}, "protocol": {...}, ... },
        "data": { ... job-specific payload (rows, rank_results, ...) ... }
      }
    }

Jobs build the ``result`` section with :func:`make_payload`;
:class:`RunResult` wraps a whole record and is the only sanctioned way for
analysis/experiment/benchmark/example code to read one (no hand-indexing
of raw record dicts).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.results.metrics import MetricSet

_MISSING = object()

#: Shorthand filter/select names -> the dotted path they resolve to.
FIELD_ALIASES: Dict[str, str] = {
    "protocol": "protocol.name",
    "workload": "workload.kind",
    "nprocs": "workload.nprocs",
    "iterations": "workload.iterations",
    "topology": "network.topology.preset",
    "experiment": "tags.experiment",
}


def make_payload(
    status: str,
    metrics: Optional[Union[MetricSet, Mapping[str, Any]]] = None,
    data: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the ``result`` section of a v2 record."""
    if metrics is None:
        tree: Dict[str, Any] = {}
    elif isinstance(metrics, MetricSet):
        tree = metrics.to_tree()
    else:
        tree = MetricSet(metrics).to_tree()
    return {"status": str(status), "metrics": tree, "data": dict(data or {})}


def is_v2_payload(result: Any) -> bool:
    """Does ``result`` look like a v2 ``result`` section?"""
    # Exact dicts (every JSON-decoded record) skip the ABC machinery.
    if type(result) is not dict and not isinstance(result, Mapping):
        return False
    for section in (result.get("metrics"), result.get("data")):
        if type(section) is not dict and not isinstance(section, Mapping):
            return False
    return True


@dataclass
class RunResult:
    """One completed scenario run, as stored in a campaign record."""

    name: str
    analysis: str
    spec_hash: str
    spec: Dict[str, Any]
    status: str
    metrics: MetricSet = field(default_factory=MetricSet)
    data: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------- record i/o
    @classmethod
    def from_record(cls, record: Mapping[str, Any], strict: bool = True) -> "RunResult":
        """Parse a campaign record.

        ``strict`` requires the v2 ``result`` layout; with ``strict=False``
        unknown layouts degrade to an empty metric set (used by progress
        displays that must tolerate hand-planted records).

        The metric tree is kept as decoded (:meth:`MetricSet.of_tree`): it
        is checked here, so a malformed tree raises
        :class:`ConfigurationError` from this call as it always did, but it
        is flattened only when something needs the flat form, and never
        written through.  A leaf lookup (``metric("sim.makespan")``, a
        pivot cell) walks the tree.
        """
        result = record.get("result")
        if not is_v2_payload(result):
            if strict:
                raise ConfigurationError(
                    f"record {record.get('name')!r} is not a v2 result (keys: "
                    f"{sorted(result) if isinstance(result, Mapping) else type(result).__name__})"
                )
            result = {
                "status": result.get("status", "unknown")
                if isinstance(result, Mapping)
                else "unknown",
                "metrics": {},
                "data": {},
            }
        return cls(
            name=str(record.get("name", "")),
            analysis=str(record.get("analysis", "")),
            spec_hash=str(record.get("spec_hash", "")),
            spec=dict(record.get("spec", {}) or {}),
            status=str(result["status"]),
            metrics=MetricSet.of_tree(result["metrics"]),
            data=dict(result["data"]),
        )

    def to_record(self) -> Dict[str, Any]:
        """Inverse of :meth:`from_record` (strict JSON round-trip)."""
        return {
            "name": self.name,
            "analysis": self.analysis,
            "spec_hash": self.spec_hash,
            "spec": dict(self.spec),
            "result": make_payload(self.status, self.metrics, self.data),
        }

    # --------------------------------------------------------------- access
    @property
    def tags(self) -> Dict[str, Any]:
        return dict(self.spec.get("tags", {}) or {})

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def metric(self, path: str, default: Any = None) -> Any:
        """Dotted-path metric lookup (``sim.makespan``, ``links.tiers...``)."""
        return self.metrics.get(path, default)

    def spec_field(self, path: str, default: Any = None) -> Any:
        """Dotted-path lookup into the spec dict (``protocol.options.x``)."""
        node: Any = self.spec
        for segment in path.split("."):
            if (type(node) is not dict and not isinstance(node, Mapping)) or segment not in node:
                return default
            node = node[segment]
        return node

    def field(self, path: str, default: Any = None) -> Any:
        """Resolve ``path`` against the whole run, in a fixed order.

        1. record attributes (``name``, ``analysis``, ``spec_hash``,
           ``status``), 2. shorthand aliases (``protocol`` -> spec
           ``protocol.name``, ``workload`` -> ``workload.kind``, ...),
        3. the spec dict (including ``tags.*``), 4. the metric tree.
        """
        found, value = self._resolve(path)
        return value if found else default

    def _resolve(self, path: str) -> Tuple[bool, Any]:
        if path in ("name", "analysis", "spec_hash", "status"):
            return True, getattr(self, path)
        path = FIELD_ALIASES.get(path, path)
        value = self.spec_field(path, _MISSING)
        if value is not _MISSING:
            return True, value
        value = self.metrics.get(path, _MISSING)
        if value is not _MISSING:
            return True, value
        if path.startswith("metrics."):
            value = self.metrics.get(path[len("metrics."):], _MISSING)
            if value is not _MISSING:
                return True, value
        return False, None
