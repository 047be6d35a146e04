"""Namespaced metric trees: the schema layer of :mod:`repro.results`.

A :class:`MetricSet` maps dotted paths (``sim.makespan``,
``links.tiers.inter-cluster.wait_s``) to plain JSON values.  The top path
segment is the namespace; the conventional ones are

* ``sim.*``      -- substrate counters (:class:`~repro.simulator.statistics.
  SimulationStatistics`),
* ``protocol.*`` -- fault-tolerance protocol counters (the old ``pstats_``
  prefix hack and ``describe()`` spillover, now collision-checked),
* ``network.*``  -- topology description and aggregate contention,
* ``links.*``    -- per-link / per-tier traffic of contended topologies,
* ``faults.*``   -- Monte Carlo aggregates over fault-model replicas
  (``faults.<metric path>.mean/std/ci95/min/max``, see
  :mod:`repro.faults.montecarlo`).

Setting a path twice, or setting a path that is both a leaf and a
namespace, raises :class:`~repro.errors.ConfigurationError` -- duplicate
metric names are a bug in the producer, not something to resolve silently.
Mapping values are flattened into sub-paths, so ``to_tree()`` /
``from_tree()`` round-trip exactly (the tree form is what campaign records
store as JSON).

A set read back from a record (:meth:`MetricSet.of_tree`, what
:meth:`RunResult.from_record <repro.results.run.RunResult.from_record>`
uses) keeps the decoded tree instead: the tree is checked when the set is
made, so a malformed one raises there exactly as :meth:`from_tree` would; a
leaf :meth:`~MetricSet.get` walks it; and the flat path map is built from
it only when something needs one (``items``, ``set``, ``==``, a namespace
``get``, ...).  The kept tree is never written through.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Explicit units for metric paths that the suffix conventions below miss.
METRIC_UNITS: Dict[str, str] = {
    "sim.makespan": "s",
    "sim.recovery_time": "s",
    "sim.total_compute_time": "s",
}

#: ``(suffix, unit)`` conventions applied to the last path segment.
_SUFFIX_UNITS: Tuple[Tuple[str, str], ...] = (
    ("_bytes", "B"),
    ("bytes", "B"),
    ("_s", "s"),
    ("_pct", "%"),
    ("_fraction", "ratio"),
    ("_messages", "count"),
    ("messages", "count"),
)


def units_for(path: str) -> Optional[str]:
    """Best-effort units of a metric path (explicit table, then suffixes)."""
    if path in METRIC_UNITS:
        return METRIC_UNITS[path]
    leaf = path.rsplit(".", 1)[-1]
    for suffix, unit in _SUFFIX_UNITS:
        if leaf.endswith(suffix):
            return unit
    return None


@dataclass(frozen=True)
class Metric:
    """One named metric value (with units resolved from the catalog)."""

    path: str
    value: Any
    units: Optional[str] = None

    @property
    def namespace(self) -> str:
        return self.path.split(".", 1)[0]


def _validate_path(path: Any) -> str:
    if not isinstance(path, str) or not path:
        raise ConfigurationError(f"metric path must be a non-empty string, got {path!r}")
    segments = path.split(".")
    if any(not segment for segment in segments):
        raise ConfigurationError(f"metric path {path!r} has an empty segment")
    return path


class MetricSet:
    """A tree of metrics keyed by dotted path, with duplicate detection.

    A set is either flat (``_values`` / ``_namespaces`` hold everything) or
    holds a checked tree in ``_tree`` (see :meth:`of_tree`) and empty flat
    maps, until :meth:`_flatten_tree` moves the tree into them.
    Every method that reads the flat maps calls it first when ``_tree`` is
    set; the tree itself is only ever read.
    """

    __slots__ = ("_values", "_namespaces", "_tree")

    def __init__(self, values: Optional[Mapping[str, Any]] = None) -> None:
        #: leaf path -> value
        self._values: Dict[str, Any] = {}
        #: every strict ancestor path of a stored leaf
        self._namespaces: Dict[str, int] = {}
        #: a checked tree not flattened yet (only :meth:`of_tree` sets it).
        self._tree: Optional[Dict[str, Any]] = None
        if values:
            for path, value in values.items():
                self.set(path, value)

    # ------------------------------------------------------------- mutation
    def set(self, path: str, value: Any) -> None:
        """Store ``value`` under ``path``; mappings flatten into sub-paths.

        Raises :class:`ConfigurationError` on a duplicate metric name or
        when a path would be both a leaf and a namespace.
        """
        if self._tree is not None:
            self._flatten_tree()
        _validate_path(path)
        # collections.abc.Mapping, not the typing alias: its isinstance goes
        # through the C-level ABC cache instead of five Python frames.
        if type(value) is dict or isinstance(value, Mapping):
            if not value:
                raise ConfigurationError(
                    f"metric {path!r}: empty mappings cannot round-trip through the "
                    "tree form; omit the metric or store a scalar"
                )
            for key, sub_value in value.items():
                self.set(f"{path}.{key}", sub_value)
            return
        if path in self._values:
            raise ConfigurationError(f"duplicate metric name {path!r}")
        if path in self._namespaces:
            raise ConfigurationError(
                f"metric {path!r} is already a namespace (it has sub-metrics)"
            )
        ancestors = _ancestors(path)
        for ancestor in ancestors:
            if ancestor in self._values:
                raise ConfigurationError(
                    f"metric {path!r} conflicts with existing leaf metric {ancestor!r}"
                )
        for ancestor in ancestors:
            self._namespaces[ancestor] = self._namespaces.get(ancestor, 0) + 1
        self._values[path] = value

    def merge(self, other: "MetricSet") -> None:
        """Add every metric of ``other`` (duplicates raise)."""
        for path, value in other.items():
            self.set(path, value)

    # -------------------------------------------------------------- access
    def get(self, path: str, default: Any = None) -> Any:
        """Leaf value, or the nested dict of a namespace, or ``default``."""
        tree = self._tree
        if tree is not None:
            if type(path) is str:
                # Checked tree: namespaces are exactly the dicts, keys are
                # non-empty and dot-free, so the segments name one node.
                node: Any = tree
                for segment in path.split("."):
                    if type(node) is not dict or segment not in node:
                        return default
                    node = node[segment]
                if type(node) is not dict:
                    return node
            self._flatten_tree()
        if path in self._values:
            return self._values[path]
        if path in self._namespaces:
            return self.tree(path)
        return default

    def __contains__(self, path: str) -> bool:
        if self._tree is not None:
            self._flatten_tree()
        return path in self._values or path in self._namespaces

    def __len__(self) -> int:
        if self._tree is not None:
            self._flatten_tree()
        return len(self._values)

    def __iter__(self) -> Iterator[str]:
        if self._tree is not None:
            self._flatten_tree()
        return iter(sorted(self._values))

    def items(self) -> List[Tuple[str, Any]]:
        """``(path, value)`` leaves in sorted path order (deterministic)."""
        if self._tree is not None:
            self._flatten_tree()
        return sorted(self._values.items())

    def metrics(self) -> List[Metric]:
        """Leaves as :class:`Metric` objects with catalog units."""
        return [Metric(path, value, units_for(path)) for path, value in self.items()]

    def subset(self, namespace: str) -> "MetricSet":
        """New :class:`MetricSet` with only the paths under ``namespace``."""
        prefix = namespace + "."
        out = MetricSet()
        for path, value in self.items():
            if path == namespace or path.startswith(prefix):
                out.set(path, value)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricSet):
            return NotImplemented
        if self._tree is not None:
            self._flatten_tree()
        if other._tree is not None:
            other._flatten_tree()
        return self._values == other._values

    def __repr__(self) -> str:
        return f"MetricSet({len(self)} metrics)"

    # ---------------------------------------------------------------- json
    def tree(self, root: Optional[str] = None) -> Dict[str, Any]:
        """Nested-dict form (the JSON representation stored in records)."""
        prefix = "" if root is None else root + "."
        out: Dict[str, Any] = {}
        for path, value in self.items():
            if root is not None:
                if not path.startswith(prefix):
                    continue
                path = path[len(prefix):]
            node = out
            segments = path.split(".")
            for segment in segments[:-1]:
                node = node.setdefault(segment, {})
            node[segments[-1]] = value
        return out

    def to_tree(self) -> Dict[str, Any]:
        return self.tree()

    @classmethod
    def from_tree(cls, tree: Mapping[str, Any]) -> "MetricSet":
        """Inverse of :meth:`to_tree` (strict round-trip): :meth:`of_tree`,
        flattened at once."""
        out = cls.of_tree(tree)
        if out._tree is not None:
            out._flatten_tree()
        return out

    @classmethod
    def of_tree(cls, tree: Mapping[str, Any]) -> "MetricSet":
        """The set of ``tree``, which is kept as it is and only read.

        A tree of plain dicts whose keys are non-empty, dot-free strings
        cannot hold a duplicate path or a leaf/namespace conflict, so it is
        checked in one pass and kept, to be flattened on demand; any other
        tree goes through the checked :meth:`set_tree` here and now, which
        raises exactly as it always did.
        """
        out = cls()
        if tree:
            if type(tree) is dict and _well_formed(tree):
                out._tree = tree
            else:
                out.set_tree(tree)
        return out

    def _flatten_tree(self) -> None:
        """Move the kept tree into the flat maps (it is checked: no errors)."""
        tree, self._tree = self._tree, None
        _flatten(tree, "", self._values, self._namespaces)

    def set_tree(self, tree: Mapping[str, Any]) -> None:
        for key, value in tree.items():
            self.set(str(key), value)


#: what a JSON-decoded leaf can be: known non-mappings without asking the ABC.
_JSON_LEAF_TYPES = frozenset({bool, int, float, str, list, type(None)})


def _flatten(
    tree: Dict[str, Any], prefix: str, values: Dict[str, Any], namespaces: Dict[str, int]
) -> int:
    """Fill ``values`` / ``namespaces`` from a :func:`_well_formed` tree;
    returns the number of leaves."""
    leaves = 0
    for key, value in tree.items():
        path = prefix + key
        if type(value) is dict:
            namespaces[path] = 0  # takes its slot before its sub-namespaces do
            count = _flatten(value, path + ".", values, namespaces)
            namespaces[path] = count
            leaves += count
        else:
            values[path] = value
            leaves += 1
    return leaves


def _well_formed(tree: Dict[str, Any]) -> bool:
    """Can ``tree`` (a non-empty dict) be flattened without a check?  Every
    namespace a non-empty dict, every leaf no mapping, every key a non-empty
    string without a dot."""
    for key in tree:
        if type(key) is not str or not key or "." in key:
            return False
        value = tree[key]
        kind = type(value)
        if kind is dict:
            if not value or not _well_formed(value):
                return False
        elif kind not in _JSON_LEAF_TYPES and isinstance(value, Mapping):
            return False
    return True


def _ancestors(path: str) -> List[str]:
    segments = path.split(".")
    return [".".join(segments[:i]) for i in range(1, len(segments))]
