"""Grid expansion of scenario specs for parameter sweeps.

:func:`sweep` takes a base :class:`~repro.scenarios.spec.ScenarioSpec` and a
mapping of dotted paths to value lists and returns the cartesian product of
specs, one per grid point::

    specs = sweep(
        base,
        {
            "workload.kind": ["bt", "cg", "lu"],
            "workload.nprocs": [16, 64],
            "protocol.options.checkpoint_interval": [1, 2, 4],
        },
    )

Paths address nested spec dataclasses (``workload.nprocs``) and entries of
their mapping fields (``workload.params.message_scale``,
``config.record_trace_events``, ``tags.label``).  Each produced spec gets a unique
name derived from the base name and its grid coordinates.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.scenarios.spec import ScenarioSpec


def _set_path(obj: Any, parts: Sequence[str], value: Any) -> Any:
    """Return a copy of ``obj`` with the attribute/key at ``parts`` replaced."""
    head = parts[0]
    if dataclasses.is_dataclass(obj):
        if head not in obj.__dataclass_fields__:
            raise ConfigurationError(
                f"{type(obj).__name__} has no field {head!r} "
                f"(fields: {sorted(obj.__dataclass_fields__)})"
            )
        current = getattr(obj, head)
        if len(parts) == 1:
            return dataclasses.replace(obj, **{head: value})
        return dataclasses.replace(obj, **{head: _set_path(current, parts[1:], value)})
    if isinstance(obj, Mapping):
        updated = dict(obj)
        if len(parts) == 1:
            updated[head] = value
        else:
            updated[head] = _set_path(updated.get(head, {}), parts[1:], value)
        return updated
    raise ConfigurationError(
        f"cannot descend into {type(obj).__name__} at {'.'.join(parts)!r}"
    )


def with_path(spec: ScenarioSpec, path: str, value: Any) -> ScenarioSpec:
    """Copy of ``spec`` with the dotted ``path`` replaced by ``value``."""
    parts = path.split(".")
    if not all(parts):
        raise ConfigurationError(f"malformed sweep path {path!r}")
    return _set_path(spec, parts, value)


def _coordinate_label(path: str, value: Any) -> str:
    leaf = path.rsplit(".", 1)[-1]
    if isinstance(value, (list, tuple)):
        text = "x".join(str(v) for v in value)
    else:
        text = str(value)
    return f"{leaf}={text}"


def sweep(
    base: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]],
    name_template: str = "{base}[{coords}]",
) -> List[ScenarioSpec]:
    """Expand ``base`` over the cartesian grid described by ``axes``.

    ``axes`` maps dotted spec paths to the values each axis takes; the
    result enumerates every combination in deterministic (insertion, then
    left-to-right) order.  An empty ``axes`` returns ``[base]``.
    """
    if not axes:
        return [base]
    paths: List[str] = list(axes)
    value_lists: List[Tuple[Any, ...]] = []
    for path in paths:
        values = tuple(axes[path])
        if not values:
            raise ConfigurationError(f"sweep axis {path!r} has no values")
        value_lists.append(values)

    specs: List[ScenarioSpec] = []
    for combo in itertools.product(*value_lists):
        spec = base
        for path, value in zip(paths, combo):
            spec = with_path(spec, path, value)
        coords = ",".join(
            _coordinate_label(path, value) for path, value in zip(paths, combo)
        )
        specs.append(spec.with_name(name_template.format(base=base.name, coords=coords)))
    return specs
