"""Operation descriptors yielded by application coroutines.

An application rank is a Python generator.  Blocking operations are expressed
by yielding one of the five descriptors below (via the
:class:`~repro.simulator.communicator.Communicator` helpers, which are
themselves generator functions so that application code uniformly writes
``yield from comm.recv(...)``).  Non-blocking calls (``isend``, ``irecv``,
``test``) are plain calls on the communicator and yield nothing; their
completion is awaited through a :class:`WaitOp`.

The vocabulary is the only interface between a workload and whatever drives
it, and it has two interpreters:

* the event-driven rank driver
  (:meth:`repro.simulator.process.RankProcess._advance`) performs the
  operation through the engine's event queue, blocks the rank if necessary
  and resumes the generator with the operation's result -- exact execution
  and every DES segment of a hybrid run;
* the hybrid director
  (:meth:`repro.simulator.hybrid.HybridDirector._drive_iterations`) executes
  the same descriptors synchronously inside a fast-forwarded epoch.  It
  decides :class:`SendOp`, :class:`RecvOp`, :class:`ComputeOp` and
  wait-all/wait-one without the event queue and rejects what only event
  timing can decide (:class:`WaitConditionOp`, wait-any, ``ANY_SOURCE``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.simulator.engine import Condition
from repro.simulator.messages import ANY_SOURCE, ANY_TAG
from repro.simulator.requests import Request


class Operation:
    """Marker base class for yieldable operations."""

    __slots__ = ()


@dataclass
class SendOp(Operation):
    """Blocking send of ``size_bytes`` to ``dest`` with matching ``tag``."""

    dest: int
    payload: Any
    tag: int = 0
    size_bytes: int = 0


@dataclass
class RecvOp(Operation):
    """Blocking receive matching ``(source, tag)`` (wildcards allowed)."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG


@dataclass
class WaitOp(Operation):
    """Wait for request completion.

    ``mode`` is one of ``"all"`` (default, resumes with the list of completion
    values), ``"any"`` (resumes with ``(index, value)``) and ``"one"``
    (single request, resumes with its value).
    """

    requests: Sequence[Request] = field(default_factory=list)
    mode: str = "all"


@dataclass
class ComputeOp(Operation):
    """Local computation taking ``seconds`` of simulated time."""

    seconds: float
    flops: Optional[float] = None


@dataclass
class WaitConditionOp(Operation):
    """Block until a :class:`Condition` fires; resumes with the fired value."""

    condition: Condition


def describe(op: Operation) -> str:
    """Short human-readable description of an operation (used in deadlock dumps)."""
    if isinstance(op, SendOp):
        return f"send(dest={op.dest}, tag={op.tag}, {op.size_bytes}B)"
    if isinstance(op, RecvOp):
        return f"recv(source={op.source}, tag={op.tag})"
    if isinstance(op, WaitOp):
        return f"wait(mode={op.mode}, n={len(op.requests)})"
    if isinstance(op, ComputeOp):
        return f"compute({op.seconds:.3g}s)"
    if isinstance(op, WaitConditionOp):
        return f"wait_condition({op.condition.name})"
    return repr(op)
