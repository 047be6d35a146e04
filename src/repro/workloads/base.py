"""Application (workload) interface for the simulation substrate.

An application describes an SPMD MPI program as three pieces:

* :meth:`Application.setup` builds the per-rank state object (plain Python
  data; checkpoints snapshot it through :meth:`Application.snapshot_state`),
* :meth:`Application.iteration` is a generator performing one outer iteration
  of the program: communication calls are expressed with ``yield from
  comm.<call>(...)`` and local work with ``yield from comm.compute(t)``,
* :meth:`Application.finalize` is a generator producing the rank's final
  result (often a checksum used by tests to compare executions).

Checkpoints are taken by protocols at iteration boundaries, so rollback
restores ``(iteration, state)`` and re-runs :meth:`iteration` from there.

The op stream :meth:`Application.iteration` yields through its communicator
*is* the program: exact execution and the hybrid fast-forward
(:mod:`repro.simulator.hybrid`) drive the same generator against the same
:class:`~repro.simulator.communicator.Communicator` and differ only in who
interprets the yielded descriptors (:mod:`repro.simulator.ops`).  A
workload declared :attr:`Application.ff_compatible` must therefore keep to
what both interpreters decide identically: directed receives, ``wait`` /
``waitall`` (no ``waitany``, no ``ANY_SOURCE``, no ``wait_condition``).

**Send-determinism.**  The paper's protocol assumes the application is
send-deterministic (Definition 3): for fixed inputs every correct execution
sends the same sequence of messages per process, regardless of the order in
which non-causally-related receptions are delivered.  Every workload in this
package is send-deterministic except
:class:`repro.workloads.master_worker.MasterWorkerApplication`, which is the
counterexample used in tests (matching the paper's observation that
master/worker codes are the main non-send-deterministic class).
:attr:`Application.send_deterministic` advertises the property so protocols
and experiments can check applicability.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

from repro.errors import WorkloadError

# --------------------------------------------------------------------------
# The generic snapshot pair behind :meth:`Application.snapshot_state` /
# :meth:`Application.restore_state`: a snapshot is an *immutable,
# structurally shared* value (tuples all the way down) that is cheap to
# build, safe to keep forever, and can be thawed back into a fresh mutable
# state any number of times.  Workloads with a known state shape override
# the two methods with something tighter; arbitrary objects inside the state
# fall back to ``deepcopy`` transparently.

#: exact types passed through snapshots untouched (immutable scalars).
_ATOMIC_TYPES = frozenset(
    (int, float, str, bool, bytes, complex, type(None), frozenset)
)

#: snapshot container tags (first element of every non-atomic snapshot).
_DICT, _LIST, _TUPLE, _SET, _OPAQUE = "d", "l", "t", "s", "x"


def freeze_state(value: Any) -> Any:
    """Build an immutable, structurally-shared snapshot of ``value``.

    Containers become tagged tuples, immutable scalars are shared as-is and
    anything else (numpy arrays, custom objects) is deep-copied into the
    snapshot.  The result round-trips through :func:`thaw_state`.
    """
    cls = value.__class__
    if cls in _ATOMIC_TYPES:
        return value
    if cls is dict:
        return (_DICT, tuple((k, freeze_state(v)) for k, v in value.items()))
    if cls is list:
        return (_LIST, tuple(freeze_state(v) for v in value))
    if cls is tuple:
        return (_TUPLE, tuple(freeze_state(v) for v in value))
    if cls is set:
        return (_SET, frozenset(value))
    return (_OPAQUE, copy.deepcopy(value))


def thaw_state(snapshot: Any) -> Any:
    """Rebuild a fresh, mutable state from a :func:`freeze_state` snapshot.

    Every call returns an independent structure: thawing the same snapshot
    twice never aliases mutable containers (opaque leaves are deep-copied
    again).
    """
    if snapshot.__class__ is not tuple:
        return snapshot
    tag, payload = snapshot
    if tag == _DICT:
        return {k: thaw_state(v) for k, v in payload}
    if tag == _LIST:
        return [thaw_state(v) for v in payload]
    if tag == _TUPLE:
        return tuple(thaw_state(v) for v in payload)
    if tag == _SET:
        return set(payload)
    return copy.deepcopy(payload)


@dataclass
class ApplicationInfo:
    """Descriptive metadata used in reports and experiment tables."""

    name: str
    nprocs: int
    iterations: int
    description: str = ""
    parameters: Optional[Dict[str, Any]] = None


class Application(abc.ABC):
    """Base class for simulated SPMD applications."""

    #: Human-readable workload name (used by experiment tables).
    name: str = "application"
    #: Whether the workload satisfies Definition 3 of the paper.
    send_deterministic: bool = True
    #: Whether failure-free epochs of the workload may be fast-forwarded
    #: analytically (:mod:`repro.simulator.hybrid`).  Requires
    #: send-determinism plus directed receives (no ``ANY_SOURCE``, no
    #: ``waitany``, no ``wait_condition``: the fast-forward driver raises
    #: on them) and no reliance on wall-clock-dependent control flow inside
    #: iterations.
    ff_compatible: bool = True

    def __init__(self, nprocs: int, iterations: int) -> None:
        if nprocs < 1:
            raise WorkloadError(f"{self.name}: nprocs must be >= 1, got {nprocs}")
        if iterations < 1:
            raise WorkloadError(f"{self.name}: iterations must be >= 1, got {iterations}")
        self.nprocs = nprocs
        self.iterations = iterations

    # ------------------------------------------------------------------ hooks
    @property
    def num_iterations(self) -> int:
        return self.iterations

    @abc.abstractmethod
    def setup(self, rank: int, nprocs: int) -> Any:
        """Build and return the per-rank application state."""

    @abc.abstractmethod
    def iteration(self, comm, rank: int, state: Any, it: int) -> Iterator:
        """Generator performing one application iteration."""

    def fast_forward_states(
        self, states: Dict[int, Any], start_iteration: int, n: int
    ) -> bool:
        """Advance every rank's live state through ``n`` iterations at once.

        Called by the hybrid director (:mod:`repro.simulator.hybrid`) inside
        a batched failure-free epoch, with ``states`` mapping *every* rank to
        its live state object at iteration count ``start_iteration``.  The
        implementation must mutate the state objects in place to exactly what
        ``n`` exchanged iterations of :meth:`iteration` would produce --
        *bit-identical*, including floating-point rounding -- without
        touching a communicator.  Return ``False`` when the request cannot be
        honoured (``states`` does not cover every rank); the director then
        stops the run with an error instead of guessing.

        Overriding this method is what opts a workload into the batched
        advance: the director never calls the base implementation.
        """
        return False

    # ------------------------------------------------------------ checkpoints
    def snapshot_state(self, state: Any) -> Any:
        """Immutable snapshot of a rank's live state for a checkpoint.

        The returned value must be safe to keep indefinitely: later mutations
        of ``state`` must not show through, and it must round-trip through
        :meth:`restore_state` into a state equivalent to ``state`` at call
        time.  The default structurally shares immutable data and falls back
        to ``deepcopy`` for opaque objects; workloads with a known state
        shape override this with a tighter (faster) representation.
        """
        return freeze_state(state)

    def restore_state(self, snapshot: Any) -> Any:
        """Fresh mutable state rebuilt from a :meth:`snapshot_state` value.

        Each call must return an *independent* state: restoring the same
        checkpoint twice (repeated rollbacks) must never alias mutable
        structure between the two incarnations or with the snapshot.
        """
        return thaw_state(snapshot)

    def finalize(self, comm, rank: int, state: Any) -> Iterator:
        """Generator returning the rank's final result (default: the state)."""
        return state
        yield  # pragma: no cover - marks this function as a generator

    # ------------------------------------------------------------------- misc
    def info(self) -> ApplicationInfo:
        return ApplicationInfo(
            name=self.name,
            nprocs=self.nprocs,
            iterations=self.iterations,
            description=type(self).__doc__.splitlines()[0] if type(self).__doc__ else "",
            parameters=self.parameters(),
        )

    def parameters(self) -> Dict[str, Any]:
        """Workload parameters worth reporting (overridden by subclasses)."""
        return {"nprocs": self.nprocs, "iterations": self.iterations}

    def communication_matrix(self, weight: str = "bytes"):
        """Analytic per-channel volume estimate, if the workload provides one.

        Workloads used in Table I override this to return an
        ``nprocs x nprocs`` numpy array without running a simulation; the
        default raises so callers fall back to trace-based extraction.
        """
        raise NotImplementedError(
            f"{self.name} does not provide an analytic communication matrix"
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(nprocs={self.nprocs}, iterations={self.iterations})"


def round9(x: float) -> float:
    """``round(x, 9)``, skipping the call where it provably returns ``x``.

    The nearest 9-decimal value ``d`` to ``x`` satisfies ``|d - x| <=
    0.5e-9``, while for ``|x| >= 2**24`` half the gap to the neighbouring
    double is ``0.5 * ulp(x) >= 2**-29 > 1.8e-9``, so ``x`` is strictly the
    nearest double to ``d`` and CPython's correctly rounded dtoa/strtod
    round-trip reproduces it bit for bit (NaN and +/-inf also round to
    themselves).  This matters because ``round`` on large-magnitude doubles
    costs microseconds (long decimal expansions), and workloads with an
    unnormalised update rule drive their values through that range by
    design.
    """
    if -16777216.0 < x < 16777216.0:  # 2**24
        return round(x, 9)
    return x
