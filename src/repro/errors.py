"""Exception hierarchy for the HydEE reproduction.

Every error raised by the package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SimulationError(ReproError):
    """Generic failure of the discrete-event simulation substrate."""


class DeadlockError(SimulationError):
    """Raised when the simulation can no longer make progress.

    A deadlock is detected when the event queue is empty while at least one
    rank is still blocked on a communication operation.  The message lists
    the blocked ranks and the operations they are waiting on, which is the
    information needed to debug both application bugs and protocol bugs
    (Theorem 2 of the paper claims HydEE recovery is deadlock free; the
    integration tests rely on this detector to check it).
    """


class InvalidOperationError(SimulationError):
    """An application or protocol issued an operation that is not legal.

    Examples: receiving on a negative rank, waiting twice on the same
    request, sending from a failed process.
    """


class ProtocolError(ReproError):
    """A fault-tolerance protocol reached an inconsistent internal state."""


class InvariantViolation(ReproError):
    """An executable paper invariant (Lemma/Theorem check) does not hold."""


class ClusteringError(ReproError):
    """The process-clustering substrate received invalid input."""


class WorkloadError(ReproError):
    """A workload (application) was configured inconsistently."""


class ConfigurationError(ReproError):
    """Invalid configuration values passed to a public API entry point."""


class StoreFormatError(ReproError, ValueError):
    """An on-disk store or cache file cannot be read by this build.

    Not JSON, not the kind of file the caller expected, an unsupported
    format version, or stored text that no longer decodes.  Also a
    :class:`ValueError`, which is what such files raised before the error
    had a class of its own.
    """
