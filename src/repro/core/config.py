"""Configuration of the HydEE protocol."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.simulator.network import PiggybackPolicy


@dataclass
class HydEEConfig:
    """Parameters of :class:`repro.core.protocol.HydEEProtocol`.

    Attributes
    ----------
    clusters:
        Partition of the ranks into clusters (list of rank lists).  ``None``
        puts every rank in a single cluster, which degenerates to coordinated
        checkpointing with no logging at all; use
        :mod:`repro.clustering` to compute a good partition from the
        application's communication graph as the paper does with [28].
    checkpoint_interval:
        Take a coordinated cluster checkpoint every N application iterations
        (``None`` disables checkpointing -- useful for pure failure-free
        overhead measurements such as Figures 5 and 6).
    piggyback_policy:
        How the (date, phase) pair is attached to application messages.  The
        paper's prototype inlines it for messages < 1 KiB and ships it as a
        separate message above that threshold (Section V-A).
    piggyback_bytes:
        Wire size of the piggybacked protocol data.  The prototype sends the
        date and the phase (two integers) plus framing; 12 bytes by default.
    log_all_messages:
        Log every message payload regardless of clusters.  This is the
        "Message Logging" configuration of Figure 6 used to show the benefit
        of partial logging; failure containment semantics are unchanged.
    garbage_collect_logs:
        Run the acknowledgement-based log garbage collection of Section III-E
        after each coordinated checkpoint.
    checkpoint_size_bytes:
        Simulated size of one process image (excluding logs).
    """

    clusters: Optional[Sequence[Sequence[int]]] = None
    checkpoint_interval: Optional[int] = None
    piggyback_policy: PiggybackPolicy = PiggybackPolicy.INLINE_SMALL_SEPARATE_LARGE
    piggyback_bytes: int = 12
    log_all_messages: bool = False
    garbage_collect_logs: bool = True
    checkpoint_size_bytes: int = 16 * 1024 * 1024
    #: size of each recovery control message on the wire (accounting only).
    control_message_bytes: int = 32
    #: raise if the application declares itself non-send-deterministic.
    enforce_send_determinism: bool = True

    def __post_init__(self) -> None:
        if self.piggyback_bytes < 0:
            raise ConfigurationError("piggyback_bytes must be >= 0")
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1 or None")
        if self.checkpoint_size_bytes < 0:
            raise ConfigurationError("checkpoint_size_bytes must be >= 0")
