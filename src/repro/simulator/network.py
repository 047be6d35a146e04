"""Analytic network performance models.

The paper's prototype runs over Myrinet 10G with MPICH2/nemesis.  Figure 5 is
entirely explained by two mechanisms that this module reproduces:

* the native latency curve of MPICH2 over MX has *plateaus* (e.g. ~3.3 us for
  1--32 byte messages, then a jump to ~4 us); piggybacking the HydEE date and
  phase on small messages pushes a message into the next plateau earlier than
  the native library, which produces the two degradation peaks of Figure 5;
* for messages above 1 KiB the prototype ships the protocol data in a
  *separate* message to avoid a non-contiguous memory copy, so large messages
  only pay one extra small-message latency, which is negligible relative to
  their transfer time;
* sender-based payload logging is a ``memcpy`` overlapped with the network
  transfer; its visible cost is close to zero because host memory bandwidth
  exceeds the 10G link bandwidth (the paper cites Bosilca et al. [6]).

The models below are deliberately simple, piecewise-analytic functions -- the
goal is to reproduce the *shape* of the paper's curves, not to be a
cycle-accurate NIC model.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError


class PiggybackPolicy(Enum):
    """How protocol metadata is attached to application messages.

    ``INLINE_SMALL_SEPARATE_LARGE`` is the policy described in Section V-A of
    the paper: below the threshold the metadata is added as an extra segment
    of the same message (increasing its wire size); above the threshold a
    separate small control message is sent to avoid an extra memory copy.
    """

    NONE = "none"
    INLINE = "inline"
    SEPARATE = "separate"
    INLINE_SMALL_SEPARATE_LARGE = "inline-small-separate-large"


def _check_time(name: str, value: float) -> None:
    """Reject a negative or non-finite duration (or count of round trips)."""
    if not (math.isfinite(value) and value >= 0):
        raise ConfigurationError(f"{name} must be finite and >= 0 (got {value!r})")


@dataclass
class NetworkModel:
    """Base latency/bandwidth network model.

    Time to move a message of ``n`` bytes from one rank to another is::

        latency(n) + n / bandwidth

    ``latency`` may be a piecewise-constant function of the size (plateaus),
    which is what creates the characteristic steps of MPI latency curves.

    Attributes
    ----------
    bandwidth_bytes_per_s:
        Sustained point-to-point bandwidth.
    latency_plateaus:
        Sorted list of ``(max_size_bytes, latency_seconds)`` pairs.  The
        latency of a message is the latency of the first plateau whose
        ``max_size_bytes`` is >= the wire size.  The last entry must have
        ``max_size_bytes == None`` (catch-all).
    send_overhead_s / recv_overhead_s:
        Host CPU occupancy per message on each side (independent of size).
    memcpy_bandwidth_bytes_per_s:
        Host memory-copy bandwidth, used to price sender-based logging.
    memcpy_overlap_fraction:
        Fraction of the logging memcpy hidden behind the network transfer
        (1.0 means fully overlapped, the idealised claim of [6]).
    eager_threshold_bytes:
        Messages above this size use a rendezvous handshake costing one extra
        round-trip of the minimal latency.
    """

    bandwidth_bytes_per_s: float = 1.25e9  # 10 Gbit/s
    latency_plateaus: List[Tuple[int, float]] = field(
        default_factory=lambda: [(1024, 3.3e-6), (65536, 5.0e-6), (0, 8.0e-6)]
    )
    send_overhead_s: float = 0.2e-6
    recv_overhead_s: float = 0.2e-6
    memcpy_bandwidth_bytes_per_s: float = 6.0e9
    memcpy_overlap_fraction: float = 0.95
    eager_threshold_bytes: int = 32 * 1024
    rendezvous_extra_rtts: float = 1.0

    def __post_init__(self) -> None:
        # Every parameter is checked here: a bad value that gets through
        # surfaces deep inside a run instead (an event scheduled in the past,
        # a non-finite delay, a division by zero).  ``not (x > 0)`` also
        # rejects NaN.
        if not self.bandwidth_bytes_per_s > 0:
            raise ConfigurationError("bandwidth must be positive")
        if not self.latency_plateaus:
            raise ConfigurationError("latency_plateaus must not be empty")
        for _, latency in self.latency_plateaus:
            _check_time("latency_plateaus latency", latency)
        _check_time("send_overhead_s", self.send_overhead_s)
        _check_time("recv_overhead_s", self.recv_overhead_s)
        if not self.memcpy_bandwidth_bytes_per_s > 0:
            raise ConfigurationError(
                "memcpy_bandwidth_bytes_per_s must be positive "
                f"(got {self.memcpy_bandwidth_bytes_per_s!r})"
            )
        if not 0.0 <= self.memcpy_overlap_fraction <= 1.0:
            raise ConfigurationError(
                "memcpy_overlap_fraction must lie in [0, 1] "
                f"(got {self.memcpy_overlap_fraction!r})"
            )
        _check_time("rendezvous_extra_rtts", self.rendezvous_extra_rtts)
        # Normalise: entries sorted by max size, catch-all (0 -> unbounded) last.
        finite = sorted([p for p in self.latency_plateaus if p[0] > 0])
        unbounded = [p for p in self.latency_plateaus if p[0] <= 0]
        if not unbounded:
            raise ConfigurationError(
                "latency_plateaus needs a catch-all entry with max_size <= 0"
            )
        self._plateau_limits = [p[0] for p in finite]
        self._plateau_latencies = [p[1] for p in finite] + [unbounded[-1][1]]

    # ------------------------------------------------------------------ API
    def latency(self, wire_bytes: int) -> float:
        """Latency (s) of a message of ``wire_bytes`` on the wire."""
        idx = bisect.bisect_left(self._plateau_limits, wire_bytes)
        return self._plateau_latencies[idx]

    def min_latency(self) -> float:
        return min(self._plateau_latencies)

    def transfer_time(self, wire_bytes: int) -> float:
        """End-to-end time for one message of ``wire_bytes`` (no contention)."""
        t = self.latency(wire_bytes) + wire_bytes / self.bandwidth_bytes_per_s
        if wire_bytes > self.eager_threshold_bytes:
            t += self.rendezvous_extra_rtts * 2.0 * self.min_latency()
        return t

    def memcpy_time(self, nbytes: int) -> float:
        """Visible (non-overlapped) cost of copying ``nbytes`` into a log buffer."""
        raw = nbytes / self.memcpy_bandwidth_bytes_per_s
        return raw * (1.0 - self.memcpy_overlap_fraction)

    def piggyback_cost(
        self, app_bytes: int, piggyback_bytes: int, policy: PiggybackPolicy
    ) -> Tuple[int, float]:
        """Return ``(extra_wire_bytes, extra_latency)`` for attaching metadata.

        * ``INLINE`` grows the message on the wire.
        * ``SEPARATE`` sends a dedicated small message alongside the data.
          Its network time is pipelined with (and hidden behind) the much
          larger payload transfer, so the visible cost is only the extra
          sender-side injection overhead.
        * ``INLINE_SMALL_SEPARATE_LARGE`` applies the paper's hybrid rule with
          a 1 KiB threshold (Section V-A).
        """
        if policy is PiggybackPolicy.NONE or piggyback_bytes <= 0:
            return 0, 0.0
        if policy is PiggybackPolicy.INLINE:
            return piggyback_bytes, 0.0
        if policy is PiggybackPolicy.SEPARATE:
            return 0, self.send_overhead_s
        if policy is PiggybackPolicy.INLINE_SMALL_SEPARATE_LARGE:
            if app_bytes < 1024:
                return piggyback_bytes, 0.0
            return 0, self.send_overhead_s
        raise ConfigurationError(f"unknown piggyback policy: {policy!r}")


@dataclass
class MyrinetMXModel(NetworkModel):
    """Myrinet 10G / MX model matching the paper's testbed numbers.

    The native MPICH2 latency quoted in Section V-C is ~3.3 us for 1--32 byte
    messages, jumping to ~4 us afterwards; bandwidth approaches 10 Gbit/s for
    large messages.  The plateau structure below reproduces that behaviour;
    exact plateau boundaries beyond the first are chosen to give the familiar
    MX step curve.
    """

    bandwidth_bytes_per_s: float = 1.2e9
    latency_plateaus: List[Tuple[int, float]] = field(
        default_factory=lambda: [
            (32, 3.3e-6),
            (128, 4.0e-6),
            (1024, 4.6e-6),
            (4096, 6.5e-6),
            (32768, 12.0e-6),
            (0, 20.0e-6),
        ]
    )
    send_overhead_s: float = 0.15e-6
    recv_overhead_s: float = 0.15e-6
    memcpy_bandwidth_bytes_per_s: float = 5.0e9
    memcpy_overlap_fraction: float = 0.97
    eager_threshold_bytes: int = 32 * 1024


@dataclass
class EthernetTCPModel(NetworkModel):
    """A commodity gigabit-Ethernet/TCP model (used in sensitivity tests)."""

    bandwidth_bytes_per_s: float = 1.1e8
    latency_plateaus: List[Tuple[int, float]] = field(
        default_factory=lambda: [(64, 25.0e-6), (1024, 30.0e-6), (0, 45.0e-6)]
    )
    send_overhead_s: float = 1.0e-6
    recv_overhead_s: float = 1.0e-6
    memcpy_bandwidth_bytes_per_s: float = 5.0e9
    memcpy_overlap_fraction: float = 0.9
    eager_threshold_bytes: int = 64 * 1024


class RoutedNetworkModel:
    """Topology-aware facade over a flat :class:`NetworkModel`.

    Endpoint costs (latency plateaus, overheads, rendezvous, piggyback,
    logging memcpy) come from the wrapped flat model; the transfer itself is
    routed over the :class:`~repro.topology.topology.Topology` and
    serialized on shared links by a deterministic
    :class:`~repro.topology.contention.ContentionModel`.

    The degenerate flat topology has no links, so ``routed_arrival`` reduces
    to ``start + base.transfer_time(wire)`` -- byte-identical to running the
    flat model directly.  Every other :class:`NetworkModel` attribute and
    method is delegated to the wrapped model, so protocols and processes use
    a routed model transparently.

    Contention state (per-link busy-until) is per simulation run and lives
    in the transport, which passes its own
    :class:`~repro.topology.contention.ContentionModel` to every
    :meth:`routed_arrival`; one model instance can back many simulations.
    """

    def __init__(self, base: NetworkModel, topology) -> None:
        from repro.topology import Topology

        if not isinstance(base, NetworkModel):
            raise ConfigurationError(
                f"RoutedNetworkModel wraps a flat NetworkModel, got {type(base).__name__}"
            )
        if not isinstance(topology, Topology):
            raise ConfigurationError(
                f"RoutedNetworkModel needs a Topology, got {type(topology).__name__}"
            )
        self.base = base
        self.topology = topology
        # Hot-path bindings: routed_arrival runs once per message, so the
        # wrapped model's methods/thresholds are resolved once here, and the
        # per-(src, dst) link chains are memoised locally instead of
        # re-deriving them through the topology for every message.
        self._route_of: Dict[Tuple[int, int], Any] = {}
        self._base_transfer_time = base.transfer_time
        self._base_latency = base.latency
        self._eager_threshold = base.eager_threshold_bytes
        self._rendezvous_cost = base.rendezvous_extra_rtts * 2.0 * base.min_latency()

    # The endpoint overheads are read once per message: properties, not the
    # __getattr__ fallback, which only runs after a failed attribute lookup.
    # They read the base on every call, so a later change to it stays visible.
    @property
    def send_overhead_s(self) -> float:
        return self.base.send_overhead_s

    @property
    def recv_overhead_s(self) -> float:
        return self.base.recv_overhead_s

    def __getattr__(self, name: str):
        # Fallback delegation: everything else the flat model exposes
        # (transfer_time, latency, piggyback_cost, ...).
        return getattr(self.base, name)

    def routed_arrival(
        self,
        source: int,
        dest: int,
        wire_bytes: int,
        start: float,
        contention,
    ) -> Tuple[float, float]:
        """Arrival time of a message injected at ``start``.

        Returns ``(arrival_time, contention_wait)``.  The endpoint software
        latency (and rendezvous handshake, if any) is charged before the
        message occupies its first link, mirroring the flat model's
        ``transfer_time`` decomposition.

        The reservation lands in ``contention``, the caller's per-run
        :class:`~repro.topology.contention.ContentionModel`.
        """
        key = (source, dest)
        path = self._route_of.get(key)
        if path is None:
            path = self._route_of[key] = self.topology.route(source, dest)
        if not path:
            return start + self._base_transfer_time(wire_bytes), 0.0
        inject = start + self._base_latency(wire_bytes)
        if wire_bytes > self._eager_threshold:
            inject += self._rendezvous_cost
        return contention.reserve(path, wire_bytes, inject)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RoutedNetworkModel({type(self.base).__name__}, {self.topology!r})"


def pingpong_half_round_trip(model: NetworkModel, wire_bytes: int) -> float:
    """Half round-trip time of a ping-pong with ``wire_bytes`` messages.

    This is the quantity NetPIPE reports as "latency"; bandwidth is derived as
    ``wire_bytes / half_round_trip``.
    """
    one_way = (
        model.send_overhead_s + model.transfer_time(wire_bytes) + model.recv_overhead_s
    )
    return one_way


def netpipe_sizes(max_bytes: int = 8 * 1024 * 1024, perturbation: int = 3) -> Sequence[int]:
    """Message sizes swept by the NetPIPE-style experiments (1 B .. 8 MiB).

    Powers of two up to ``max_bytes``; above 16 B each power of two also
    gets ``size - perturbation`` and ``size + perturbation`` probe points
    (NetPIPE's trick for catching latency-plateau edges that sit just off
    the power-of-two sizes).
    """
    sizes = set()
    size = 1
    while size <= max_bytes:
        sizes.add(size)
        if size > 16 and perturbation > 0:
            for probe in (size - perturbation, size + perturbation):
                if 1 <= probe <= max_bytes:
                    sizes.add(probe)
        size *= 2
    return sorted(sizes)
