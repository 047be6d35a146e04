"""Protocol registry: build any protocol by name.

Used by the experiment harnesses and the examples so that command-line
options such as ``--protocol hydee`` map onto protocol objects uniformly.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List

from repro.core.protocol import HydEEProtocol
from repro.errors import ConfigurationError
from repro.ftprotocols.coordinated import CoordinatedCheckpointProtocol
from repro.ftprotocols.hybrid_event_logging import HybridEventLoggingProtocol
from repro.ftprotocols.message_logging import FullMessageLoggingProtocol
from repro.ftprotocols.no_ft import NoFaultToleranceProtocol
from repro.simulator.protocol_api import ProtocolHooks

_FACTORIES: Dict[str, Callable[..., ProtocolHooks]] = {
    "native": NoFaultToleranceProtocol,
    "hydee": HydEEProtocol,
    # The "Message Logging" series of Figure 6: HydEE mechanisms, every
    # message payload logged (clusters are irrelevant to the logged volume).
    "hydee-log-all": partial(HydEEProtocol, log_all_messages=True),
    "coordinated": CoordinatedCheckpointProtocol,
    "message-logging": FullMessageLoggingProtocol,
    "hybrid-event-logging": HybridEventLoggingProtocol,
}


def available_protocols() -> List[str]:
    """Names accepted by :func:`make_protocol`."""
    return sorted(_FACTORIES)


def make_protocol(name: str, **kwargs: Any) -> ProtocolHooks:
    """Instantiate a protocol by name with protocol-specific keyword options."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; available: {', '.join(available_protocols())}"
        ) from None
    return factory(**kwargs)
