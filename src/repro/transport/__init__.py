"""Self-stabilizing reliable transport beneath the multicast protocols.

See :mod:`repro.transport.reliable` for the protocol; mounted by
``SystemSpec(transport="reliable")`` (a ``ScenarioSpec`` is one).
"""

from repro.transport.reliable import (
    ACK_KIND,
    ReliableTransport,
    TransportStats,
)

#: Transport modes accepted by ``SystemSpec``.
TRANSPORTS = ("none", "reliable")

__all__ = ["ACK_KIND", "ReliableTransport", "TransportStats", "TRANSPORTS"]
