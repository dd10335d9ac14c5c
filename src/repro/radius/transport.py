"""An in-process datagram fabric standing in for UDP.

RADIUS runs over UDP, which can silently drop packets and has no notion of
connection state; clients compensate with timeouts and retransmission.  The
fabric reproduces exactly that contract for in-process endpoints: servers
register a handler under an address, clients fire a datagram and either get
a response or ``None`` (timeout), with configurable loss and per-address
outage injection for resiliency testing.

Beyond the uniform ``loss_rate`` knob, the fabric exposes a ``chaos`` hook:
a policy object (see :class:`repro.chaos.ChaosEngine`) consulted once per
datagram that may veto delivery with a reason (partition, flap, loss
burst) or inject latency as a side effect.  The hook is how the seeded
fault-injection engine drives scheduled network faults without the fabric
knowing anything about fault plans.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Optional

Handler = Callable[[bytes, str], Optional[bytes]]


@dataclass
class FabricStats:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    no_listener: int = 0


class UDPFabric:
    """Datagram delivery between registered in-process endpoints."""

    def __init__(
        self,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        self.loss_rate = loss_rate
        self._rng = rng or random.Random()
        self._listeners: Dict[str, Handler] = {}
        self._down: set = set()
        self.stats = FabricStats()
        #: Optional chaos policy with ``on_datagram(address, source)`` →
        #: drop-reason string or None; installed by the chaos engine.
        self.chaos = None

    def register(self, address: str, handler: Handler) -> None:
        """Bind ``handler`` to ``address`` (e.g. ``"10.0.1.5:1812"``)."""
        if address in self._listeners:
            raise ValueError(f"address {address} already bound")
        self._listeners[address] = handler

    def unregister(self, address: str) -> None:
        """Release ``address``; raises like :meth:`register` does for the
        symmetric mistake (unbinding something that was never bound)."""
        if address not in self._listeners:
            raise ValueError(f"address {address} not bound")
        del self._listeners[address]

    def is_registered(self, address: str) -> bool:
        return address in self._listeners

    def set_down(self, address: str, down: bool = True) -> None:
        """Simulate a server outage: datagrams to a down address vanish."""
        if down:
            self._down.add(address)
        else:
            self._down.discard(address)

    def is_down(self, address: str) -> bool:
        return address in self._down

    def snapshot(self) -> Dict[str, object]:
        """The ``fabric`` section of the status view: the datagram tallies,
        how many endpoints are bound and which addresses are down."""
        return {
            **asdict(self.stats),
            "listeners": len(self._listeners),
            "down": sorted(self._down),
        }

    def send_request(self, address: str, datagram: bytes, source: str = "") -> Optional[bytes]:
        """Send and wait one round trip.  ``None`` means timeout — the
        datagram or its response was lost, the server is down, or nothing
        is listening.  Matches blocking-with-timeout UDP client behaviour."""
        self.stats.sent += 1
        if address not in self._listeners:
            self.stats.no_listener += 1
            return None
        if address in self._down:
            self.stats.dropped += 1
            return None
        if self.chaos is not None:
            if self.chaos.on_datagram(address, source) is not None:
                self.stats.dropped += 1
                return None
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.stats.dropped += 1
            return None
        response = self._listeners[address](datagram, source)
        if response is None:
            return None
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.stats.dropped += 1
            return None
        self.stats.delivered += 1
        return response
