"""Unidirectional store-and-forward links.

A :class:`Link` models one direction of a cable: packets entering an idle
link begin serialization immediately; otherwise they wait in the link's
egress queue.  When serialization finishes, the packet propagates for
``delay`` seconds and is then delivered to the destination node, and the
next waiting packet (if any) starts serializing.

This is the standard NS-3-style point-to-point model the paper's
simulations used: per-egress-port queue + transmitter + propagation.

Service is exact: one serialization-finish event per packet, so link
state (busy flag, byte counters, queue occupancy) changes at exactly the
instants hardware would change it, and the golden traces pin its event
order bit-for-bit.  Per-packet events go through
:meth:`Simulator.post` — they are never cancelled, so no
:class:`~repro.sim.events.Event` handle is allocated for them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.units import BitsPerSecond, Seconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.sim.engine import Simulator


class Link:
    """One direction of a point-to-point link."""

    __slots__ = (
        "sim",
        "name",
        "src",
        "dst",
        "rate_bps",
        "delay",
        "queue",
        "up",
        "busy",
        "bytes_transmitted",
        "packets_transmitted",
        "bytes_offered",
        "layer",
        "observer",
        "_deliver",
        "_serve",
    )

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        src: "Node",
        dst: "Node",
        rate_bps: BitsPerSecond,
        delay: Seconds,
        queue: Optional[DropTailQueue] = None,
        layer: str = "",
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if delay < 0:
            raise ValueError(f"propagation delay must be >= 0, got {delay}")
        self.sim = sim
        self.name = name
        self.src = src
        self.dst = dst
        self.rate_bps = rate_bps
        self.delay = delay
        self.queue = queue if queue is not None else DropTailQueue()
        self.up = True
        self.busy = False
        self.bytes_transmitted = 0
        self.packets_transmitted = 0
        self.bytes_offered = 0
        self.layer = layer
        #: Validation observer storage (see :mod:`repro.validate`): the
        #: slot lives here so a watched link's generated subclass shares
        #: this layout; the transmit path never consults it (the
        #: observed subclass wraps ``_finish_transmission``).
        self.observer = None
        self._deliver = dst.receive
        self._serve = self._finish_transmission

    def _rebind(self) -> None:
        """Refresh the pre-bound hot-path callbacks.

        The transmit path passes two bound methods into
        :meth:`Simulator.post` for every served packet (the destination's
        ``receive`` and this link's ``_finish_transmission``); binding
        them once per link instead of once per packet removes a
        method-object allocation from each post.  Anything that changes
        where those lookups must land — swapping ``__class__`` for a
        validation subclass (:meth:`repro.validate.invariants.SimObserver.
        watch_link`) or replacing ``dst`` — must call this afterwards.
        """
        self._deliver = self.dst.receive
        self._serve = self._finish_transmission

    # ------------------------------------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to the link; returns ``False`` if dropped.

        A down link silently discards everything (the Fig. 7 "L3 is closed"
        event); senders discover this through their retransmission timers,
        exactly as they would in a real network.
        """
        self.bytes_offered += packet.size
        if not self.up:
            self.queue.stats.dropped += 1
            return False
        if self.busy:
            return self.queue.accept(packet)
        # Idle transmitter: the packet bypasses the queue and starts
        # serializing right away (the queue only ever holds *waiting*
        # packets, which is what the marking threshold is compared to).
        self.busy = True
        self.sim.post(packet.size * 8.0 / self.rate_bps, self._serve, packet)
        return True

    def set_down(self) -> None:
        """Take the link down, discarding queued packets."""
        self.up = False
        while self.queue.pop() is not None:
            self.queue.stats.dropped += 1

    def set_up(self) -> None:
        """Bring the link back up."""
        self.up = True

    @property
    def occupancy(self) -> int:
        """Waiting packets (the quantity the paper's K is compared to)."""
        return self.queue.occupancy

    def utilization(self, duration: float) -> float:
        """Fraction of capacity used over ``duration`` seconds."""
        if duration <= 0:
            return 0.0
        return min(1.0, self.bytes_transmitted * 8.0 / (self.rate_bps * duration))

    # ------------------------------------------------------------------

    def _finish_transmission(self, packet: Packet) -> None:
        # The per-packet hot path: serialization start is fused into this
        # handler (and into `enqueue` for idle links) so each served
        # packet costs exactly one callback plus two posts.
        if self.up:
            sim = self.sim
            self.bytes_transmitted += packet.size
            self.packets_transmitted += 1
            sim.post(self.delay, self._deliver, packet)
            next_packet = self.queue.pop()
            if next_packet is not None:
                sim.post(
                    next_packet.size * 8.0 / self.rate_bps,
                    self._serve,
                    next_packet,
                )
                return
            self.busy = False
            return
        self.queue.pop()
        self.busy = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return f"Link({self.name}, {self.rate_bps/1e9:.3f}Gbps, {state})"


__all__ = ["Link"]
