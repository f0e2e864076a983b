"""Fluid-model state extracted from a packet-level :class:`Network`.

A :class:`FluidModel` is the static description the solver integrates:
one :class:`FluidLink` per directed link that appears on any subflow
path (capacity in packets/s plus its queue's marking and drop knees),
and one :class:`FluidSubflow` per (flow, path) pair with the no-load
RTT precomputed from link delays and serialization times.

The extraction goes through the same objects the packet engine runs on
— :meth:`repro.net.network.Network.paths` enumeration, ``Link.delay``,
``Link.rate_bps``, queue ``threshold``/``capacity`` — so the two
backends cannot disagree about the topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.fluid import PACKET_BITS
from repro.net.network import Network
from repro.net.routing import Path
from repro.sim.units import Packets, Seconds

#: Reverse-path (ACK) size used in the no-load RTT: 40 B of TCP/IP
#: header, as in the packet engine's pure-ACK segments.
ACK_BITS = 40 * 8


@dataclass(frozen=True)
class FluidLink:
    """One directed link's fluid state parameters.

    ``ecn_threshold`` is the marking knee for ECN-capable schemes (the
    queue's K, or its capacity when the queue never marks);
    ``drop_threshold`` is the buffer-full knee loss-driven schemes react
    to (always the queue capacity).
    """

    name: str
    #: Service rate in packets/second (rate_bps / PACKET_BITS).
    capacity_pps: float
    ecn_threshold: Packets
    drop_threshold: Packets


@dataclass(frozen=True)
class FluidSubflow:
    """One subflow: its flow id, no-load RTT and forward-path links."""

    flow: int
    base_rtt: Seconds
    #: Indices into :attr:`FluidModel.links`, in hop order.
    links: Tuple[int, ...]


@dataclass(frozen=True)
class FluidModel:
    """The static inputs of one fluid integration."""

    links: Tuple[FluidLink, ...]
    #: Grouped contiguously by flow, flow ids ascending from 0 — the
    #: solvers' per-flow reductions rely on this layout.
    subflows: Tuple[FluidSubflow, ...]
    num_flows: int

    def flow_slices(self) -> List[Tuple[int, int]]:
        """Per-flow ``(start, end)`` index ranges into :attr:`subflows`."""
        slices: List[Tuple[int, int]] = []
        start = 0
        for index, subflow in enumerate(self.subflows):
            if subflow.flow != self.subflows[start].flow:
                slices.append((start, index))
                start = index
        if self.subflows:
            slices.append((start, len(self.subflows)))
        return slices


def model_from_network(
    net: Network, flow_paths: Sequence[Sequence[Path]]
) -> FluidModel:
    """Build a :class:`FluidModel` from per-flow forward-path lists.

    ``flow_paths[f]`` is the list of forward paths (one per subflow) of
    flow ``f``, as returned by :meth:`Network.paths` and the routing
    selectors.  Only links appearing on some forward path become fluid
    links — reverse (ACK) directions contribute their no-load delay but
    carry negligible load, exactly the approximation the shared-link
    model in :mod:`repro.core.fluid` makes.
    """
    link_index: Dict[str, int] = {}
    links: List[FluidLink] = []
    # Per-link no-load RTT terms: propagation plus serialization of a
    # data packet on the link, and of an ACK on its reverse direction.
    forward_terms: List[Seconds] = []
    reverse_terms: List[Seconds] = []
    subflows: List[FluidSubflow] = []
    for flow, paths in enumerate(flow_paths):
        if not paths:
            raise ValueError(f"flow {flow} has no paths")
        for path in paths:
            if not path:
                raise ValueError(f"flow {flow} has an empty path")
            hop_indices = []
            for link in path:
                index = link_index.get(link.name)
                if index is None:
                    index = len(links)
                    link_index[link.name] = index
                    queue = link.queue
                    drop = float(queue.capacity)
                    ecn = float(getattr(queue, "threshold", queue.capacity))
                    links.append(
                        FluidLink(
                            name=link.name,
                            capacity_pps=link.rate_bps / PACKET_BITS,
                            ecn_threshold=ecn,
                            drop_threshold=drop,
                        )
                    )
                    forward_terms.append(
                        link.delay + PACKET_BITS / link.rate_bps
                    )
                    reverse = net.reverse_of(link)
                    reverse_terms.append(
                        reverse.delay + ACK_BITS / reverse.rate_bps
                    )
                hop_indices.append(index)
            # Data out along the path, then ACKs back hop by hop.
            rtt = 0.0
            for index in hop_indices:
                rtt += forward_terms[index]
            for index in reversed(hop_indices):
                rtt += reverse_terms[index]
            subflows.append(
                FluidSubflow(flow=flow, base_rtt=rtt, links=tuple(hop_indices))
            )
    return FluidModel(
        links=tuple(links),
        subflows=tuple(subflows),
        num_flows=len(flow_paths),
    )


__all__ = [
    "ACK_BITS",
    "FluidLink",
    "FluidModel",
    "FluidSubflow",
    "model_from_network",
]
