"""The :class:`Network` container: nodes, links and path caching.

A ``Network`` owns the simulator plus every node and link, provides the
builder methods topologies use (:meth:`add_host`, :meth:`add_switch`,
:meth:`connect`), and caches shortest-path enumeration between host pairs
(topologies are static for the lifetime of an experiment).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.link import Link
from repro.net.node import Host, Node, Switch
from repro.net.queue import DropTailQueue
from repro.net.routing import MAX_PATHS, Path, enumerate_paths
from repro.sim import taps
from repro.sim.engine import Simulator
from repro.sim.units import BitsPerSecond, Seconds

QueueFactory = Callable[[], DropTailQueue]


class Network:
    """A static topology plus the simulator it runs on."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}
        self.links: List[Link] = []
        self.adjacency: Dict[Node, List[Link]] = {}
        self._path_cache: Dict[Tuple[str, str, int], List[Path]] = {}
        self._reverse: Dict[Link, Link] = {}
        self._next_flow_id = 0
        for kind in taps.KINDS:
            tap = taps.active(kind)
            if tap is not None:
                tap.attach(self.sim)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_host(self, name: str) -> Host:
        """Create and register a host; names must be unique."""
        self._check_name(name)
        host = Host(self.sim, name)
        self.hosts[name] = host
        self.adjacency[host] = []
        return host

    def add_switch(self, name: str) -> Switch:
        """Create and register a switch; names must be unique."""
        self._check_name(name)
        switch = Switch(self.sim, name)
        self.switches[name] = switch
        self.adjacency[switch] = []
        return switch

    def connect(
        self,
        a: Node,
        b: Node,
        rate_bps: BitsPerSecond,
        delay: Seconds,
        queue_factory: Optional[QueueFactory] = None,
        layer: str = "",
    ) -> Tuple[Link, Link]:
        """Create a bidirectional link (two unidirectional :class:`Link`).

        Each direction gets its own queue from ``queue_factory`` (defaults
        to a 100-packet DropTail), so congestion in one direction never
        interferes with the other — as with real full-duplex ports.
        """
        forward = self.add_link(a, b, rate_bps, delay, queue_factory, layer)
        backward = self.add_link(b, a, rate_bps, delay, queue_factory, layer)
        self._reverse[forward] = backward
        self._reverse[backward] = forward
        return forward, backward

    def add_link(
        self,
        src: Node,
        dst: Node,
        rate_bps: BitsPerSecond,
        delay: Seconds,
        queue_factory: Optional[QueueFactory] = None,
        layer: str = "",
    ) -> Link:
        """Create a single unidirectional link from ``src`` to ``dst``."""
        queue = queue_factory() if queue_factory is not None else DropTailQueue()
        name = f"{src.name}->{dst.name}"
        link = Link(self.sim, name, src, dst, rate_bps, delay, queue, layer=layer)
        self.links.append(link)
        self.adjacency.setdefault(src, []).append(link)
        self._path_cache.clear()
        validator = taps.active(taps.VALIDATE)
        if validator is not None:
            validator.watch_link(link)
        return link

    def _check_name(self, name: str) -> None:
        if name in self.hosts or name in self.switches:
            raise ValueError(f"duplicate node name: {name}")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        return self.hosts[name]

    def switch(self, name: str) -> Switch:
        """Look up a switch by name."""
        return self.switches[name]

    def paths(
        self, src: str, dst: str, max_paths: int = MAX_PATHS
    ) -> List[Path]:
        """All shortest paths between two hosts, cached per ``max_paths``."""
        key = (src, dst, max_paths)
        cached = self._path_cache.get(key)
        if cached is None:
            cached = enumerate_paths(
                self.adjacency, self.hosts[src], self.hosts[dst], max_paths
            )
            self._path_cache[key] = cached
        return cached

    def reverse_of(self, link: Link) -> Link:
        """The opposite direction of a link created with :meth:`connect`."""
        try:
            return self._reverse[link]
        except KeyError:
            raise ValueError(
                f"link {link.name} has no reverse; use connect() for "
                "bidirectional links"
            ) from None

    def reverse_path(self, path: Path) -> Path:
        """The hop-by-hop reverse of a forward path (for ACKs)."""
        return tuple(self.reverse_of(link) for link in reversed(path))

    def set_link_pair_down(self, link: Link) -> None:
        """Take both directions of a link down (Fig. 7's 'L3 is closed')."""
        link.set_down()
        self.reverse_of(link).set_down()

    def set_link_pair_up(self, link: Link) -> None:
        """Bring both directions of a link back up."""
        link.set_up()
        self.reverse_of(link).set_up()

    def next_flow_id(self) -> int:
        """Allocate a network-unique flow identifier."""
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        return flow_id

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def links_by_layer(self, layer: str) -> List[Link]:
        """All links tagged with ``layer`` (see topology builders)."""
        return [link for link in self.links if link.layer == layer]

    def total_dropped(self) -> int:
        """Total packets dropped across every queue."""
        return sum(link.queue.stats.dropped for link in self.links)

    def total_marked(self) -> int:
        """Total packets CE-marked across every queue."""
        return sum(link.queue.stats.marked for link in self.links)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Network(hosts={len(self.hosts)}, switches={len(self.switches)}, "
            f"links={len(self.links)})"
        )


__all__ = ["Network", "QueueFactory"]
