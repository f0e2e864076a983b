"""The k-ary fat tree (Al-Fares et al., SIGCOMM 2008) the paper evaluates in.

For port count ``k`` (even): ``k`` pods; each pod has ``k/2`` edge (rack)
switches and ``k/2`` aggregation switches; ``(k/2)^2`` core switches; each
edge switch hosts ``k/2`` machines.  Between inter-pod hosts there are
``(k/2)^2`` equal-cost paths — the path diversity MPTCP exploits.

The paper's instance is k=8 (128 hosts, 80 switches); our experiments
default to k=4 (16 hosts, 20 switches) for wall-clock reasons, with the
per-link parameters kept at the paper's values: 1 Gbps everywhere, one-way
delays of 20/30/40 µs at the rack/aggregation/core layer (no-load RTTs
between ~80 µs inner-rack and ~360 µs inter-pod plus serialization — the
paper's "105 µs to 435 µs"), marking threshold K=10, queues of 100 packets.

Hosts are named ``h_<pod>_<edge>_<index>``; link layers are tagged
``rack`` / ``aggregation`` / ``core`` for Fig. 11's per-layer utilization.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.net.link import Link
from repro.net.network import Network
from repro.net.queue import DropTailQueue, ThresholdECNQueue
from repro.net.routing import MAX_PATHS, Path
from repro.sim.units import BitsPerSecond, Seconds


class FatTreeNetwork(Network):
    """Network plus fat-tree metadata (k, host naming, flow categories)."""

    def __init__(self) -> None:
        super().__init__()
        self.k = 0
        self.host_names: List[str] = []
        #: Per-port rate; set by :func:`build_fattree` (paper: 1 Gbps).
        self.link_rate_bps: BitsPerSecond = 0.0
        # Link tables filled by build_fattree; see "Paths by index".
        self._host_links: Dict[str, Tuple[int, int, Link, Link]] = {}
        self._edge_up: List[List[List[Link]]] = []
        self._agg_down: List[List[List[Link]]] = []
        self._agg_up: List[List[List[Link]]] = []
        self._core_down: List[List[Link]] = []

    def bisection_bandwidth_bps(self) -> BitsPerSecond:
        """Full bisection bandwidth of the rearrangeably non-blocking tree.

        A k-ary fat tree hosts ``k^3/4`` machines and can carry half of
        them sending full-rate across the bisection: ``(k^3/8) * rate``.
        The workload layer's load calibration
        (:func:`repro.workloads.arrivals.workload_capacity_bps`) doubles
        this back to the aggregate host access bandwidth.
        """
        return (self.k ** 3 / 8.0) * self.link_rate_bps

    @staticmethod
    def parse_host(name: str) -> Tuple[int, int, int]:
        """``h_<pod>_<edge>_<index>`` -> (pod, edge, index)."""
        _, pod, edge, index = name.split("_")
        return int(pod), int(edge), int(index)

    def category(self, src: str, dst: str) -> str:
        """The paper's flow categories (§5.2.2).

        ``inner-rack`` (same edge switch), ``inter-rack`` (same pod,
        different racks) or ``inter-pod``.
        """
        src_pod, src_edge, _ = self.parse_host(src)
        dst_pod, dst_edge, _ = self.parse_host(dst)
        if src_pod != dst_pod:
            return "inter-pod"
        if src_edge != dst_edge:
            return "inter-rack"
        return "inner-rack"

    def same_rack(self, src: str, dst: str) -> bool:
        """Whether two hosts hang off the same edge switch."""
        return self.category(src, dst) == "inner-rack"

    # ------------------------------------------------------------------
    # Paths by index
    # ------------------------------------------------------------------
    #
    # Fat-tree shortest paths are fully determined by the host
    # coordinates, so no search is needed.  build_fattree records every
    # link in coordinate-indexed tables as it connects:
    #
    #   _host_links[host]     (pod, edge, host->edge, edge->host)
    #   _edge_up[pod][e][a]   edge_<pod>_<e> -> agg_<pod>_<a>
    #   _agg_down[pod][a][e]  agg_<pod>_<a> -> edge_<pod>_<e>
    #   _agg_up[pod][a][j]    agg_<pod>_<a> -> core_<a>_<j>
    #   _core_down[c][pod]    core number c = a*half + j -> agg_<pod>_<a>
    #
    # Path ``i`` between two hosts is then an O(1) lookup: ``i`` is the
    # aggregation switch for an inter-rack pair and ``divmod(i, half)``
    # = (aggregation switch, core) for an inter-pod pair.  That index
    # order is the order the generic BFS+DFS of repro.net.routing
    # enumerates paths in (aggregation switches ascending, then cores
    # ascending — the adjacency insertion order of build_fattree).  It
    # must be kept: selectors draw indices into it, so any other order
    # would hand ECMP/DistinctPath different links and change every
    # golden trace (pinned by tests/test_fluid_backend.py).  Callers that
    # keep only a few paths per flow (the fluid backend) pick indices
    # with PathSelector.choose and build just those paths.

    def path_count(self, src: str, dst: str) -> int:
        """Number of shortest paths between two hosts."""
        src_pod, src_edge, _, _ = self._host_links[src]
        dst_pod, dst_edge, _, _ = self._host_links[dst]
        if src_pod != dst_pod:
            half = self.k // 2
            return half * half
        if src_edge != dst_edge:
            return self.k // 2
        return 1

    def path(self, src: str, dst: str, i: int) -> Path:
        """The ``i``-th shortest path between two hosts, in DFS order."""
        src_pod, src_edge, up, _ = self._host_links[src]
        dst_pod, dst_edge, _, down = self._host_links[dst]
        if not 0 <= i < self.path_count(src, dst):
            raise IndexError(f"path index {i} out of range for {src}->{dst}")
        if src == dst:
            return ()
        if src_pod == dst_pod:
            if src_edge == dst_edge:
                return (up, down)
            return (
                up,
                self._edge_up[src_pod][src_edge][i],
                self._agg_down[src_pod][i][dst_edge],
                down,
            )
        agg, core = divmod(i, self.k // 2)
        return (
            up,
            self._edge_up[src_pod][src_edge][agg],
            self._agg_up[src_pod][agg][core],
            self._core_down[i][dst_pod],
            self._agg_down[dst_pod][agg][dst_edge],
            down,
        )

    def paths(
        self, src: str, dst: str, max_paths: int = MAX_PATHS
    ) -> List[Path]:
        """All shortest paths, built from the link tables for host pairs.

        Endpoints that :func:`build_fattree` did not create as hosts
        (switches, hosts added afterwards) fall back to the generic BFS
        enumeration of :class:`~repro.net.network.Network`.
        """
        if src not in self._host_links or dst not in self._host_links:
            return super().paths(src, dst, max_paths)
        key = (src, dst, max_paths)
        cached = self._path_cache.get(key)
        if cached is None:
            count = min(self.path_count(src, dst), max_paths)
            cached = [self.path(src, dst, i) for i in range(count)]
            self._path_cache[key] = cached
        return cached


def build_fattree(
    k: int = 4,
    link_rate_bps: BitsPerSecond = 1e9,
    rack_delay: Seconds = 20e-6,
    aggregation_delay: Seconds = 30e-6,
    core_delay: Seconds = 40e-6,
    queue_capacity: int = 100,
    marking_threshold: int = 10,
) -> FatTreeNetwork:
    """Build a k-ary fat tree with the paper's §5.2.1 defaults."""
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be an even integer >= 2, got {k}")
    net = FatTreeNetwork()
    net.k = k
    net.link_rate_bps = link_rate_bps
    half = k // 2

    def queue() -> DropTailQueue:
        return ThresholdECNQueue(queue_capacity, marking_threshold)

    cores = [
        net.add_switch(f"core_{i}_{j}") for i in range(half) for j in range(half)
    ]
    net._core_down = [[] for _ in cores]

    for pod in range(k):
        aggs = [net.add_switch(f"agg_{pod}_{a}") for a in range(half)]
        edges = [net.add_switch(f"edge_{pod}_{e}") for e in range(half)]
        edge_up: List[List[Link]] = [[] for _ in edges]
        agg_up: List[List[Link]] = []
        agg_down: List[List[Link]] = []
        for a, agg in enumerate(aggs):
            to_cores: List[Link] = []
            to_edges: List[Link] = []
            # Aggregation switch a connects to cores a*half .. a*half+half-1.
            for j in range(half):
                c = a * half + j
                to_core, from_core = net.connect(
                    agg, cores[c], link_rate_bps, core_delay,
                    queue_factory=queue, layer="core")
                to_cores.append(to_core)
                net._core_down[c].append(from_core)
            for e, edge in enumerate(edges):
                to_agg, from_agg = net.connect(
                    edge, agg, link_rate_bps, aggregation_delay,
                    queue_factory=queue, layer="aggregation")
                edge_up[e].append(to_agg)
                to_edges.append(from_agg)
            agg_up.append(to_cores)
            agg_down.append(to_edges)
        net._edge_up.append(edge_up)
        net._agg_up.append(agg_up)
        net._agg_down.append(agg_down)
        for e, edge in enumerate(edges):
            for h in range(half):
                host = net.add_host(f"h_{pod}_{e}_{h}")
                up, down = net.connect(host, edge, link_rate_bps, rack_delay,
                                       queue_factory=queue, layer="rack")
                net._host_links[host.name] = (pod, e, up, down)
                net.host_names.append(host.name)
    return net


__all__ = ["FatTreeNetwork", "build_fattree"]
