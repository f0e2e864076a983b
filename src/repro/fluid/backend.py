"""The ``fluid`` experiment kind: RunSpec-compatible fluid scenarios.

A :class:`FluidScenario` is a frozen config like any packet scenario —
hashable, picklable, content-fingerprintable — so fluid cells run
through the same Campaign/cache/telemetry machinery.  ``_simulate``
builds the *same* topology the packet engine would (via
``repro.topology``), extracts the fluid model from its links and path
enumeration, and integrates it.

Scenario knobs deliberately mirror the packet drivers: ``bottleneck``
is the Fig. 1 dumbbell (N pairs, one marked link), ``fattree`` the
§5.2 fabric under a permutation of long-lived flows.  The ``solver``
choice is part of the spec (and so of the cache fingerprint): reference
and vector solvers agree only to integration tolerance, and a cache
key must name the arithmetic that produced its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.bos import DEFAULT_BETA
from repro.core.fluid import PACKET_BITS, SAMPLE_STRIDE
from repro.fluid.laws import FLUID_SCHEMES
from repro.fluid.model import model_from_network
from repro.fluid.solver import SOLVERS, FluidTrajectory, integrate_model
from repro.net.routing import MAX_PATHS, DistinctPathSelector, Path
from repro.sim.random import RandomStreams
from repro.sim.units import (
    BitsPerSecond,
    Seconds,
    gigabits_per_second,
    microseconds,
    seconds,
)
from repro.topology.bottleneck import build_single_bottleneck
from repro.topology.fattree import build_fattree

TOPOLOGIES = ("bottleneck", "fattree")


@dataclass(frozen=True)
class FluidScenario:
    """One fluid cell: scheme x topology x flow population."""

    scheme: str = "xmp"
    topology: str = "bottleneck"
    #: Long-lived flows; every flow runs for the whole horizon.
    flows: int = 4
    subflows: int = 1
    duration: Seconds = seconds(0.2)
    dt: Seconds = seconds(2e-5)
    beta: float = DEFAULT_BETA
    #: Fat-tree port count (``topology="fattree"`` only).
    k: int = 4
    link_rate_bps: BitsPerSecond = gigabits_per_second(1)
    #: No-load RTT of the dumbbell (``topology="bottleneck"`` only).
    base_rtt: Seconds = microseconds(225)
    marking_threshold: int = 10
    queue_capacity: int = 100
    seed: int = 1
    solver: str = "reference"
    sample_stride: int = SAMPLE_STRIDE
    w0: float = 2.0

    def __post_init__(self) -> None:
        """Reject invalid cells at construction, not deep inside a run."""
        for name, allowed in (
            ("scheme", FLUID_SCHEMES),
            ("topology", TOPOLOGIES),
            ("solver", SOLVERS),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"unknown fluid {name} {value!r} (one of {allowed})"
                )
        for name in ("flows", "subflows", "sample_stride", "queue_capacity"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("duration", "dt", "link_rate_bps", "base_rtt", "w0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be positive and finite, got {value}"
                )
        if not self.beta > 1:
            raise ValueError(f"beta must be > 1, got {self.beta}")
        if self.marking_threshold < 0:
            raise ValueError(
                f"marking_threshold must be >= 0, got {self.marking_threshold}"
            )
        if self.topology == "fattree" and (self.k < 2 or self.k % 2):
            raise ValueError(
                f"fattree k must be an even integer >= 2, got {self.k}"
            )

    def label(self) -> str:
        base = self.scheme.upper()
        if self.subflows > 1:
            base = f"{base}-{self.subflows}"
        return f"{base}/{self.topology}-f{self.flows}"


@dataclass
class FluidResult:
    """One integrated fluid cell plus its steady-state reductions."""

    scenario: FluidScenario
    trajectory: FluidTrajectory
    #: Flow id of each subflow (parallel to trajectory.windows/rates).
    flow_of_subflow: Tuple[int, ...] = ()
    num_flows: int = 0
    num_links: int = 0
    #: State updates performed — the events-processed equivalent the
    #: runner's throughput accounting uses.
    events: int = 0

    def steady_state_windows(self, tail_fraction: float = 0.3) -> List[float]:
        """Per-subflow tail-mean window, packets."""
        return self.trajectory.steady_state_windows(tail_fraction)

    def flow_goodputs_bps(self, tail_fraction: float = 0.3) -> List[float]:
        """Per-flow steady-state rate: subflow fluid rates summed, in bps."""
        rates = self.trajectory.steady_state_rates(tail_fraction)
        per_flow = [0.0] * self.num_flows
        for subflow, flow in enumerate(self.flow_of_subflow):
            per_flow[flow] += rates[subflow] * PACKET_BITS
        return per_flow

    def mean_goodput_bps(self, tail_fraction: float = 0.3) -> float:
        """Mean per-flow steady-state goodput, bps."""
        goodputs = self.flow_goodputs_bps(tail_fraction)
        return sum(goodputs) / len(goodputs) if goodputs else 0.0

    def steady_state_queue(
        self, link_name: str, tail_fraction: float = 0.3
    ) -> float:
        """Tail-mean queue of one named link, packets."""
        try:
            index = self.trajectory.link_names.index(link_name)
        except ValueError:
            raise KeyError(
                f"link {link_name!r} not in fluid model "
                f"({len(self.trajectory.link_names)} links)"
            ) from None
        return self.trajectory.steady_state_queues(tail_fraction)[index]

    def max_steady_state_queue(self, tail_fraction: float = 0.3) -> float:
        """The most congested link's tail-mean queue, packets."""
        return max(self.trajectory.steady_state_queues(tail_fraction))


def run_fluid(
    scenario: FluidScenario, use_cache: bool = True, cache=None
) -> FluidResult:
    """Run (or fetch from the runner cache) one fluid scenario."""
    from repro.runner import RunSpec, run_spec

    return run_spec(
        RunSpec("fluid", scenario), cache=cache, use_cache=use_cache
    ).value


def _permutation_pairs(
    hosts: Sequence[str], flows: int, rng
) -> List[Tuple[str, str]]:
    """Rounds of random permutation traffic: each host sends to one other.

    More flows than hosts means several permutation rounds (distinct
    shuffles), matching how the packet side's PermutationPattern places
    long-lived flows; self-pairs are rejected by reshuffling.
    """
    pairs: List[Tuple[str, str]] = []
    while len(pairs) < flows:
        destinations = list(hosts)
        for _ in range(64):
            rng.shuffle(destinations)
            if all(s != d for s, d in zip(hosts, destinations)):
                break
        else:  # pragma: no cover - vanishing probability
            destinations = list(hosts[1:]) + [hosts[0]]
        pairs.extend(zip(hosts, destinations))
    return pairs[:flows]


def _flow_paths(scenario: FluidScenario) -> Tuple[object, List[List[Path]]]:
    """Build the scenario's network and per-flow forward-path lists."""
    if scenario.topology == "bottleneck":
        net = build_single_bottleneck(
            num_pairs=scenario.flows,
            bottleneck_rate_bps=scenario.link_rate_bps,
            rtt=scenario.base_rtt,
            queue_capacity=scenario.queue_capacity,
            marking_threshold=scenario.marking_threshold,
        )
        # The dumbbell has one path per pair; extra subflows share it
        # (what multiple addresses on one physical path would do).
        flow_paths = [
            [net.flow_path(flow)] * scenario.subflows
            for flow in range(scenario.flows)
        ]
        return net, flow_paths
    # "fattree", the only other topology __post_init__ accepts.
    net = build_fattree(
        k=scenario.k,
        link_rate_bps=scenario.link_rate_bps,
        queue_capacity=scenario.queue_capacity,
        marking_threshold=scenario.marking_threshold,
    )
    streams = RandomStreams(scenario.seed)
    pairs = _permutation_pairs(
        net.host_names, scenario.flows, streams.stream("fluid-perm")
    )
    # Draw path indices, then build only the chosen paths: the same
    # draws and Links as selecting from net.paths(), which is capped at
    # MAX_PATHS like the packet side's path lists.
    selector = DistinctPathSelector(streams.stream("fluid-paths"))
    flow_paths = [
        [
            net.path(src, dst, i)
            for i in selector.choose(
                min(net.path_count(src, dst), MAX_PATHS),
                scenario.subflows,
            )
        ]
        for src, dst in pairs
    ]
    return net, flow_paths


def _simulate(scenario: FluidScenario) -> FluidResult:
    """Integrate one fluid scenario (the registered ``fluid`` kind).

    The scenario validated itself at construction.
    """
    net, flow_paths = _flow_paths(scenario)
    model = model_from_network(net, flow_paths)
    trajectory = integrate_model(
        model,
        scenario.scheme,
        duration=scenario.duration,
        dt=scenario.dt,
        beta=scenario.beta,
        w0=scenario.w0,
        sample_stride=scenario.sample_stride,
        solver=scenario.solver,
    )
    return FluidResult(
        scenario=scenario,
        trajectory=trajectory,
        flow_of_subflow=tuple(sf.flow for sf in model.subflows),
        num_flows=model.num_flows,
        num_links=len(model.links),
        events=trajectory.state_updates,
    )


__all__ = [
    "TOPOLOGIES",
    "FluidResult",
    "FluidScenario",
    "run_fluid",
]
