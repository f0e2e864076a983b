"""Fluid-model integration of the paper's Eq. 2.

The paper derives BOS's equilibrium (Eq. 3) from the window ODE

.. math::

    \\frac{dw(t)}{dt} = \\frac{\\delta}{T}(1 - p(t))
                        - \\frac{w(t)}{T\\beta} p(t)

This module integrates that ODE — for one flow against a given marking
probability, and for N flows sharing one marked link with the queue and
marking process modelled explicitly — so the packet-level simulator can
be validated against the model it was designed from (see
``benchmarks/test_ablation_fluid.py`` and the tests).

The shared-link model: windows ``w_i`` evolve per Eq. 2; the queue
integrates ``sum_i w_i/T_i - C`` (never below zero); the *round-trip
time* seen by every flow is ``T_i = base_rtt_i + q/C`` (queueing delay);
and the per-round marking probability rises steeply once the queue
crosses K — we use the probability that an M/D/1-ish instantaneous queue
exceeds K, approximated by a logistic in ``(q - K)`` whose width is a
couple of packets, which matches the threshold rule's behaviour in the
packet simulator.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, List, Sequence

#: Packet size used to convert packets <-> bits (paper: 1500 B MTU).
PACKET_BITS = 1500 * 8

#: Default sampling stride of :func:`integrate_shared_link`: one recorded
#: sample per this many Euler steps.  The final step is always recorded
#: regardless of stride, so ``steady_state_*`` tail means never miss the
#: terminal state.
SAMPLE_STRIDE = 16


def step_count(duration: float, dt: float) -> int:
    """Number of Euler steps covering ``duration`` at step ``dt``.

    ``int(duration / dt)`` truncates: ``0.3 / 1e-4`` is
    ``2999.9999999999995`` in binary floating point, so the naive form
    silently drops the last step and shortens the horizon.  Rounding to
    the nearest integer recovers the intended count whenever ``duration``
    is an (exact or nearly exact) multiple of ``dt``; integrators always
    take at least one step.
    """
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
    return max(1, int(round(duration / dt)))


def bos_window_ode(
    w: float, p: float, delta: float, beta: float, rtt: float
) -> float:
    """Right-hand side of Eq. 2: dw/dt given marking probability ``p``."""
    if rtt <= 0:
        raise ValueError(f"rtt must be positive, got {rtt}")
    return (delta / rtt) * (1.0 - p) - (w / (rtt * beta)) * p


def integrate_single_flow(
    p_of_t: Callable[[float], float],
    duration: float,
    dt: float = 1e-4,
    w0: float = 1.0,
    delta: float = 1.0,
    beta: float = 4.0,
    rtt: float = 100e-6,
) -> List[float]:
    """Euler-integrate Eq. 2 for one flow against a marking schedule.

    Returns the window trajectory sampled at every step.  At a constant
    ``p`` the trajectory converges to Eq. 3's fixed point
    ``w* = delta*beta*(1-p)/p``.
    """
    steps = step_count(duration, dt)
    w = w0
    trajectory = []
    for i in range(steps):
        t = i * dt
        p = p_of_t(t)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"marking probability out of range: {p}")
        w += dt * bos_window_ode(w, p, delta, beta, rtt)
        w = max(w, 1.0)
        trajectory.append(w)
    return trajectory


def threshold_marking_probability(
    queue_packets: float, threshold: float, width: float = 2.0
) -> float:
    """Smooth stand-in for 'at least one mark this round' near a K-queue.

    Below ``K`` the instantaneous queue rarely crosses the threshold
    within a round; above it, almost every round sees a mark.  A logistic
    of width ~2 packets reproduces that knife edge while keeping the ODE
    well behaved.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return 1.0 / (1.0 + math.exp(-(queue_packets - threshold) / width))


def _check_tail_fraction(tail_fraction: float) -> None:
    """Tail means need a non-empty tail: require ``0 < fraction <= 1``.

    ``tail_fraction=0.0`` used to slice an empty tail and silently
    average it to 0.0; out-of-range fractions were accepted and produced
    nonsense slices.  Both are caller bugs, so they raise.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(
            f"tail_fraction must be in (0, 1], got {tail_fraction}"
        )


def _tail_start(length: int, tail_fraction: float) -> int:
    """First index of the trailing window; always leaves >= 1 sample."""
    return min(int(length * (1.0 - tail_fraction)), length - 1)


def _sequential_sum(values: Sequence[float]) -> float:
    """``values`` added left to right from an integer zero.

    What ``sum`` does on Python <= 3.11.  Python 3.12 made float ``sum``
    compensated, so every tail mean folds explicitly instead: the same
    trajectory gives the same means on every interpreter.
    """
    return reduce(operator.add, values, 0)


def tail_mean(values: Sequence[float], tail_fraction: float = 0.3) -> float:
    """Mean of the trailing ``tail_fraction`` of a non-empty series.

    The steady-state reduction every fluid result uses: validated
    ``tail_fraction`` (see :func:`_check_tail_fraction`), the window
    always contains at least the final sample, and the tail is summed
    left to right (:func:`_sequential_sum`).
    """
    _check_tail_fraction(tail_fraction)
    if not values:
        raise ValueError("tail_mean needs a non-empty series")
    start = _tail_start(len(values), tail_fraction)
    return _sequential_sum(values[start:]) / (len(values) - start)


def tail_means(
    rows: Sequence[Sequence[float]], tail_fraction: float = 0.3
) -> List[float]:
    """Per-column :func:`tail_mean` of samples stored as rows.

    ``rows[i][j]`` is sample ``i`` of series ``j``.  The tail rows are
    added elementwise, left to right from an integer zero, so each
    column's mean is bit-identical to :func:`tail_mean` of that column
    without building the column.  No rows means no series: ``[]``.
    """
    _check_tail_fraction(tail_fraction)
    if not rows:
        return []
    start = _tail_start(len(rows), tail_fraction)
    totals: List[float] = [0] * len(rows[start])
    for row in rows[start:]:
        totals = list(map(operator.add, totals, row))
    count = len(rows) - start
    return [total / count for total in totals]


@dataclass
class FluidLinkResult:
    """Trajectories from :func:`integrate_shared_link`."""

    times: List[float] = field(default_factory=list)
    windows: List[List[float]] = field(default_factory=list)  # per flow
    queue: List[float] = field(default_factory=list)

    def steady_state_windows(self, tail_fraction: float = 0.3) -> List[float]:
        """Mean window per flow over the trailing ``tail_fraction``."""
        _check_tail_fraction(tail_fraction)
        if not self.times:
            return []
        start = _tail_start(len(self.times), tail_fraction)
        return [
            _sequential_sum(series[start:]) / (len(series) - start)
            for series in self.windows
        ]

    def steady_state_queue(self, tail_fraction: float = 0.3) -> float:
        """Mean queue over the trailing ``tail_fraction`` (packets)."""
        _check_tail_fraction(tail_fraction)
        if not self.queue:
            return 0.0
        start = _tail_start(len(self.queue), tail_fraction)
        return _sequential_sum(self.queue[start:]) / (len(self.queue) - start)


def integrate_shared_link(
    num_flows: int,
    capacity_bps: float,
    base_rtt: float,
    threshold: float,
    duration: float,
    dt: float = 2e-5,
    beta: float = 4.0,
    deltas: Sequence[float] = (),
    w0: float = 2.0,
    sample_stride: int = SAMPLE_STRIDE,
) -> FluidLinkResult:
    """N BOS flows sharing one marked link, in the fluid limit.

    Windows follow Eq. 2; the queue integrates excess arrival; RTTs are
    base propagation plus queueing delay; marking follows
    :func:`threshold_marking_probability`.  Trajectories are sampled
    every ``sample_stride`` steps, plus the final step unconditionally.
    """
    if num_flows < 1:
        raise ValueError("need at least one flow")
    if capacity_bps <= 0 or base_rtt <= 0:
        raise ValueError("capacity and base_rtt must be positive")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
    flow_deltas = list(deltas) if deltas else [1.0] * num_flows
    if len(flow_deltas) != num_flows:
        raise ValueError("deltas must match num_flows")

    capacity_pps = capacity_bps / PACKET_BITS
    windows = [w0] * num_flows
    queue = 0.0
    result = FluidLinkResult(windows=[[] for _ in range(num_flows)])
    steps = step_count(duration, dt)
    for i in range(steps):
        rtt = base_rtt + queue / capacity_pps
        p = threshold_marking_probability(queue, threshold)
        arrival = 0.0
        for f in range(num_flows):
            arrival += windows[f] / rtt
            windows[f] += dt * bos_window_ode(
                windows[f], p, flow_deltas[f], beta, rtt
            )
            windows[f] = max(windows[f], 1.0)
        queue = max(0.0, queue + dt * (arrival - capacity_pps))
        if i % sample_stride == 0 or i == steps - 1:
            result.times.append(i * dt)
            result.queue.append(queue)
            for f in range(num_flows):
                result.windows[f].append(windows[f])
    return result


__all__ = [
    "PACKET_BITS",
    "SAMPLE_STRIDE",
    "step_count",
    "tail_mean",
    "tail_means",
    "bos_window_ode",
    "integrate_single_flow",
    "threshold_marking_probability",
    "FluidLinkResult",
    "integrate_shared_link",
]
