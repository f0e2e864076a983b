"""Fluid ODE integration over a :class:`~repro.fluid.model.FluidModel`.

One Euler step advances, in this order:

1. **links** — queueing delay ``q/C`` and the logistic marking/loss
   probability of every link (:func:`threshold_marking_probability`);
2. **subflows** — RTT (base + path queueing delay), path marking
   probability ``1 - prod(1 - p_l)``, fluid rate ``x = w/T``;
3. **flows** — the per-flow aggregates the coupled laws need (XMP's
   ``y_s``/``T_s``, LIA's alpha and total window);
4. **windows** — the scheme's drift (:mod:`repro.fluid.laws`), clamped
   at :data:`~repro.fluid.laws.MIN_WINDOW`;
5. **queues** — ``q += dt * (arrivals - C)``, floored at zero,
   with arrivals taken from the pre-update rates (as in
   :func:`repro.core.fluid.integrate_shared_link`).

Two interchangeable solvers implement these semantics:

* ``"reference"`` — pure Python, the executable specification; and
* ``"vector"`` — numpy folds over padded path and flow layouts,
  for the 10^4-10^6-subflow scenarios the reference loop cannot reach.
  Requires numpy (an optional test/bench dependency — the choice is
  explicit in the spec, never auto-detected, so a spec's fingerprint
  always names the float-summation order that produced its result).

Both solvers record whole state rows, one per sample, into a numpy-free
:class:`FluidTrajectory`; per-series views and steady-state means are
derived from those rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.bos import DEFAULT_BETA
from repro.core.fluid import (
    SAMPLE_STRIDE,
    step_count,
    tail_means,
    threshold_marking_probability,
)
from repro.fluid import laws
from repro.fluid.model import FluidModel
from repro.sim.units import Seconds

SOLVERS = ("reference", "vector")


def vector_available() -> bool:
    """Whether the numpy-backed ``"vector"`` solver can run here."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _series(rows: Sequence[Sequence[float]]) -> List[List[float]]:
    """Rows of samples transposed into one list per series."""
    return [list(series) for series in zip(*rows)]


@dataclass
class FluidTrajectory:
    """Sampled state rows from one integration.

    One row per sample, taken every ``sample_stride`` steps plus the
    final step unconditionally: ``window_rows``/``rate_rows`` hold every
    subflow's window and rate (packets, packets/s), ``queue_rows`` every
    link's queue (packets).  ``windows``/``rates``/``queues`` are the
    per-series views (one list per subflow or link), built on access.
    """

    times: List[float] = field(default_factory=list)
    window_rows: List[List[float]] = field(default_factory=list)
    rate_rows: List[List[float]] = field(default_factory=list)
    queue_rows: List[List[float]] = field(default_factory=list)
    link_names: Tuple[str, ...] = ()
    steps: int = 0
    dt: float = 0.0
    #: Total state updates performed: steps * (subflows + links) — the
    #: fluid backend's events-processed equivalent.
    state_updates: int = 0

    @property
    def windows(self) -> List[List[float]]:
        """Per-subflow window series, packets."""
        return _series(self.window_rows)

    @property
    def rates(self) -> List[List[float]]:
        """Per-subflow fluid-rate series, packets/s."""
        return _series(self.rate_rows)

    @property
    def queues(self) -> List[List[float]]:
        """Per-link queue series, packets (parallel to link_names)."""
        return _series(self.queue_rows)

    def steady_state_windows(self, tail_fraction: float = 0.3) -> List[float]:
        """Per-subflow tail-mean window, packets."""
        return tail_means(self.window_rows, tail_fraction)

    def steady_state_rates(self, tail_fraction: float = 0.3) -> List[float]:
        """Per-subflow tail-mean fluid rate, packets/s."""
        return tail_means(self.rate_rows, tail_fraction)

    def steady_state_queues(self, tail_fraction: float = 0.3) -> List[float]:
        """Per-link tail-mean queue, packets (parallel to link_names)."""
        return tail_means(self.queue_rows, tail_fraction)


def integrate_model(
    model: FluidModel,
    scheme: str,
    duration: Seconds,
    dt: Seconds = 2e-5,
    beta: float = DEFAULT_BETA,
    w0: float = 2.0,
    sample_stride: int = SAMPLE_STRIDE,
    solver: str = "reference",
) -> FluidTrajectory:
    """Euler-integrate ``model`` under ``scheme`` for ``duration``."""
    if scheme not in laws.FLUID_SCHEMES:
        raise ValueError(
            f"unknown fluid scheme {scheme!r} (one of {laws.FLUID_SCHEMES})"
        )
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r} (one of {SOLVERS})")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
    if not model.subflows:
        raise ValueError("model has no subflows")
    steps = step_count(duration, dt)
    if solver == "vector":
        return _integrate_vector(model, scheme, steps, dt, beta, w0, sample_stride)
    return _integrate_reference(model, scheme, steps, dt, beta, w0, sample_stride)


def _new_trajectory(
    model: FluidModel, steps: int, dt: float
) -> FluidTrajectory:
    return FluidTrajectory(
        link_names=tuple(link.name for link in model.links),
        steps=steps,
        dt=dt,
        state_updates=steps * (len(model.subflows) + len(model.links)),
    )


def _integrate_reference(
    model: FluidModel,
    scheme: str,
    steps: int,
    dt: float,
    beta: float,
    w0: float,
    sample_stride: int,
) -> FluidTrajectory:
    """The pure-Python executable specification of one Euler step."""
    use_ecn = laws.scheme_uses_ecn(scheme)
    num_links = len(model.links)
    num_subflows = len(model.subflows)
    caps = [link.capacity_pps for link in model.links]
    knees = [
        link.ecn_threshold if use_ecn else link.drop_threshold
        for link in model.links
    ]
    paths = [subflow.links for subflow in model.subflows]
    base = [subflow.base_rtt for subflow in model.subflows]
    slices = model.flow_slices()

    w = [float(w0)] * num_subflows
    q = [0.0] * num_links
    alpha = [1.0] * num_subflows if scheme == "dctcp" else None

    out = _new_trajectory(model, steps, dt)
    for i in range(steps):
        delay = [q[l] / caps[l] for l in range(num_links)]
        p_link = [
            threshold_marking_probability(q[l], knees[l], laws.MARKING_WIDTH)
            for l in range(num_links)
        ]
        rtts = [0.0] * num_subflows
        probs = [0.0] * num_subflows
        rates = [0.0] * num_subflows
        arrivals = [0.0] * num_links
        for s in range(num_subflows):
            rtt = base[s]
            survive = 1.0
            for l in paths[s]:
                rtt += delay[l]
                survive *= 1.0 - p_link[l]
            x = w[s] / rtt
            rtts[s] = rtt
            probs[s] = 1.0 - survive
            rates[s] = x
            for l in paths[s]:
                arrivals[l] += x

        if scheme == "xmp":
            for start, end in slices:
                y = sum(rates[start:end])
                t_min = min(rtts[start:end])
                for s in range(start, end):
                    w[s] += dt * laws.xmp_window_drift(
                        w[s], probs[s], rtts[s], y, t_min, beta
                    )
        elif scheme == "bos-uncoupled":
            for s in range(num_subflows):
                w[s] += dt * laws.bos_window_drift(w[s], probs[s], rtts[s], beta)
        elif scheme == "lia":
            for start, end in slices:
                flow_alpha = laws.lia_alpha(w[start:end], rtts[start:end])
                total = sum(w[start:end])
                for s in range(start, end):
                    w[s] += dt * laws.lia_window_drift(
                        w[s], probs[s], rtts[s], flow_alpha, total
                    )
        else:  # dctcp
            assert alpha is not None
            for s in range(num_subflows):
                w[s] += dt * laws.dctcp_window_drift(
                    w[s], probs[s], rtts[s], alpha[s]
                )
                alpha[s] += dt * laws.dctcp_alpha_drift(
                    alpha[s], probs[s], rtts[s]
                )
        for s in range(num_subflows):
            if w[s] < laws.MIN_WINDOW:
                w[s] = laws.MIN_WINDOW

        for l in range(num_links):
            q[l] = max(0.0, q[l] + dt * (arrivals[l] - caps[l]))

        if i % sample_stride == 0 or i == steps - 1:
            out.times.append(i * dt)
            # w and q are updated in place; rates is a new list each step.
            out.window_rows.append(list(w))
            out.rate_rows.append(rates)
            out.queue_rows.append(list(q))
    return out


def _integrate_vector(
    model: FluidModel,
    scheme: str,
    steps: int,
    dt: float,
    beta: float,
    w0: float,
    sample_stride: int,
) -> FluidTrajectory:
    """numpy mirror of :func:`_integrate_reference` (same semantics).

    Every reduction folds a padded layout row by row: ``hops`` holds
    each subflow's path (path delays and survival products) and
    ``members`` each flow's subflows (the coupled laws' sums, minima
    and maxima), with a shorter path or flow padded by the operation's
    identity.  Arrivals scatter back with ``bincount``.  Per-flow folds
    run in subflow order like the reference's ``sum``/``min``, but path
    delays add in a different order from the reference loop, so
    trajectories agree only to integration tolerance — which is why the
    spec names the solver explicitly.
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised only without numpy
        raise RuntimeError(
            "the 'vector' fluid solver requires numpy; use solver='reference'"
        ) from None

    use_ecn = laws.scheme_uses_ecn(scheme)
    num_links = len(model.links)
    num_subflows = len(model.subflows)
    caps = np.array([link.capacity_pps for link in model.links])
    knees = np.array(
        [
            link.ecn_threshold if use_ecn else link.drop_threshold
            for link in model.links
        ]
    )
    base = np.array([subflow.base_rtt for subflow in model.subflows])
    path_links = np.array(
        [link for subflow in model.subflows for link in subflow.links],
        dtype=np.int64,
    )
    path_sub = np.repeat(
        np.arange(num_subflows, dtype=np.int64),
        [len(subflow.links) for subflow in model.subflows],
    )
    flow_of = np.array([subflow.flow for subflow in model.subflows], dtype=np.int64)

    def padded(groups, fill, depth=1):
        """Row j holds every group's j-th member, or ``fill`` past its end."""
        depth = max(depth, max(len(group) for group in groups))
        return np.array(
            [[g[j] if j < len(g) else fill for g in groups] for j in range(depth)],
            dtype=np.int64,
        )

    # The padding slot is the index just past the values gathered, which
    # holds the fold's identity: 0 for sums, 1 for products, +-inf for
    # minima and maxima.  At least two hop rows, for the rtt split below.
    hops = padded([subflow.links for subflow in model.subflows], num_links, 2)
    members = padded(
        [range(start, end) for start, end in model.flow_slices()], num_subflows
    )

    def fold(op, rows):
        total = rows[0]
        for row in rows[1:]:
            total = op(total, row)
        return total

    def per_flow(op, values, identity):
        """``op`` folded over each flow's subflows, in subflow order."""
        return fold(op, np.append(values, identity)[members])

    w = np.full(num_subflows, float(w0))
    q = np.zeros(num_links)
    alpha = np.ones(num_subflows) if scheme == "dctcp" else None

    out = _new_trajectory(model, steps, dt)
    for i in range(steps):
        delay = np.append(q / caps, 0.0)[hops]
        p_link = 1.0 / (1.0 + np.exp(-(q - knees) / laws.MARKING_WIDTH))
        # First hop plus the sum of the rest: numpy's add.reduceat order
        # for paths of up to 8 hops, which the pinned digests record.
        rtt = base + (delay[0] + fold(np.add, delay[1:]))
        survive = fold(np.multiply, np.append(1.0 - p_link, 1.0)[hops])
        p = 1.0 - survive
        x = w / rtt

        if scheme == "xmp":
            y = per_flow(np.add, x, 0.0)[flow_of]
            t_min = per_flow(np.minimum, rtt, np.inf)[flow_of]
            delta = w / (y * t_min)
            dw = (delta * (1.0 - p) - w * p / beta) / rtt
        elif scheme == "bos-uncoupled":
            dw = ((1.0 - p) - w * p / beta) / rtt
        elif scheme == "lia":
            numerator = per_flow(np.maximum, w / (rtt * rtt), -np.inf)
            denominator = per_flow(np.add, x, 0.0)
            total = per_flow(np.add, w, 0.0)
            flow_alpha = total * numerator / (denominator * denominator)
            own = 1.0 / np.maximum(w, 1.0)
            increase = np.minimum(flow_alpha[flow_of] / total[flow_of], own)
            dw = x * ((1.0 - p) * increase - p * (w / 2.0))
        else:  # dctcp
            assert alpha is not None
            dw = ((1.0 - p) - (w * alpha / 2.0) * p) / rtt
            alpha = alpha + dt * laws.DEFAULT_GAIN * (p - alpha) / rtt

        w = np.maximum(w + dt * dw, laws.MIN_WINDOW)
        arrivals = np.bincount(path_links, weights=x[path_sub], minlength=num_links)
        q = np.maximum(q + dt * (arrivals - caps), 0.0)

        if i % sample_stride == 0 or i == steps - 1:
            out.times.append(i * dt)
            out.window_rows.append(w.tolist())
            out.rate_rows.append(x.tolist())
            out.queue_rows.append(q.tolist())
    return out


__all__ = [
    "SOLVERS",
    "FluidTrajectory",
    "integrate_model",
    "vector_available",
]
