"""Experiment-kind registry: the dispatch table behind :class:`RunSpec`.

Kinds are registered *lazily* as ``(module, function)`` name pairs rather
than callables, for two reasons:

* the experiment modules import :mod:`repro.runner` to route their public
  ``run_*`` entry points through it, so the registry must not import them
  back at module-import time (cycle); and
* worker processes receive only the pickled :class:`RunSpec` and resolve
  the run function themselves, so nothing un-picklable crosses the
  process boundary.

``execute`` is the single choke point every simulation goes through: it
resolves the kind, times the run, extracts the events-processed counter,
and wraps everything in a :class:`~repro.runner.spec.RunResult`.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.runner.spec import SOURCE_RUN, CellMetrics, RunResult, RunSpec


#: Simulation backends a kind can run on.  "packet" is the per-event
#: engine (repro.sim + repro.net); "fluid" the ODE backend (repro.fluid).
BACKEND_PACKET = "packet"
BACKEND_FLUID = "fluid"


@dataclass(frozen=True)
class KindEntry:
    """One registered experiment kind."""

    name: str
    module: str
    function: str
    #: Attribute of the result object carrying the simulator's
    #: events-processed counter (0 if the result does not expose one).
    #: Fluid kinds count ODE state updates through the same attribute,
    #: so events/sec stays the cross-backend throughput currency.
    events_attr: str = "events"
    #: Which simulation backend executes this kind (telemetry surfaces
    #: it, so mixed packet/fluid campaigns stay distinguishable).
    backend: str = BACKEND_PACKET

    def resolve(self) -> Callable[[Any], Any]:
        return getattr(importlib.import_module(self.module), self.function)


_KINDS: Dict[str, KindEntry] = {}


def register_kind(
    name: str,
    module: str,
    function: str,
    events_attr: str = "events",
    backend: str = BACKEND_PACKET,
) -> None:
    """Register (or re-register) an experiment kind."""
    _KINDS[name] = KindEntry(name, module, function, events_attr, backend)


def backend_of(kind: str) -> str:
    """The simulation backend a registered kind runs on."""
    return kind_entry(kind).backend


def kind_entry(name: str) -> KindEntry:
    try:
        return _KINDS[name]
    except KeyError:
        known = ", ".join(sorted(_KINDS))
        raise KeyError(f"unknown run kind {name!r} (registered: {known})") from None


def registered_kinds() -> Tuple[str, ...]:
    return tuple(sorted(_KINDS))


def events_of(spec: RunSpec, value: Any) -> int:
    """The events-processed count a result carries (0 when untracked)."""
    attr = kind_entry(spec.kind).events_attr
    return int(getattr(value, attr, 0) or 0)


def execute(spec: RunSpec) -> RunResult:
    """Run one spec from scratch, timed. Used inline and by pool workers.

    When validation is requested (a validator is active in-process, or
    ``$REPRO_VALIDATE`` is set — the CLI's ``--validate`` flag, which
    worker processes inherit through the environment), the run executes
    under a fresh :class:`~repro.validate.invariants.Validator` and
    raises :class:`~repro.validate.invariants.InvariantError` on any
    violation, naming the cell.

    When profiling is requested (a profiler is active in-process, or
    ``$REPRO_PROFILE`` / ``$REPRO_TELEMETRY`` is set — the CLI's
    ``--telemetry`` flag, likewise inherited by workers), the run
    executes under a fresh :class:`~repro.obs.profiler.Profiler` and its
    snapshot lands in ``metrics.profile``.  Profiling observes only; the
    result value is byte-identical with and without it.
    """
    from repro.sim import taps

    run = kind_entry(spec.kind).resolve()
    checks = 0
    profiler = None
    if taps.requested(taps.PROFILE):
        from repro.obs.profiler import Profiler

        profiler = Profiler()
        taps.activate(taps.PROFILE, profiler)
    started = time.perf_counter()
    try:
        if taps.requested(taps.VALIDATE):
            from repro.validate.invariants import Validator

            validator = Validator()
            with taps.tapping(taps.VALIDATE, validator):
                value = run(spec.config)
            validator.finish()
            validator.raise_if_violations(context=spec.label())
            checks = validator.checks
        else:
            value = run(spec.config)
    finally:
        if profiler is not None:
            taps.deactivate(taps.PROFILE, profiler)
    wall = time.perf_counter() - started
    metrics = CellMetrics(
        wall_time_s=wall,
        events=events_of(spec, value),
        source=SOURCE_RUN,
        invariant_checks=checks,
        profile=profiler.snapshot() if profiler is not None else None,
    )
    return RunResult(spec=spec, value=value, metrics=metrics)


# ----------------------------------------------------------------------
# Built-in kinds: one per single-simulation driver.  The fat-tree kind
# backs every Table 1-3 / Fig. 8-11 view; the testbed/torus/bottleneck
# kinds back Figs. 1/4/6/7.
# ----------------------------------------------------------------------

register_kind("fattree", "repro.experiments.fattree_eval", "_simulate")
register_kind("fig1", "repro.experiments.fig1_convergence", "_simulate")
register_kind("fig4", "repro.experiments.fig4_traffic_shifting", "_simulate")
register_kind("fig6", "repro.experiments.fig6_fairness", "_simulate")
register_kind("fig7", "repro.experiments.fig7_rate_compensation", "_simulate")
register_kind("workload", "repro.experiments.workload_matrix", "_simulate_workload")
register_kind("incast_sweep", "repro.experiments.workload_matrix", "_simulate_incast")
register_kind("fluid", "repro.fluid.backend", "_simulate", backend=BACKEND_FLUID)


__all__ = [
    "BACKEND_FLUID",
    "BACKEND_PACKET",
    "KindEntry",
    "register_kind",
    "backend_of",
    "kind_entry",
    "registered_kinds",
    "events_of",
    "execute",
]
