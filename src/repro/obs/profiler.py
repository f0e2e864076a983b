"""The engine profiler: where simulation wall-time goes, by component.

A :class:`Profiler` is an opt-in tap on
:class:`~repro.sim.engine.Simulator` (see :mod:`repro.sim.taps`; read it
back as ``sim.profiler``).  While attached it buckets every fired event
— count and cumulative callback wall-time — under a *component* key
derived from the callback's ``__module__``/``__qualname__``
(``net.link.Link._finish_transmission``,
``transport.tcp.TcpSender._on_ack``, ...), and reports heap health —
pushes, pops, compactions, promotions, far spills, peak size — from the
engine's own counters over the attached window.

An unprofiled simulator pays nothing: the engine runs its leanest loop
whenever no tap is attached.  The engine itself never reads a host
clock; the wall-clock read lives in :attr:`Profiler.clock` here (the one
module besides the runner's cell timer that simlint's SIM002
allowlists).

Wall-times are obviously host-dependent; everything else in a
:class:`ProfileSnapshot` — per-component event counts, heap counters — is
deterministic for a given spec, which is what the telemetry determinism
tests pin (see :func:`repro.obs.records.deterministic_view`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

from repro.sim.taps import PROFILE, attach, detach, invoke, tapping

#: Strip this prefix from callback modules: every component is ours.
_PACKAGE_PREFIX = "repro."


def component_of(callback: Callable[..., Any]) -> str:
    """The profiling bucket for a callback: ``module.Qualified.name``.

    Bound methods of the same class share one bucket (the function
    object, not the instance, is what identifies a component).
    """
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        qualname = type(callback).__name__
    module = getattr(callback, "__module__", "") or ""
    if module.startswith(_PACKAGE_PREFIX):
        module = module[len(_PACKAGE_PREFIX):]
    return f"{module}.{qualname}" if module else qualname


@dataclass(frozen=True)
class ComponentStat:
    """One profiling bucket: events fired and cumulative callback time."""

    component: str
    events: int
    wall_s: float


@dataclass(frozen=True)
class HeapStats:
    """Scheduler-health counters over the profiled window.

    The name predates the calendar-queue engine; the counters now cover
    its three tiers.  Every field is read from the engine's own
    counters at attach and at detach (or at snapshot time while still
    attached).  ``pushes`` counts scheduled records and ``pops`` fired
    events plus cancelled discards.  ``promotions`` counts sorted-run
    rebuilds and ``far_spills`` records pulled from the far tier into
    near buckets.  ``peak_size`` (the largest pending-record count,
    sampled at each promotion) and ``max_run`` (the largest promoted
    run) are simulator-lifetime maxima up to detach.
    """

    pushes: int
    pops: int
    compactions: int
    peak_size: int
    promotions: int = 0
    far_spills: int = 0
    max_run: int = 0


@dataclass(frozen=True)
class ProfileSnapshot:
    """An immutable, picklable view of a :class:`Profiler`'s counters.

    ``components`` is sorted by component name so two snapshots of the
    same deterministic run compare equal field-for-field except in the
    ``wall_s`` columns.
    """

    components: Tuple[ComponentStat, ...]
    heap: HeapStats
    events: int
    callback_wall_s: float

    def hotspots(self, limit: int = 10) -> List[ComponentStat]:
        """The costliest components by cumulative callback wall-time."""
        ranked = sorted(
            self.components, key=lambda c: (-c.wall_s, -c.events, c.component)
        )
        return ranked[:limit]

    def as_dict(self) -> dict:
        """A JSON-ready view (the telemetry record's ``profile`` field)."""
        return {
            "events": self.events,
            "callback_wall_s": self.callback_wall_s,
            "components": [
                {"component": c.component, "events": c.events, "wall_s": c.wall_s}
                for c in self.components
            ],
            "hotspots": [
                {"component": c.component, "events": c.events, "wall_s": c.wall_s}
                for c in self.hotspots()
            ],
            "heap": {
                "pushes": self.heap.pushes,
                "pops": self.heap.pops,
                "compactions": self.heap.compactions,
                "peak_size": self.heap.peak_size,
                "promotions": self.heap.promotions,
                "far_spills": self.heap.far_spills,
                "max_run": self.heap.max_run,
            },
        }

    def format(self, limit: int = 10) -> str:
        """A text hot-spot table for the ``profile`` CLI subcommand."""
        lines = [
            f"{'component':<52} {'events':>10} {'wall (ms)':>10} {'%time':>6}"
        ]
        total = self.callback_wall_s
        for stat in self.hotspots(limit):
            share = 100.0 * stat.wall_s / total if total > 0 else 0.0
            lines.append(
                f"{stat.component:<52} {stat.events:>10,} "
                f"{stat.wall_s * 1e3:>10.2f} {share:>5.1f}%"
            )
        heap = self.heap
        lines.append(
            f"{len(self.components)} components, {self.events:,} events, "
            f"{total * 1e3:.2f} ms in callbacks"
        )
        lines.append(
            f"heap: {heap.pushes:,} pushes, {heap.pops:,} pops, "
            f"{heap.compactions} compactions, peak size {heap.peak_size:,}"
        )
        lines.append(
            f"calendar: {heap.promotions:,} promotions "
            f"(max run {heap.max_run:,}), {heap.far_spills:,} far spills"
        )
        return "\n".join(lines)


def _engine_counters(sim: Any) -> Tuple[int, ...]:
    """``sim``'s counters: five running totals, then two lifetime maxima."""
    return (
        sim.pushes,
        sim.events_processed + sim.discards,
        sim.compactions,
        sim.promotions,
        sim.far_spills,
        sim.peak_pending,
        sim.max_run,
    )


class Profiler:
    """Buckets fired events and callback wall-time by component.

    Attach with :meth:`attach` (or construct objects under
    :func:`profiling` and let :class:`~repro.net.network.Network` attach
    its simulator for you), run the simulation, then :meth:`snapshot`.
    """

    kind = PROFILE

    #: The host clock the timed dispatch uses.  Living here — not in the
    #: engine — keeps SIM002's "no wall clocks in simulation code"
    #: guarantee intact for repro.sim.
    clock = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        #: component name -> [events, cumulative seconds]; mutated on the
        #: hot path, so plain lists instead of dataclasses.
        self._buckets: Dict[str, List[Any]] = {}
        #: function object -> component name memo (avoids re-deriving
        #: strings for every fired event).
        self._names: Dict[Any, str] = {}
        #: One [sim, counters at attach, counters at detach or None] per
        #: attachment.
        self._windows: List[List[Any]] = []

    # -- attachment ----------------------------------------------------

    def attach(self, sim: Any) -> None:
        """Start profiling ``sim`` (``sim.profiler`` is then this profiler)."""
        if sim.profiler is self:
            return
        attach(sim, self)
        self._windows.append([sim, _engine_counters(sim), None])

    def detach(self, sim: Any) -> None:
        """Stop profiling ``sim``; its counters so far stay in this profiler."""
        if sim.profiler is not self:
            return
        detach(sim, self)
        for window in self._windows:
            if window[0] is sim and window[2] is None:
                window[2] = _engine_counters(sim)

    # -- the tap (hot path) --------------------------------------------

    def fire(
        self,
        time: float,
        priority: int,
        callback: Callable[..., Any],
        args: tuple,
        call: Callable[..., None] = invoke,
    ) -> None:
        """Time one fired event and book it under its component."""
        clock = self.clock
        started = clock()
        call(time, priority, callback, args)
        self.on_fire(callback, clock() - started)

    def on_fire(self, callback: Callable[..., Any], elapsed: float) -> None:
        """One fired event: ``elapsed`` seconds spent in ``callback``."""
        func = getattr(callback, "__func__", callback)
        name = self._names.get(func)
        if name is None:
            name = component_of(callback)
            self._names[func] = name
        bucket = self._buckets.get(name)
        if bucket is None:
            self._buckets[name] = [1, elapsed]
        else:
            bucket[0] += 1
            bucket[1] += elapsed

    # -- results -------------------------------------------------------

    def snapshot(self) -> ProfileSnapshot:
        """Freeze the counters into a :class:`ProfileSnapshot`."""
        components = tuple(
            ComponentStat(name, bucket[0], bucket[1])
            for name, bucket in sorted(self._buckets.items())
        )
        totals = [0] * 5
        peak_size = max_run = 0
        for sim, start, end in self._windows:
            now = end if end is not None else _engine_counters(sim)
            for i in range(5):
                totals[i] += now[i] - start[i]
            peak_size = max(peak_size, now[5])
            max_run = max(max_run, now[6])
        pushes, pops, compactions, promotions, far_spills = totals
        heap = HeapStats(
            pushes=pushes,
            pops=pops,
            compactions=compactions,
            peak_size=peak_size,
            promotions=promotions,
            far_spills=far_spills,
            max_run=max_run,
        )
        return ProfileSnapshot(
            components=components,
            heap=heap,
            events=sum(c.events for c in components),
            callback_wall_s=sum(c.wall_s for c in components),
        )


def profiling(profiler: Optional[Profiler] = None) -> ContextManager[Profiler]:
    """Run a block with an active profiler.

    Usage::

        with profiling() as prof:
            run_fig1(Fig1Config())
        print(prof.snapshot().format())
    """
    return tapping(PROFILE, profiler if profiler is not None else Profiler())


__all__ = [
    "ComponentStat",
    "HeapStats",
    "ProfileSnapshot",
    "Profiler",
    "component_of",
    "profiling",
]
