"""The runtime side of simperf: the per-hot-function allocation sanitizer.

An :class:`AllocMonitor` is one of the engine's taps (see
:mod:`repro.sim.taps`, next to the validator, the race monitor and the
profiler), nested innermost so its window excludes the other taps.  Its
:meth:`~AllocMonitor.fire` brackets every fired callback:

* before the fire: if the callback resolves to a function registered in
  ``hotpaths.toml`` (memoized by the underlying function object), the
  tracemalloc peak is reset and the traced-memory baseline captured;
* after the fire: the peak delta over the baseline is attributed to that
  hot function.

The monitor observes and never perturbs: tracemalloc tracks allocator
traffic out of band, the monitor schedules nothing and mutates nothing
it observes, and the golden digests must be bit-identical with
``REPRO_ALLOC=1`` (``tests/test_simperf.py`` pins this).

Attribution semantics: CPython's float/tuple free lists bypass the
allocator, so a hot function that *recycles* objects in steady state
shows sporadic deltas at worst; ints have no free list, so scalar
arithmetic boxes one traced ``PyLong`` per operation — deltas at or
below :data:`SCALAR_NOISE_BYTES` are therefore discounted entirely.  A
function is reported as an *allocator* only when it shows a traced
allocation above that floor on a majority of its firings
(:meth:`AllocMonitor.allocators`) — structural per-event allocation,
not free-list warmup noise.  The static cross-check
(``python -m repro.lint.perf``) then demands that every such function
has an allocation site or allow-alloc pragma reachable in its summary
call graph; anything else is an *unexplained* allocation.
"""

from __future__ import annotations

import contextlib
import json
import tracemalloc
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.lint.perf.hotpaths import HotPathRegistry
from repro.sim.taps import ALLOC, attach, invoke, tapping

#: Per-function JSONL records are capped so a long campaign cannot grow
#: the log unboundedly; the in-memory totals are always complete.
_LOG_RECORDS_PER_FUNCTION = 50

#: Peak deltas at or below one boxed scalar are measurement noise, not
#: allocation: CPython 3.11 has no int free list, so any arithmetic past
#: the small-int cache (a sequence counter, ``x += 1``) boxes a fresh
#: 28-byte ``PyLong`` (rounded to 32 by pymalloc) that tracemalloc duly
#: traces.  That boxing is the cost of *Python*, not of the function
#: under test, and no real object construction hides under it — the
#: smallest tuple/list/dict/instance all exceed 32 bytes.
SCALAR_NOISE_BYTES = 32


class AllocMonitor:
    """Attributes tracemalloc peak deltas to registered hot functions."""

    kind = ALLOC

    def __init__(
        self,
        registry: Optional[HotPathRegistry] = None,
        log_path: Optional[str] = None,
        trace_all: bool = False,
    ) -> None:
        self.registry = (
            registry if registry is not None else HotPathRegistry.load()
        )
        self.log_path = log_path
        #: Trace every callback (micro-cell mode), not just registered
        #: hot functions; attribution keys stay dotted qnames.
        self.trace_all = trace_all
        self.events = 0
        self.hot_events = 0
        #: dotted qname -> {"events", "alloc_events", "bytes"}
        self.stats: Dict[str, Dict[str, int]] = {}
        #: function object -> dotted qname (or None when not registered).
        self._resolved: Dict[Any, Optional[str]] = {}
        self._logged: Dict[str, int] = {}
        self._baseline = 0
        self._started_tracing = not tracemalloc.is_tracing()
        if self._started_tracing:
            tracemalloc.start()

    # -- attachment ----------------------------------------------------

    def attach(self, sim: Any) -> None:
        """Tap a simulator."""
        attach(sim, self)

    def close(self) -> None:
        """Release tracemalloc, if this monitor started it."""
        if self._started_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracing = False

    # -- the tap -------------------------------------------------------

    def _resolve(self, callback: Callable[..., None]) -> Optional[str]:
        func = getattr(callback, "__func__", callback)
        try:
            return self._resolved[func]
        except KeyError:
            pass
        except TypeError:  # unhashable callable: never a registered method
            return None
        module = getattr(func, "__module__", "") or ""
        qualname = getattr(func, "__qualname__", "") or ""
        dotted = f"{module}.{qualname}"
        if self.trace_all:
            resolved: Optional[str] = dotted
        else:
            resolved = dotted if dotted in self.registry else None
        self._resolved[func] = resolved
        return resolved

    def fire(
        self,
        when: float,
        priority: int,
        callback: Callable[..., None],
        args: tuple,
        call: Callable[..., None] = invoke,
    ) -> None:
        """Fire one event, attributing a hot callback's peak allocation."""
        self.events += 1
        dotted = self._resolve(callback)
        if dotted is None:
            call(when, priority, callback, args)
            return
        self.hot_events += 1
        tracing = tracemalloc.is_tracing()
        if tracing:
            # Baseline first, reset second: get_traced_memory() reads the
            # counters *before* building its result tuple, so this order
            # keeps the monitor's own transient tuple out of the peak
            # window.  Reversed, every event shows a ~64-byte phantom
            # delta and every callback looks like an allocator.  The
            # baseline lives on the monitor, not in a local: rebinding
            # it frees the previous boxed int, which nets out the new
            # one's allocation.
            self._baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        call(when, priority, callback, args)
        delta = 0
        if tracing:
            delta = tracemalloc.get_traced_memory()[1] - self._baseline
            delta = 0 if delta <= SCALAR_NOISE_BYTES else delta
        self._settle(dotted, when, delta)

    def _settle(self, dotted: str, when: float, delta: int) -> None:
        entry = self.stats.get(dotted)
        if entry is None:
            entry = {"events": 0, "alloc_events": 0, "bytes": 0}
            self.stats[dotted] = entry
        entry["events"] += 1
        if delta > 0:
            entry["alloc_events"] += 1
            entry["bytes"] += delta
            if (
                self.log_path is not None
                and self._logged.get(dotted, 0) < _LOG_RECORDS_PER_FUNCTION
            ):
                self._logged[dotted] = self._logged.get(dotted, 0) + 1
                record = {
                    "kind": "alloc",
                    "function": dotted,
                    "time": when,
                    "bytes": delta,
                }
                with open(self.log_path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")

    # -- reporting -----------------------------------------------------

    def allocators(self, min_ratio: float = 0.5) -> List[str]:
        """Hot functions that allocated on ≥ ``min_ratio`` of firings.

        The majority threshold separates structural per-event allocation
        (a constructor on every fire) from free-list warmup noise, which
        shows up on a handful of early firings only.
        """
        return sorted(
            dotted
            for dotted, entry in self.stats.items()
            if entry["events"] > 0
            and entry["alloc_events"] / entry["events"] >= min_ratio
        )

    def summary(self) -> Dict[str, Any]:
        """The run's totals, in the JSONL summary-record shape."""
        return {
            "kind": "summary",
            "events": self.events,
            "hot_events": self.hot_events,
            "functions": len(self.stats),
            "allocators": self.allocators(),
        }

    def write_report(
        self, path: str, extra: Optional[Dict[str, Any]] = None
    ) -> None:
        """Write per-function totals plus a trailing summary as JSONL."""
        summary = self.summary()
        if extra:
            summary.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            for dotted in sorted(self.stats):
                entry = self.stats[dotted]
                record = {"kind": "function", "function": dotted, **entry}
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.write(json.dumps(summary, sort_keys=True) + "\n")


@contextlib.contextmanager
def alloc_monitoring(
    monitor: Optional[AllocMonitor] = None,
) -> Iterator[AllocMonitor]:
    """Run a block with an active allocation monitor.

    Usage::

        with alloc_monitoring() as monitor:
            net = build_single_bottleneck(...)
            net.sim.run(until=0.4)
        stats = monitor.stats

    On exit the monitor's tracemalloc tracing is released (if the
    monitor started it).
    """
    if monitor is None:
        monitor = AllocMonitor()
    try:
        with tapping(ALLOC, monitor):
            yield monitor
    finally:
        monitor.close()


__all__ = ["AllocMonitor", "SCALAR_NOISE_BYTES", "alloc_monitoring"]
