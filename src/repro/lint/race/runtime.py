"""The runtime side of simrace: the same-instant write sanitizer.

A :class:`RaceMonitor` is one of the engine's taps (see
:mod:`repro.sim.taps`, the same seam as the validator and the
profiler).  Its :meth:`~RaceMonitor.fire` brackets every fired callback:

* before the fire: batch bookkeeping (a *batch* is a maximal run of
  events sharing ``(time, priority)`` — precisely the events whose
  mutual order is insertion-order only) and a shallow snapshot of the
  callback's bound receiver;
* after the fire: the receiver's state is diffed against the snapshot;
  every attribute the callback *rebound* is recorded, and a rebind of an
  attribute a **different** callback already rebound in the same batch
  is a collision — the runtime counterpart of static SIM016.

The monitor observes and never perturbs: it schedules nothing, mutates
nothing it observes, holds only transient references, and the golden
digests must be bit-identical with ``REPRO_RACE=1``
(``tests/test_simrace.py`` pins this).

Detection semantics match the static pass deliberately: a "write" is an
attribute *rebinding* (snapshot diff by identity-then-equality), so
in-place container mutation (``list.append``) is invisible to both
sides, and a rebind to an equal value is invisible to the runtime side
only.  Collisions stream to JSONL when a log path is set; see
OBSERVABILITY.md for the record shape.
"""

from __future__ import annotations

import json
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

from repro.sim.taps import RACE, attach, invoke, tapping


def _state_of(receiver: Any) -> Dict[str, Any]:
    """Shallow snapshot of an object's attribute bindings.

    Plain instances snapshot ``__dict__``; slotted instances (the
    engine's own :class:`~repro.sim.events.Timer`, for one) walk the
    MRO's ``__slots__``.  Unreadable descriptors are skipped — the
    sanitizer must never raise out of the hot loop.
    """
    d = getattr(receiver, "__dict__", None)
    if d is not None:
        return dict(d)
    state: Dict[str, Any] = {}
    for klass in type(receiver).__mro__:
        for name in getattr(klass, "__slots__", ()):
            try:
                state[name] = getattr(receiver, name)
            except AttributeError:
                continue
    return state


def _rebound(old: Any, new: Any) -> bool:
    """Whether an attribute binding changed between snapshots."""
    if old is new:
        return False
    try:
        return bool(old != new)
    except Exception:
        # Incomparable values: the binding moved to a different object.
        return True


class RaceMonitor:
    """Observes same-instant batches and records write collisions."""

    kind = RACE

    def __init__(self, log_path: Optional[str] = None) -> None:
        self.log_path = log_path
        #: Collision records, in observation order (see OBSERVABILITY.md).
        self.collisions: List[Dict[str, Any]] = []
        self.events = 0
        self.batches = 0
        #: (time, priority) of the batch being traced; None before the
        #: first event.
        self._batch: Optional[Tuple[float, int]] = None
        #: (id(receiver), attr) -> (writer qualname, receiver) for the
        #: current batch.  The receiver reference keeps the object alive
        #: so ids cannot be recycled within a batch.
        self._writers: Dict[Tuple[int, str], Tuple[str, Any]] = {}

    def attach(self, sim: Any) -> None:
        """Tap a simulator."""
        attach(sim, self)

    # -- the tap -------------------------------------------------------

    def fire(
        self,
        when: float,
        priority: int,
        callback: Callable[..., None],
        args: tuple,
        call: Callable[..., None] = invoke,
    ) -> None:
        """Fire one event, diffing its receiver's state around the call."""
        self.events += 1
        batch_key = (when, priority)
        if batch_key != self._batch:
            self._batch = batch_key
            self._writers.clear()
            self.batches += 1
        receiver = getattr(callback, "__self__", None)
        if receiver is None:
            # Plain function: no instance state to trace.
            call(when, priority, callback, args)
            return
        before = _state_of(receiver)
        call(when, priority, callback, args)
        after = _state_of(receiver)
        qualname = getattr(callback, "__qualname__", repr(callback))
        missing = object()
        for attr in after.keys() | before.keys():
            if not _rebound(before.get(attr, missing), after.get(attr, missing)):
                continue
            key = (id(receiver), attr)
            prior = self._writers.get(key)
            self._writers[key] = (qualname, receiver)
            if prior is not None and prior[0] != qualname:
                self._record_collision(
                    when, priority, receiver, attr, prior[0], qualname
                )

    # -- reporting -----------------------------------------------------

    def _record_collision(
        self,
        when: float,
        priority: int,
        receiver: Any,
        attr: str,
        first: str,
        second: str,
    ) -> None:
        record = {
            "kind": "collision",
            "time": when,
            "priority": priority,
            "receiver": type(receiver).__qualname__,
            "attr": attr,
            "first": first,
            "second": second,
        }
        self.collisions.append(record)
        if self.log_path is not None:
            with open(self.log_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def summary(self) -> Dict[str, Any]:
        """The run's totals, in the JSONL summary-record shape."""
        return {
            "kind": "summary",
            "events": self.events,
            "batches": self.batches,
            "collisions": len(self.collisions),
        }

    def write_report(
        self, path: str, extra: Optional[Dict[str, Any]] = None
    ) -> None:
        """Write every collision plus a trailing summary line as JSONL."""
        summary = self.summary()
        if extra:
            summary.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.collisions:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.write(json.dumps(summary, sort_keys=True) + "\n")


def race_monitoring(
    monitor: Optional[RaceMonitor] = None,
) -> ContextManager[RaceMonitor]:
    """Run a block with an active race monitor.

    Usage::

        with race_monitoring() as monitor:
            net = build_single_bottleneck(...)
            net.sim.run(until=0.4)
        collisions = monitor.collisions
    """
    return tapping(RACE, monitor if monitor is not None else RaceMonitor())


__all__ = ["RaceMonitor", "race_monitoring"]
