"""The discrete-event simulator core.

A :class:`Simulator` owns a three-tier calendar/ladder event structure
and a monotonically advancing clock.  Everything in the network model —
link serialization, propagation, TCP timers, application arrivals — is
expressed as events on a single simulator instance, so a whole experiment
is one deterministic event loop.

Time is a ``float`` in **seconds**.  All delays produced by the network
model are sums and quotients of exact inputs, and the deterministic
``(time, priority, seq)`` ordering means float rounding can never reorder
two events that were scheduled in a defined order at the same instant.

Event structure
---------------

Events live in exactly one of three tiers, partitioned by two moving
time boundaries ``run_end < horizon`` (both absolute simulation times):

* the **run** — a list sorted by ``(time, priority, seq)`` holding every
  pending event with ``time < run_end``, consumed in order by an index
  (no pops, no per-event heap maintenance).  Events scheduled *into* the
  current run window (the common case: zero- and short-delay chains) are
  insertion-sorted into the unconsumed suffix with :func:`bisect.insort`;
* the **near bucket** — an unsorted list for ``run_end <= time <
  horizon``.  Scheduling here is a plain ``list.append``.  When the run
  drains, the near bucket is sorted once (Timsort, in C) and promoted to
  be the new run;
* the **far tier** — everything at ``time >= horizon`` (RTO timers,
  application arrivals...).  Not a heap: a lazily sorted list.  Inserts
  are plain appends onto a possibly-unsorted tail; the list is sorted
  (Timsort exploits the already-sorted prefix) only when a promotion
  actually needs to spill, and spilled records are consumed through an
  index (``_far_i``) so a spill is one ``bisect`` plus one slice instead
  of per-record ``heappop`` calls.  ``_far_tail_min`` tracks the minimum
  time in the unsorted tail so the no-spill check stays O(1).

The bucket width adapts to the observed event density (halving when runs
come out oversized, doubling when they come out undersized), and a hard
``RUN_MAX`` cut keeps any single promotion bounded: an oversized sorted
run is split at a *time boundary*, never between two events at the same
instant, so the ``(time, priority, seq)`` total order — including
same-instant priority ties resolved across tiers — is exactly the order
a single binary heap would produce.  ``tests/test_sim_calendar.py``
pins this equivalence property against a reference heap.

Event records are packed 6-tuples ``(time, priority, seq, event, callback,
args)`` so ordering comparisons and sorting stay in C.  The ``event``
field is ``None`` for records created by :meth:`Simulator.post`, the
allocation-free fast path for the per-packet events (link serialization,
propagation delivery) that are never cancelled; :meth:`Simulator.schedule`
additionally allocates an :class:`~repro.sim.events.Event` handle for
callers that may cancel.  Cancellation stays lazy (flag + skip-on-pop)
with the same compaction thresholds the seed engine used.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.sim.events import Event
from repro.sim.taps import PROFILE, attached, invoke

#: One packed event record; ``event`` is None for post()-ed records.
EventRecord = Tuple[float, int, int, Optional[Event], Callable[..., None], tuple]

_INF = math.inf


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


class Simulator:
    """A single-threaded discrete-event scheduler.

    Typical usage::

        sim = Simulator()
        sim.schedule(0.5, callback, arg1, arg2)
        sim.run(until=10.0)

    The simulator stops when the pending set drains, when ``until`` is
    reached, or when :meth:`stop` is called from inside a callback.
    """

    #: Compaction fires only past this many pending cancellations …
    COMPACT_MIN_CANCELLED = 1024
    #: … and only when cancelled events exceed this fraction of the heap.
    COMPACT_FRACTION = 0.5

    #: Promotion sizing: halve the bucket width when a promoted run
    #: exceeds RUN_HI records, double it below RUN_LO.  Runs are kept
    #: deliberately short: scheduling *into* the active run is an
    #: insertion-sort (C bisect + list-insert memmove), and the per-packet
    #: layers post short-delay events constantly, so small runs trade a
    #: few extra promotions (one cheap Timsort each) for much cheaper
    #: in-run inserts.  Tuned on the BENCH_engine.json cells.
    RUN_LO = 8
    RUN_HI = 128
    #: Hard cap: an oversized run is cut back to ~RUN_MAX at a time
    #: boundary and the tail returned to the near bucket.
    RUN_MAX = 512
    #: Bucket width bounds (seconds of simulated time).
    MIN_WIDTH = 1e-9
    MAX_WIDTH = 64.0
    #: Initial bucket width: a fraction of the paper testbed's ~100 us
    #: RTT, so the first promotions start near the adapted regime.
    INITIAL_WIDTH = 16e-6

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        # --- the three tiers ------------------------------------------
        #: Sorted records with time < _run_end, consumed from _run_i.
        self._run: List[EventRecord] = []
        self._run_i = 0
        self._run_end = 0.0
        #: Unsorted records with _run_end <= time < _horizon.
        self._near: List[EventRecord] = []
        #: Records with time >= _horizon: a sorted prefix (consumed from
        #: _far_i, sorted through _far_sorted) plus an appended unsorted
        #: tail whose minimum time is _far_tail_min (inf when clean).
        self._far: List[EventRecord] = []
        self._far_i = 0
        self._far_sorted = 0
        self._far_tail_min = _INF
        self._horizon = 0.0
        self._width = self.INITIAL_WIDTH
        # --- bookkeeping ----------------------------------------------
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._cancelled_pending = 0
        self._compactions = 0
        self._promotions = 0
        self._far_spills = 0
        self._max_run = 0
        self._discards = 0
        self._peak_pending = 0
        #: The tap slot (see :mod:`repro.sim.taps`): one object whose
        #: ``fire(time, priority, callback, args)`` runs every fired
        #: callback, bracketed by the attached validator, race monitor,
        #: profiler and allocation monitor.  Read once per :meth:`run`;
        #: ``None`` (the default) keeps the leanest loop in play.
        #: Change it through :func:`repro.sim.taps.attach`/``detach``.
        self.tap: Optional[Any] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of pending records, including cancelled ones."""
        return (
            (len(self._run) - self._run_i)
            + len(self._near)
            + (len(self._far) - self._far_i)
        )

    @property
    def cancelled_pending(self) -> int:
        """Number of cancelled events still occupying scheduler slots."""
        return self._cancelled_pending

    @property
    def compactions(self) -> int:
        """Number of structure compactions performed (see :meth:`_compact`)."""
        return self._compactions

    @property
    def promotions(self) -> int:
        """Number of near-bucket promotions (sorted-run rebuilds) so far."""
        return self._promotions

    @property
    def far_spills(self) -> int:
        """Records pulled from the far heap into near buckets so far."""
        return self._far_spills

    @property
    def max_run(self) -> int:
        """Largest promoted run size seen (scheduler health metric)."""
        return self._max_run

    @property
    def pushes(self) -> int:
        """Records scheduled so far (every push consumes one ``seq``)."""
        return self._seq

    @property
    def discards(self) -> int:
        """Cancelled records the tapped loop popped and skipped."""
        return self._discards

    @property
    def peak_pending(self) -> int:
        """Largest pending-record count sampled at a promotion."""
        return self._peak_pending

    @property
    def profiler(self) -> Optional[Any]:
        """The attached :class:`~repro.obs.profiler.Profiler`, or ``None``."""
        return attached(self, PROFILE)

    def iter_pending(self) -> Iterator[EventRecord]:
        """Yield every pending record (unspecified order; diagnostics/tests)."""
        yield from self._run[self._run_i:]
        yield from self._near
        yield from self._far[self._far_i:]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``priority`` breaks ties among events at the same instant (lower
        fires first); the insertion sequence breaks remaining ties, so
        same-time same-priority events fire in FIFO order.

        Returns the :class:`Event`, which the caller may :meth:`~Event.cancel`.
        Hot paths that never cancel should prefer :meth:`post`, which
        skips the handle allocation entirely.
        """
        if not 0.0 <= delay < _INF:
            # One comparison rejects negatives, inf and NaN alike: NaN
            # fails every comparison, and letting it into the ordered
            # tiers would silently corrupt the (time, priority, seq)
            # total order instead of failing loudly here.
            raise SimulationError(  # simperf: allow-alloc(error path)
                f"delay must be finite and >= 0, got {delay!r}"  # simperf: allow-alloc(error path)
            )
        time = self._now + delay
        self._seq = seq = self._seq + 1
        event = Event(time, priority, seq, callback, args)  # simperf: allow-alloc(cancellation handle is the documented cost of schedule; post() is the alloc-free path)
        event.sim = self
        record = (time, priority, seq, event, callback, args)  # simperf: allow-alloc(calendar-queue record tuple; inherent to scheduling)
        if time < self._run_end:
            insort(self._run, record, self._run_i)
        elif time < self._horizon:
            self._near.append(record)
        else:
            self._far.append(record)
            if time < self._far_tail_min:
                self._far_tail_min = time
        return event

    def post(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` with no cancellation handle.

        The allocation-free fast path for fire-and-forget events — link
        serialization completions, propagation deliveries, ACK dispatch —
        which dominate event traffic and are never cancelled.  Ordering
        semantics are identical to :meth:`schedule` (``post`` consumes a
        sequence number from the same counter), only the :class:`Event`
        allocation and its back-reference bookkeeping are skipped.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(  # simperf: allow-alloc(error path)
                f"delay must be finite and >= 0, got {delay!r}"  # simperf: allow-alloc(error path)
            )
        time = self._now + delay
        self._seq = seq = self._seq + 1
        record = (time, priority, seq, None, callback, args)  # simperf: allow-alloc(calendar-queue record tuple; inherent to scheduling)
        if time < self._run_end:
            insort(self._run, record, self._run_i)
        elif time < self._horizon:
            self._near.append(record)
        else:
            self._far.append(record)
            if time < self._far_tail_min:
                self._far_tail_min = time

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        return self.schedule(time - self._now, callback, *args, priority=priority)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` while the event is scheduler-resident.

        Lazy deletion leaves cancelled events in place until their
        scheduled time; when they dominate (long runs cancel an RTO timer
        per ACK burst), sorts and spills churn through mostly-dead
        records.  Rebuilding once the dead fraction passes
        ``COMPACT_FRACTION`` keeps the amortized cost constant.
        """
        self._cancelled_pending += 1
        if (
            self._cancelled_pending > self.COMPACT_MIN_CANCELLED
            and self._cancelled_pending * 2 > self.pending_events
        ):
            self._compact()

    @staticmethod
    def _alive(record: EventRecord) -> bool:
        event = record[3]
        return event is None or not event.cancelled

    def _compact(self) -> None:
        """Drop cancelled records from all three tiers, in place.

        In place (slice assignment) because :meth:`run` may hold a local
        alias of the run list; safe mid-run because the loop re-reads the
        consumption index after every callback.
        """
        alive = self._alive
        self._run[:] = [r for r in self._run[self._run_i:] if alive(r)]
        self._run_i = 0
        self._near[:] = [r for r in self._near if alive(r)]
        live_far = [r for r in self._far[self._far_i:] if alive(r)]
        live_far.sort()
        self._far[:] = live_far
        self._far_i = 0
        self._far_sorted = len(live_far)
        self._far_tail_min = _INF
        self._cancelled_pending = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Tier promotion
    # ------------------------------------------------------------------

    def _spill_far(self, horizon: float) -> None:
        """Move far records with ``time < horizon`` into the near bucket.

        Normalizes the far tier first when the unsorted tail could hold a
        spill candidate: consumed prefix dropped, one Timsort (cheap —
        the prefix is already sorted), then a single ``bisect`` bounds
        the spill slice.  Records at exactly ``horizon`` stay far: the
        probe ``(horizon,)`` compares below every real record at that
        time, so ``bisect_left`` lands on the tier boundary.
        """
        far = self._far
        i = self._far_i
        if self._far_tail_min < horizon:
            if i:
                del far[:i]
                i = self._far_i = 0
            far.sort()
            self._far_sorted = len(far)
            self._far_tail_min = _INF
        sorted_end = self._far_sorted
        if i >= sorted_end or far[i][0] >= horizon:
            return
        idx = bisect_left(far, (horizon,), i, sorted_end)
        self._near.extend(far[i:idx])
        self._far_spills += idx - i
        if idx >= len(far):
            del far[:]
            self._far_i = 0
            self._far_sorted = 0
        elif idx >= 8192:
            # Trim the consumed prefix occasionally so memory stays
            # bounded; amortized O(1) per spilled record.
            del far[:idx]
            self._far_i = 0
            self._far_sorted = sorted_end - idx
        else:
            self._far_i = idx

    def _promote(self) -> bool:
        """Build the next sorted run; return False when nothing is pending.

        Never runs user code: the loop calls it between events, so the
        tier invariants can be rearranged atomically.
        """
        near = self._near
        if near:
            near.sort()
        else:
            far = self._far
            i = self._far_i
            if i >= len(far):
                return False
            # Jump the window to the earliest far event: sparse phases
            # (idle network, lone RTO pending) skip ahead in one step
            # instead of sliding the window bucket by bucket.
            start = far[i][0] if i < self._far_sorted else _INF
            if self._far_tail_min < start:
                start = self._far_tail_min
            horizon = start + self._width
            self._horizon = horizon
            self._spill_far(horizon)
            near = self._near  # the spilled slice — already sorted
        size = len(near)
        run = near
        tail: List[EventRecord] = []
        run_end = self._horizon
        if size > self.RUN_MAX:
            # Cut the oversized run at a time boundary: records sharing
            # one instant must stay in one tier, or a later-scheduled
            # lower-priority record could overtake them.
            cut = self.RUN_MAX
            cut_time = run[cut][0]
            while cut > 0 and run[cut - 1][0] == cut_time:
                cut -= 1
            if cut > 0:
                tail = run[cut:]
                del run[cut:]
                run_end = cut_time
        self._run = run
        self._run_i = 0
        self._run_end = run_end
        self._near = tail
        self._promotions += 1
        if size > self._max_run:
            self._max_run = size
        # Adapt the bucket width to the observed density.
        if size > self.RUN_HI:
            if self._width > self.MIN_WIDTH:
                self._width *= 0.5
        elif size < self.RUN_LO and self._width < self.MAX_WIDTH:
            self._width *= 2.0
        if run_end == self._horizon:
            # Consumed the whole near window: slide it one bucket and
            # spill the far records that just became near.
            horizon = run_end + self._width
            self._horizon = horizon
            far = self._far
            i = self._far_i
            if self._far_tail_min < horizon or (
                i < self._far_sorted and far[i][0] < horizon
            ):
                self._spill_far(horizon)
        pending = len(run) + len(self._near) + len(self._far) - self._far_i
        if pending > self._peak_pending:
            self._peak_pending = pending
        return True

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Args:
            until: stop once the clock would pass this time.  Events at
                exactly ``until`` still fire.  The clock is advanced to
                ``until`` on a timed stop so metric windows close cleanly.
            max_events: safety valve; stop after this many fired events.

        Returns:
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")  # simperf: allow-alloc(error path, checked once per run)
        self._running = True
        self._stopped = False
        stop_time = _INF if until is None else until
        tap = self.tap
        # Both loops re-read _run/_run_i every iteration (a cancel inside
        # a callback can trigger a compaction that rebuilds the run and
        # rewinds the index) and fetch the next record with a narrow
        # try/except instead of a length check: the IndexError only ever
        # means "run consumed", because nothing else runs inside the try.
        exhausted = False
        try:
            if tap is None and max_events is None:
                # Leanest loop: the default configuration for experiments
                # (no tap, no event budget).  Identical semantics minus
                # the tap call and the ``remaining`` countdown; keeping
                # the hot loop branch-free is worth the duplication.
                while True:
                    i = self._run_i
                    run = self._run
                    try:
                        record = run[i]
                    except IndexError:
                        if self._promote():  # simperf: allow-alloc(amortized: one rebuild per calendar batch)
                            continue
                        exhausted = True
                        break
                    time = record[0]
                    if time > stop_time:
                        if stop_time > self._now:
                            self._now = stop_time
                        break
                    event = record[3]
                    if event is not None:
                        if event.cancelled:
                            self._run_i = i + 1
                            event.sim = None
                            self._cancelled_pending -= 1
                            continue
                        event.sim = None
                    self._run_i = i + 1
                    self._now = time
                    args = record[5]
                    if args:
                        record[4](*args)  # simlint: disable=SIM023 - unpacking an existing tuple is the fast variadic call shape
                    else:
                        record[4]()
                    self._events_processed += 1
                    if self._stopped:
                        break
            else:
                # General loop: a tap, an event budget (max_events), or
                # both.  The tap fires the callback itself.
                fire = tap.fire if tap is not None else invoke
                remaining = _INF if max_events is None else max_events
                while True:
                    i = self._run_i
                    run = self._run
                    try:
                        record = run[i]
                    except IndexError:
                        if self._promote():  # simperf: allow-alloc(amortized: one rebuild per calendar batch)
                            continue
                        exhausted = True
                        break
                    time = record[0]
                    if time > stop_time:
                        if stop_time > self._now:
                            self._now = stop_time
                        break
                    event = record[3]
                    if event is not None:
                        if event.cancelled:
                            self._run_i = i + 1
                            event.sim = None
                            self._cancelled_pending -= 1
                            self._discards += 1
                            continue
                        event.sim = None
                    self._run_i = i + 1
                    self._now = time
                    fire(time, record[1], record[4], record[5])
                    self._events_processed += 1
                    if self._stopped:
                        break
                    remaining -= 1
                    if remaining <= 0:
                        break
        finally:
            self._running = False
        if exhausted and until is not None and stop_time > self._now:
            self._now = stop_time
        return self._now

    def stop(self) -> None:
        """Request the loop to stop after the current callback returns."""
        self._stopped = True

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        Only meaningful between independent runs that reuse the object;
        experiments normally build a fresh :class:`Simulator` instead.
        """
        if self._running:
            raise SimulationError("cannot reset a running simulator")
        for record in self.iter_pending():
            if record[3] is not None:
                record[3].sim = None
        self._run = []
        self._run_i = 0
        self._run_end = 0.0
        self._near = []
        self._far = []
        self._far_i = 0
        self._far_sorted = 0
        self._far_tail_min = _INF
        self._horizon = 0.0
        self._width = self.INITIAL_WIDTH
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._cancelled_pending = 0
        self._compactions = 0
        self._promotions = 0
        self._far_spills = 0
        self._max_run = 0
        self._discards = 0
        self._peak_pending = 0
        self._stopped = False


__all__ = ["Simulator", "SimulationError", "EventRecord"]
