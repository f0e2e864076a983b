"""Property-based equivalence tests for the calendar-queue scheduler.

The calendar/ladder structure (sorted run / near bucket / far heap) must
fire events in *exactly* the order a single reference binary heap would:
ascending ``(time, priority, seq)``, where ``seq`` is allocation order.
These tests run every random workload twice — once on the real
:class:`Simulator`, once on :class:`ReferenceSimulator`, a deliberately
naive seed-style binary-heap scheduler defined below — and assert the
fired sequences are identical, across dynamic (in-run) scheduling,
``post`` fast-path records, cancellations, same-instant priority ties,
forced compaction, and ``run(until)`` / ``max_events`` interleavings.
Each workload also reruns with a pass-through tap attached, which moves
every run onto the engine's general (tapped) loop: the order must not
change, and the tap must see each fired event once.
(A flat "sort the creation log" oracle is *not* equivalent: an event
created by a same-instant firing necessarily runs after its creator,
which only an actual scheduler models.)

Times are multiples of 1/1024 s so float sums are exact (PR 2's
convention), and the scripts shrink the compaction threshold and lean on
the engine's adaptive bucket width so small workloads still cross tier
boundaries.  Uses ``hypothesis`` when available, with a seeded-fuzz
fallback exercising the same properties otherwise.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

import pytest

from repro.sim import taps
from repro.sim.engine import Simulator

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal images
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.invariants

TICK = 1.0 / 1024.0


class _RefEvent:
    """Cancellation handle for :class:`ReferenceSimulator` entries."""

    __slots__ = ("entry",)

    def __init__(self, entry):
        self.entry = entry

    def cancel(self):
        self.entry[3] = True


class ReferenceSimulator:
    """The seed engine, reduced to its ordering semantics: one binary
    heap of ``(time, priority, seq, cancelled, callback, args)`` entries,
    lazy cancellation, events at exactly ``until`` fire, the clock
    advances to ``until`` on a timed stop."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0.0

    def schedule(self, delay, callback, *args, priority=0):
        self._seq += 1
        entry = [self.now + delay, priority, self._seq, False, callback, args]
        heappush(self._heap, entry)
        return _RefEvent(entry)

    def post(self, delay, callback, *args, priority=0):
        # Same sequence counter, no handle — mirrors Simulator.post.
        self._seq += 1
        heappush(
            self._heap,
            [self.now + delay, priority, self._seq, False, callback, args],
        )

    def run(self, until=None, max_events=None):
        remaining = float("inf") if max_events is None else max_events
        while self._heap and remaining > 0:
            entry = self._heap[0]
            if entry[3]:
                heappop(self._heap)
                continue
            if until is not None and entry[0] > until:
                break
            heappop(self._heap)
            self.now = entry[0]
            entry[4](*entry[5])
            remaining -= 1
        if until is not None and until > self.now:
            self.now = until
        return self.now


def interpret(sim, script, until_ticks=None, max_events=None):
    """Interpret ``script`` on any scheduler; return the fired list.

    ``script[0]`` is the setup program executed before ``run``;
    program ``k + 1`` runs when the event labelled ``k`` fires.  Ops:

    * ``("schedule", delay_ticks, priority, _)`` — cancellable record;
    * ``("post", delay_ticks, priority, _)`` — fast-path record;
    * ``("cancel", _, _, ref)`` — cancel the ``ref % created``-th record
      (a no-op on ``post`` records, exactly as at the engine API).
    """
    fired = []
    priorities = []  # label -> priority, creation order == seq order
    handles = []  # label -> handle | None (post records have none)

    def execute(ops):
        for kind, dticks, priority, ref in ops:
            if kind == "schedule":
                label = len(handles)
                priorities.append(priority)
                handles.append(
                    sim.schedule(dticks * TICK, fire, label, priority=priority)
                )
            elif kind == "post":
                label = len(handles)
                priorities.append(priority)
                handles.append(None)
                sim.post(dticks * TICK, fire, label, priority=priority)
            else:  # cancel
                if handles:
                    handle = handles[ref % len(handles)]
                    if handle is not None:
                        handle.cancel()

    def fire(label):
        fired.append((sim.now, priorities[label], label))
        if label + 1 < len(script):
            execute(script[label + 1])

    execute(script[0] if script else [])
    if until_ticks is not None:
        sim.run(until=until_ticks * TICK)
    if max_events is not None:
        sim.run(max_events=max_events)
    sim.run()  # drain whatever remains after the partial runs
    return fired


class PassThroughTap:
    """Records ``(time, priority)`` of every event it fires."""

    kind = taps.PROFILE

    def __init__(self):
        self.seen = []

    def fire(self, time, priority, callback, args, call=taps.invoke):
        self.seen.append((time, priority))
        call(time, priority, callback, args)


def check_workload(script, until_ticks=None, max_events=None, tapped=False):
    real = Simulator()
    real.COMPACT_MIN_CANCELLED = 4  # instance attr shadows class default
    tap = PassThroughTap()
    if tapped:
        taps.attach(real, tap)
    fired = interpret(real, script, until_ticks, max_events)
    reference = interpret(
        ReferenceSimulator(), script, until_ticks, max_events
    )
    assert fired == reference
    assert real.pending_events - real.cancelled_pending == 0
    if tapped:
        assert tap.seen == [(time, priority) for time, priority, _ in fired]


# ----------------------------------------------------------------------
# Deterministic spot checks of tier-boundary semantics
# ----------------------------------------------------------------------


def test_same_instant_priority_tie_across_promotion():
    """A later-scheduled higher-priority record at an instant already in
    the active run must still fire first at that instant."""
    sim = Simulator()
    fired = []
    # Force multiple promotions: events far enough apart that the initial
    # bucket width (256 us) separates them into distinct runs.
    for i in range(64):
        sim.schedule(i * TICK, fired.append, ("base", i))

    def inject():
        # Now inside the run containing t=32*TICK: schedule a same-time,
        # higher-priority event at t=33*TICK, which the run already holds.
        sim.schedule(TICK, fired.append, ("vip", 33), priority=-1)

    sim.schedule(32 * TICK, inject, priority=-2)
    sim.run()
    i_vip = fired.index(("vip", 33))
    i_base = fired.index(("base", 33))
    assert i_vip == i_base - 1, "higher priority must precede at the instant"
    assert [x for x in fired if x[0] == "base"] == [
        ("base", i) for i in range(64)
    ]


def test_fifo_among_equal_priority_across_tiers():
    sim = Simulator()
    fired = []
    # Same instant, scheduled in two phases: first up-front (far heap),
    # then from inside an earlier event (active run).  FIFO by seq must
    # hold across both origins.
    for i in range(4):
        sim.schedule(TICK, fired.append, i)
    sim.schedule(0.0, lambda: [sim.schedule(TICK, fired.append, 4 + i) for i in range(4)])
    sim.run()
    assert fired == list(range(8))


def test_post_and_schedule_share_one_sequence():
    sim = Simulator()
    fired = []
    sim.schedule(TICK, fired.append, "a")
    sim.post(TICK, fired.append, "b")
    sim.schedule(TICK, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_nonfinite_delays_rejected():
    from repro.sim.engine import SimulationError

    sim = Simulator()
    for bad in (float("nan"), float("inf"), -float("inf"), -1e-9):
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.post(bad, lambda: None)
    assert sim.pending_events == 0


def test_until_boundary_inside_active_run():
    """run(until) must stop cleanly even when the boundary falls inside
    a promoted run, and the next run() must resume in order."""
    sim = Simulator()
    fired = []
    for i in range(100):
        sim.schedule(i * TICK, fired.append, i)
    sim.run(until=37 * TICK)
    assert fired == list(range(38))  # events at exactly until fire
    assert sim.now == 37 * TICK
    sim.run()
    assert fired == list(range(100))


def test_counters_track_promotions_and_spills():
    sim = Simulator()
    for i in range(512):
        sim.schedule(i * TICK, lambda: None)
    sim.run()
    assert sim.promotions > 0
    assert sim.far_spills > 0
    assert sim.max_run >= 1
    assert sim.pending_events == 0


# ----------------------------------------------------------------------
# Drivers: hypothesis when present, seeded fuzz otherwise
# ----------------------------------------------------------------------

_op = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.integers(min_value=0, max_value=48),
        st.integers(min_value=-2, max_value=2),
        st.just(0),
    ),
    st.tuples(
        st.just("post"),
        st.integers(min_value=0, max_value=48),
        st.integers(min_value=-2, max_value=2),
        st.just(0),
    ),
    st.tuples(
        st.just("cancel"),
        st.just(0),
        st.just(0),
        st.integers(min_value=0, max_value=255),
    ),
) if HAVE_HYPOTHESIS else None

if HAVE_HYPOTHESIS:
    scripts = st.lists(
        st.lists(_op, max_size=6), min_size=1, max_size=24
    )

    @given(scripts)
    @settings(max_examples=120, deadline=None)
    def test_calendar_matches_reference_order(script):
        check_workload(script)

    @given(
        scripts,
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_calendar_matches_reference_with_partial_runs(
        script, until_ticks, max_events
    ):
        check_workload(script, until_ticks=until_ticks, max_events=max_events)

    @given(scripts)
    @settings(max_examples=120, deadline=None)
    def test_tapped_calendar_matches_reference_order(script):
        check_workload(script, tapped=True)

    @given(
        scripts,
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_tapped_calendar_matches_reference_with_partial_runs(
        script, until_ticks, max_events
    ):
        check_workload(
            script, until_ticks=until_ticks, max_events=max_events, tapped=True
        )

else:  # pragma: no cover - minimal images only

    def _random_script(rng):
        script = []
        for _ in range(rng.randrange(1, 25)):
            ops = []
            for _ in range(rng.randrange(0, 7)):
                roll = rng.random()
                if roll < 0.45:
                    ops.append(
                        ("schedule", rng.randrange(0, 49),
                         rng.randrange(-2, 3), 0)
                    )
                elif roll < 0.8:
                    ops.append(
                        ("post", rng.randrange(0, 49),
                         rng.randrange(-2, 3), 0)
                    )
                else:
                    ops.append(("cancel", 0, 0, rng.randrange(0, 256)))
            script.append(ops)
        return script

    def test_calendar_matches_reference_order():
        rng = random.Random(0x5EED)
        for _ in range(250):
            check_workload(_random_script(rng))

    def test_calendar_matches_reference_with_partial_runs():
        rng = random.Random(0xCA1E)
        for _ in range(250):
            check_workload(
                _random_script(rng),
                until_ticks=rng.randrange(0, 65),
                max_events=rng.randrange(1, 41),
            )

    def test_tapped_calendar_matches_reference_order():
        rng = random.Random(0x7A9)
        for _ in range(250):
            check_workload(_random_script(rng), tapped=True)

    def test_tapped_calendar_matches_reference_with_partial_runs():
        rng = random.Random(0x7A9E)
        for _ in range(250):
            check_workload(
                _random_script(rng),
                until_ticks=rng.randrange(0, 65),
                max_events=rng.randrange(1, 41),
                tapped=True,
            )
