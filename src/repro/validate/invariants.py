"""Runtime invariant checkers for the simulator's mechanism laws.

The reproduction's claims rest on precise mechanism behaviour: the
marking rule (paper §2.1), the once-per-round BOS reduction machine
(Fig. 2 / Algorithm 1), TraSh's per-round δ (Eq. 9), and plain
conservation laws every discrete-event network model must obey.  A
:class:`Validator` attaches lightweight observers to simulators, queues,
links and senders as they are constructed (see :func:`validating` and
:mod:`repro.sim.taps`) and checks:

* **sim-time monotonicity** — the event clock never moves backwards and
  the fired-event count matches what the observer saw;
* **packet conservation per queue** — ``enqueued == dequeued + resident``
  and the observer's own enqueue/dequeue counts match the queue's
  counters (catching corrupted counters, not just wrong totals);
* **queue admission** — occupancy never exceeds capacity;
* **CE-marking consistency** — an ECT packet admitted over threshold
  ``K`` must carry CE (§2.1's instantaneous rule), and CE never appears
  on a non-ECT packet (RFC 3168: non-ECT is dropped, never marked);
* **link byte conservation** — transmitted counters match observed
  per-packet sizes, and a link never transmits more than was offered;
* **sender sanity** — ``snd_una <= snd_nxt <= assigned``, ``snd_una``
  monotone, ``cwnd`` finite and >= 1, and ``cwnd`` only changes through
  the congestion-control hooks (tampering between ACKs is detected);
* **BOS law conformance** — at most one multiplicative cut per RTT
  window (Fig. 2), cut depth exactly ``cwnd/β`` bounded below by
  ``MIN_CWND`` (Eq. 1), per-round additive growth at most ``δ`` plus the
  fractional adder's carry (Algorithm 1), and under TraSh coupling
  ``δ <= w · srtt/min_rtt`` (a bound implied by Eq. 9, since the
  subflow's own rate contributes to the coupled total);
* **end-to-end byte conservation per flow** — the connection's delivered
  count equals the sum of subflow ACK points, the receiver is never
  behind the sender's ACK point, and a completed finite transfer
  delivered exactly its size.

Observers are attached per object.  Queues and links are watched by
swapping the instance's ``__class__`` for a generated subclass whose
``accept``/``pop``/``_finish_transmission`` notify the observer around
the base implementation — the base classes' hot paths carry no check at
all, so an un-validated run pays exactly nothing on the per-packet path.
The simulator is watched through its tap slot (:class:`SimObserver` is
the validator's tap), and the TCP ACK path keeps a single aliased
``observer is None`` branch (a long-lived method that cannot be swapped
mid-run).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional

from repro.sim.taps import VALIDATE, attach, attached, invoke, tapping
from repro.transport.cc import MIN_CWND

#: Slack for float comparisons in window-law checks.
EPS = 1e-9


class InvariantError(AssertionError):
    """Raised when one or more runtime invariants were violated."""


@dataclass(frozen=True)
class Violation:
    """One invariant failure: which law, on what object, and why."""

    invariant: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.subject}: {self.message}"


# ----------------------------------------------------------------------
# Observers (one per watched object; hot-path callbacks live here)
# ----------------------------------------------------------------------


# ----------------------------------------------------------------------
# Observed subclasses for per-packet hot paths
# ----------------------------------------------------------------------
#
# Watching a queue or link swaps the instance's ``__class__`` for a
# generated subclass (``__slots__ = ()`` keeps the layout identical, so
# the assignment is legal) whose hot methods wrap the originals.  The
# wrappers resolve the base method through the original class at call
# time, so ``monkeypatch.setattr(ThresholdECNQueue, "_mark", ...)``-style
# sabotage in negative tests still reaches the real implementation.

_OBSERVED_QUEUE: dict = {}
_OBSERVED_LINK: dict = {}


def _observed_queue_class(cls: type) -> type:
    if getattr(cls, "_repro_observed", False):
        return cls
    observed = _OBSERVED_QUEUE.get(cls)
    if observed is not None:
        return observed

    def accept(self: Any, packet: Any) -> bool:
        occupancy_before = len(self._buffer)
        accepted = cls.accept(self, packet)
        observer = self.observer
        if observer is not None:
            if accepted:
                observer.on_enqueue(self, packet, occupancy_before)
            else:
                observer.on_drop(self, packet)
        return accepted

    def pop(self: Any) -> Any:
        packet = cls.pop(self)
        if packet is not None and self.observer is not None:
            self.observer.on_dequeue(self, packet)
        return packet

    observed = type(
        "Observed" + cls.__name__,
        (cls,),
        {
            "__slots__": (),
            "_repro_observed": True,
            "accept": accept,
            "pop": pop,
        },
    )
    _OBSERVED_QUEUE[cls] = observed
    return observed


def _observed_link_class(cls: type) -> type:
    if getattr(cls, "_repro_observed", False):
        return cls
    observed = _OBSERVED_LINK.get(cls)
    if observed is not None:
        return observed

    def _finish_transmission(self: Any, packet: Any) -> None:
        # Capture up/down before the base method: it may start the next
        # transmission, but it cannot flip ``up`` (that takes an external
        # set_down call, which runs as its own event).
        was_up = self.up
        cls._finish_transmission(self, packet)
        if was_up and self.observer is not None:
            self.observer.on_transmit(self, packet)

    observed = type(
        "Observed" + cls.__name__,
        (cls,),
        {
            "__slots__": (),
            "_repro_observed": True,
            "_finish_transmission": _finish_transmission,
        },
    )
    _OBSERVED_LINK[cls] = observed
    return observed


class SimObserver:
    """Watches one simulator: monotonic clock, consistent event counter.

    The validator's tap (see :mod:`repro.sim.taps`): every fired event
    passes through :meth:`fire`.
    """

    __slots__ = ("validator", "sim", "last_time", "events_seen", "base_events")

    kind = VALIDATE

    def __init__(self, validator: "Validator", sim: Any) -> None:
        self.validator = validator
        self.sim = sim
        self.last_time = sim.now
        self.events_seen = 0
        self.base_events = sim.events_processed

    def fire(
        self,
        time: float,
        priority: int,
        callback: Callable[..., None],
        args: tuple,
        call: Callable[..., None] = invoke,
    ) -> None:
        v = self.validator
        v.checks += 2
        if time < self.last_time:
            v.record(
                "sim-time-monotonic",
                "simulator",
                f"clock moved backwards: {self.last_time!r} -> {time!r}",
            )
        if not (time >= 0.0):  # also catches NaN
            v.record("sim-time-monotonic", "simulator", f"non-finite or negative event time {time!r}")
        self.last_time = time
        self.events_seen += 1
        call(time, priority, callback, args)

    def finish(self) -> None:
        v = self.validator
        v.checks += 1
        fired = self.sim.events_processed - self.base_events
        if fired != self.events_seen:
            v.record(
                "sim-event-counter",
                "simulator",
                f"events_processed advanced by {fired} but the observer saw "
                f"{self.events_seen} events — counter corrupted or an event "
                "bypassed the loop",
            )


class QueueObserver:
    """Watches one queue: admission, marking rule, packet conservation."""

    __slots__ = ("validator", "queue", "label", "enq_seen", "deq_seen",
                 "drop_seen", "base")

    def __init__(self, validator: "Validator", queue: Any, label: str) -> None:
        self.validator = validator
        self.queue = queue
        self.label = label
        self.enq_seen = 0
        self.deq_seen = 0
        self.drop_seen = 0
        self.base = queue.stats.snapshot()

    def on_enqueue(self, queue: Any, packet: Any, occupancy_before: int) -> None:
        v = self.validator
        v.checks += 3
        self.enq_seen += 1
        if occupancy_before + 1 > queue.capacity:
            v.record(
                "queue-admission",
                self.label,
                f"over-admitted past capacity: occupancy {occupancy_before + 1} "
                f"> capacity {queue.capacity}",
            )
        if packet.ce and not packet.ect:
            v.record(
                "ce-marking",
                self.label,
                f"CE set on a non-ECT packet ({packet!r}); queues may only "
                "mark ECT traffic (RFC 3168)",
            )
        threshold = getattr(queue, "threshold", None)
        if (
            threshold is not None
            and packet.ect
            and occupancy_before >= threshold
            and not packet.ce
        ):
            v.record(
                "ce-marking",
                self.label,
                f"ECT packet admitted at occupancy {occupancy_before} >= "
                f"K={threshold} without a CE mark (paper §2.1 marking rule)",
            )

    def on_drop(self, queue: Any, packet: Any) -> None:
        v = self.validator
        v.checks += 1
        self.drop_seen += 1
        if len(queue) < queue.capacity:
            v.record(
                "queue-admission",
                self.label,
                f"dropped {packet!r} while occupancy {len(queue)} < "
                f"capacity {queue.capacity}",
            )

    def on_dequeue(self, queue: Any, packet: Any) -> None:
        self.validator.checks += 1
        self.deq_seen += 1

    def finish(self) -> None:
        v = self.validator
        queue, base = self.queue, self.base
        stats = queue.stats
        v.checks += 6
        enq = stats.enqueued - base["enqueued"]
        deq = stats.dequeued - base["dequeued"]
        if enq != self.enq_seen:
            v.record(
                "queue-conservation",
                self.label,
                f"enqueued counter advanced by {enq} but the observer saw "
                f"{self.enq_seen} enqueues — counter corrupted",
            )
        if deq != self.deq_seen:
            v.record(
                "queue-conservation",
                self.label,
                f"dequeued counter advanced by {deq} but the observer saw "
                f"{self.deq_seen} dequeues — counter corrupted",
            )
        resident = len(queue)
        if stats.enqueued != stats.dequeued + resident:
            v.record(
                "queue-conservation",
                self.label,
                f"packet conservation broken: enqueued={stats.enqueued} != "
                f"dequeued={stats.dequeued} + resident={resident}",
            )
        if stats.dropped - base["dropped"] < self.drop_seen:
            v.record(
                "queue-conservation",
                self.label,
                f"dropped counter ({stats.dropped - base['dropped']}) fell "
                f"behind observed drops ({self.drop_seen})",
            )
        if stats.marked > stats.enqueued:
            v.record(
                "ce-marking",
                self.label,
                f"marked={stats.marked} exceeds enqueued={stats.enqueued}",
            )
        if stats.max_occupancy > queue.capacity or resident > queue.capacity:
            v.record(
                "queue-admission",
                self.label,
                f"occupancy exceeded capacity {queue.capacity} "
                f"(max_occupancy={stats.max_occupancy}, resident={resident})",
            )


class LinkObserver:
    """Watches one link direction: byte/packet counter consistency."""

    __slots__ = ("validator", "link", "bytes_seen", "packets_seen",
                 "base_bytes", "base_packets", "base_offered")

    def __init__(self, validator: "Validator", link: Any) -> None:
        self.validator = validator
        self.link = link
        self.bytes_seen = 0
        self.packets_seen = 0
        self.base_bytes = link.bytes_transmitted
        self.base_packets = link.packets_transmitted
        self.base_offered = link.bytes_offered

    def on_transmit(self, link: Any, packet: Any) -> None:
        self.validator.checks += 1
        self.bytes_seen += packet.size
        self.packets_seen += 1

    def finish(self) -> None:
        v = self.validator
        link = self.link
        v.checks += 3
        tx_bytes = link.bytes_transmitted - self.base_bytes
        tx_packets = link.packets_transmitted - self.base_packets
        if tx_bytes != self.bytes_seen or tx_packets != self.packets_seen:
            v.record(
                "link-conservation",
                link.name,
                f"transmit counters ({tx_packets} pkts / {tx_bytes} B) do not "
                f"match observed transmissions ({self.packets_seen} pkts / "
                f"{self.bytes_seen} B)",
            )
        if link.bytes_transmitted > link.bytes_offered:
            v.record(
                "link-conservation",
                link.name,
                f"transmitted {link.bytes_transmitted} B exceeds offered "
                f"{link.bytes_offered} B",
            )


class SenderObserver:
    """Watches one TCP sender: sequence sanity and cwnd provenance."""

    __slots__ = ("validator", "sender", "label", "expected_cwnd", "last_una")

    def __init__(self, validator: "Validator", sender: Any) -> None:
        self.validator = validator
        self.sender = sender
        self.label = f"flow {sender.flow}.{sender.subflow}"
        #: cwnd at the end of the previous ACK; ``None`` = unsynchronized
        #: (before the first ACK or right after an RTO).
        self.expected_cwnd: Optional[float] = None
        self.last_una = sender.snd_una

    def on_ack(
        self,
        sender: Any,
        newly: int,
        ece_count: int,
        round_ended: bool,
        cwnd_before: float,
    ) -> None:
        v = self.validator
        v.checks += 4
        if self.expected_cwnd is not None and cwnd_before != self.expected_cwnd:
            v.record(
                "cwnd-provenance",
                self.label,
                f"cwnd changed outside the congestion-control hooks: was "
                f"{self.expected_cwnd:.6f} after the previous ACK, found "
                f"{cwnd_before:.6f} — something mutated sender.cwnd directly",
            )
        if sender.snd_una < self.last_una:
            v.record(
                "sender-sequence",
                self.label,
                f"snd_una moved backwards: {self.last_una} -> {sender.snd_una}",
            )
        if not (sender.snd_una <= sender.snd_nxt <= sender.assigned):
            v.record(
                "sender-sequence",
                self.label,
                f"sequence ordering broken: snd_una={sender.snd_una}, "
                f"snd_nxt={sender.snd_nxt}, assigned={sender.assigned}",
            )
        cwnd = sender.cwnd
        if not (1.0 - EPS <= cwnd < float("inf")):
            v.record(
                "cwnd-bounds",
                self.label,
                f"cwnd left its sane range: {cwnd!r} (must be finite and >= 1)",
            )
        self.expected_cwnd = cwnd
        self.last_una = sender.snd_una

    def on_rto(self, sender: Any) -> None:
        # The RTO path collapses cwnd through cc.on_timeout; re-sync.
        self.validator.checks += 1
        self.expected_cwnd = sender.cwnd
        self.last_una = sender.snd_una

    def finish(self) -> None:
        v = self.validator
        sender = self.sender
        v.checks += 2
        if not (0 <= sender.snd_una <= sender.snd_nxt <= sender.assigned):
            v.record(
                "sender-sequence",
                self.label,
                f"final sequence state inconsistent: snd_una={sender.snd_una}, "
                f"snd_nxt={sender.snd_nxt}, assigned={sender.assigned}",
            )
        total_tx = sender.segments_sent + sender.retransmissions
        if sender.snd_una > total_tx:
            v.record(
                "sender-sequence",
                self.label,
                f"{sender.snd_una} segments acknowledged but only {total_tx} "
                "transmissions recorded",
            )


class BosObserver:
    """Watches one BOS controller: the paper's window laws (Alg. 1, Eq. 9)."""

    __slots__ = ("validator", "cc", "label", "last_cut_seq", "cuts_seen")

    def __init__(self, validator: "Validator", cc: Any, label: str) -> None:
        self.validator = validator
        self.cc = cc
        self.label = label
        self.last_cut_seq: Optional[int] = None
        self.cuts_seen = 0

    def on_reduce(self, cc: Any, cwnd_before: float, cwnd_after: float) -> None:
        v = self.validator
        v.checks += 3
        sender = cc.sender
        self.cuts_seen += 1
        if self.last_cut_seq is not None and sender.snd_una < self.last_cut_seq:
            v.record(
                "bos-once-per-round",
                self.label,
                f"second multiplicative cut before the previous reduction "
                f"round was ACKed (snd_una={sender.snd_una} < "
                f"cwr_seq={self.last_cut_seq}); Fig. 2 allows at most one "
                "cut per RTT",
            )
        # The MIN_CWND clamp may legitimately *raise* a window that
        # recovery deflated below 2 segments; beyond that, a cut must
        # never grow the window.
        if cwnd_after > max(cwnd_before, MIN_CWND) + EPS:
            v.record(
                "bos-cut-depth",
                self.label,
                f"reduction grew cwnd: {cwnd_before:.6f} -> {cwnd_after:.6f}",
            )
        floor = max(cwnd_before - max(cwnd_before / cc.beta, 1.0), 0.0)
        floor = min(floor, cwnd_before)
        lower = max(min(cwnd_before, MIN_CWND), floor) - EPS
        if cwnd_after < lower:
            v.record(
                "bos-cut-depth",
                self.label,
                f"cut deeper than cwnd/beta: {cwnd_before:.6f} -> "
                f"{cwnd_after:.6f} with beta={cc.beta} (Eq. 1 cut is "
                "cwnd/beta, floored at MIN_CWND)",
            )
        self.last_cut_seq = cc.cwr_seq

    def on_round(self, cc: Any, delta: float, grown: int) -> None:
        v = self.validator
        v.checks += 3
        if not (delta > 0.0):
            v.record(
                "trash-delta-bounds",
                self.label,
                f"non-positive growth parameter delta={delta!r} (Eq. 9 "
                "yields strictly positive deltas)",
            )
        if grown > delta + 1.0 + EPS:
            v.record(
                "bos-additive-growth",
                self.label,
                f"grew cwnd by {grown} segments in one round with "
                f"delta={delta:.6f}; Algorithm 1 allows at most "
                "floor(adder + delta) <= delta + 1 per round",
            )
        if not (0.0 - EPS <= cc.adder < 1.0 + EPS):
            v.record(
                "bos-additive-growth",
                self.label,
                f"fractional adder left [0, 1): {cc.adder!r}",
            )
        coupling = getattr(cc.delta_provider, "__self__", None)
        if coupling is not None and hasattr(coupling, "min_rtt"):
            sender = cc.sender
            srtt = sender.srtt if sender is not None else None
            min_rtt = coupling.min_rtt()
            weight = getattr(coupling, "weight", 1.0)
            if srtt is not None and min_rtt is not None and min_rtt > 0:
                v.checks += 1
                bound = weight * srtt / min_rtt
                if delta > bound * (1.0 + 1e-6) + EPS:
                    v.record(
                        "trash-delta-bounds",
                        self.label,
                        f"delta={delta:.6f} exceeds the Eq. 9 bound "
                        f"w*srtt/min_rtt={bound:.6f} (weight={weight}, "
                        f"srtt={srtt:.6g}, min_rtt={min_rtt:.6g})",
                    )

    def finish(self) -> None:
        v = self.validator
        v.checks += 1
        if self.cc.reductions != self.cuts_seen:
            v.record(
                "bos-once-per-round",
                self.label,
                f"controller counted {self.cc.reductions} reductions but the "
                f"observer saw {self.cuts_seen}",
            )


# ----------------------------------------------------------------------
# The validator
# ----------------------------------------------------------------------


class Validator:
    """Collects observers and violations for one validated run.

    Activate it with :func:`validating` (or
    :func:`repro.sim.taps.activate`); constructors in the instrumented
    modules register new simulators, queues, links, senders and
    connections automatically.  Call :meth:`finish` after the simulation
    to run the post-hoc conservation sweeps, then
    :meth:`raise_if_violations` (or inspect :attr:`violations`).
    """

    def __init__(self, fail_fast: bool = False) -> None:
        self.fail_fast = fail_fast
        self.violations: List[Violation] = []
        #: Number of individual invariant evaluations performed.
        self.checks = 0
        self.finished = False
        self._sim_observers: List[SimObserver] = []
        self._queue_observers: List[QueueObserver] = []
        self._link_observers: List[LinkObserver] = []
        self._sender_observers: List[SenderObserver] = []
        self._bos_observers: List[BosObserver] = []
        self._connections: List[Any] = []

    # -- registration ---------------------------------------------------

    def attach(self, sim: Any) -> None:
        """Tap a simulator with a :class:`SimObserver` (idempotent per object)."""
        if attached(sim, VALIDATE) is not None:
            return
        observer = SimObserver(self, sim)
        attach(sim, observer)
        self._sim_observers.append(observer)

    def watch_queue(self, queue: Any, label: str = "queue") -> None:
        """Instrument a queue (idempotent per object)."""
        if queue.observer is not None:
            return
        queue.__class__ = _observed_queue_class(queue.__class__)
        observer = QueueObserver(self, queue, label)
        queue.observer = observer
        self._queue_observers.append(observer)

    def watch_link(self, link: Any) -> None:
        """Instrument a link and its queue (idempotent per object)."""
        if link.observer is None:
            link.__class__ = _observed_link_class(link.__class__)
            # The class swap changes where the link's pre-bound transmit
            # callbacks must resolve; refresh them (see Link._rebind).
            link._rebind()
            observer = LinkObserver(self, link)
            link.observer = observer
            self._link_observers.append(observer)
        self.watch_queue(link.queue, label=f"queue[{link.name}]")

    def watch_sender(self, sender: Any) -> None:
        """Instrument a TCP sender; BOS controllers get law checks too."""
        if sender.observer is not None:
            return
        observer = SenderObserver(self, sender)
        sender.observer = observer
        self._sender_observers.append(observer)
        cc = sender.cc
        # Duck-typed BOS detection keeps this module import-light.
        if (
            getattr(cc, "observer", "missing") is None
            and hasattr(cc, "beta")
            and hasattr(cc, "adder")
        ):
            bos = BosObserver(self, cc, observer.label)
            cc.observer = bos
            self._bos_observers.append(bos)

    def watch_connection(self, connection: Any) -> None:
        """Register a transfer for end-to-end conservation checks."""
        self._connections.append(connection)

    @property
    def watched_objects(self) -> int:
        return (
            len(self._sim_observers)
            + len(self._queue_observers)
            + len(self._link_observers)
            + len(self._sender_observers)
            + len(self._bos_observers)
            + len(self._connections)
        )

    # -- recording ------------------------------------------------------

    def record(self, invariant: str, subject: str, message: str) -> None:
        """Record one violation (and raise immediately when fail-fast)."""
        violation = Violation(invariant, subject, message)
        self.violations.append(violation)
        if self.fail_fast:
            raise InvariantError(str(violation))

    # -- post-run -------------------------------------------------------

    def finish(self) -> None:
        """Run the post-hoc sweeps (conservation, counter consistency)."""
        if self.finished:
            return
        self.finished = True
        for group in (
            self._sim_observers,
            self._queue_observers,
            self._link_observers,
            self._sender_observers,
            self._bos_observers,
        ):
            for observer in group:
                observer.finish()
        for connection in self._connections:
            self._finish_connection(connection)

    def _finish_connection(self, conn: Any) -> None:
        label = f"connection {conn.flow_id} ({conn.scheme})"
        self.checks += 3 + 2 * len(conn.subflows)
        acked = sum(s.sender.snd_una for s in conn.subflows)
        if conn.delivered_segments != acked:
            self.record(
                "flow-conservation",
                label,
                f"delivered_segments={conn.delivered_segments} != sum of "
                f"subflow ACK points {acked}",
            )
        for subflow in conn.subflows:
            sender, receiver = subflow.sender, subflow.receiver
            if receiver.rcv_nxt < sender.snd_una:
                self.record(
                    "flow-conservation",
                    label,
                    f"subflow {subflow.index}: receiver rcv_nxt="
                    f"{receiver.rcv_nxt} behind sender snd_una={sender.snd_una}",
                )
            total_tx = sender.segments_sent + sender.retransmissions
            if receiver.rcv_nxt > total_tx:
                self.record(
                    "flow-conservation",
                    label,
                    f"subflow {subflow.index}: {receiver.rcv_nxt} segments "
                    f"received in order but only {total_tx} transmissions made",
                )
        total = conn.total_segments
        if total is not None and conn.completed:
            reinjected = any(s.failed for s in conn.subflows)
            if conn.delivered_segments < total or (
                not reinjected and conn.delivered_segments != total
            ):
                self.record(
                    "flow-conservation",
                    label,
                    f"completed transfer delivered {conn.delivered_segments} "
                    f"of {total} segments",
                )

    # -- reporting ------------------------------------------------------

    def summary(self) -> str:
        """One line: objects watched, checks performed, violations found."""
        return (
            f"{self.watched_objects} objects watched, "
            f"{self.checks} invariant checks, "
            f"{len(self.violations)} violation"
            f"{'s' if len(self.violations) != 1 else ''}"
        )

    def report(self) -> str:
        """Multi-line report of every violation (empty string when clean)."""
        return "\n".join(str(v) for v in self.violations)

    def raise_if_violations(self, context: str = "") -> None:
        """Raise :class:`InvariantError` listing every violation, if any."""
        if not self.violations:
            return
        where = f" in {context}" if context else ""
        raise InvariantError(
            f"{len(self.violations)} invariant violation"
            f"{'s' if len(self.violations) != 1 else ''}{where}:\n"
            + self.report()
        )


@contextlib.contextmanager
def validating(
    validator: Optional[Validator] = None,
    finish: bool = True,
    raise_on_violation: bool = True,
) -> Iterator[Validator]:
    """Run a block with an active validator; finish and (optionally) raise.

    Usage::

        with validating() as v:
            net = build_single_bottleneck(...)
            ...
            net.sim.run(until=0.5)
        # post-run checks ran; InvariantError raised if anything fired

    Pass ``raise_on_violation=False`` to inspect ``v.violations`` yourself
    (the negative tests do), or ``finish=False`` to also skip the post-run
    sweep.
    """
    if validator is None:
        validator = Validator()
    with tapping(VALIDATE, validator):
        yield validator
    if finish:
        validator.finish()
    if raise_on_violation:
        validator.raise_if_violations()


__all__ = [
    "EPS",
    "InvariantError",
    "Violation",
    "Validator",
    "validating",
    "SimObserver",
    "QueueObserver",
    "LinkObserver",
    "SenderObserver",
    "BosObserver",
]
