"""The traced run: spans around calls into each layer's public functions.

A :class:`Tracer` replaces a fixed set of class attributes (and
``workload_matrix.build_schedule``) with timing wrappers, and restores them on
:meth:`Tracer.uninstall`.  It must be installed before any topology is
built: ``Link.__init__`` pre-binds ``dst.receive`` and
``_finish_transmission``, ``Timer`` binds its callback and ``TraSh``
hands ``self.delta`` to each controller, so a wrapper installed later
would silently miss every one of those calls.

Each span keeps ``[calls, self seconds]``.  Self time is the span's
duration minus the time of spans nested inside it: ``acc`` is a stack of
child-time accumulators, and ``acc[0]`` collects the spans called
directly from an engine callback.  The :class:`LayerProfiler` (the
public :class:`repro.obs.Profiler` with one more bucket) is attached to
each simulator for its run; for every fired callback it books the part
not covered by spans to the callback's layer and resets ``acc[0]``.  So
for every run::

    simulate wall = sim.self_s + sum(callback residuals) + sum(span self)

where ``sim.self_s`` is the simulate wall minus the profiler's summed
callback time: the engine's own loop.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.bos import BosCC
from repro.core.trash import TraSh
from repro.experiments import workload_matrix
from repro.metrics.collector import PeriodicSampler
from repro.net.link import Link
from repro.net.node import Host, Switch
from repro.net.queue import DropTailQueue
from repro.obs.profiler import Profiler, component_of
from repro.traffic.factory import TransferFactory
from repro.transport.cc import CongestionControl
from repro.transport.receiver import Receiver
from repro.transport.tcp import TcpSender

# Imported for their CongestionControl subclasses, which the tracer
# finds through __subclasses__().
import repro.mptcp.lia  # noqa: F401
import repro.mptcp.olia  # noqa: F401
import repro.transport.d2tcp  # noqa: F401
import repro.transport.dctcp  # noqa: F401

from probe import clock

LAYERS = ("sim", "net", "transport", "mptcp", "traffic", "metrics")

#: Component-module prefix -> layer, for callback residuals (first match).
_LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("sim.", "sim"),
    ("net.", "net"),
    ("transport.", "transport"),
    ("mptcp.", "mptcp"),
    ("core.bos", "mptcp"),
    ("core.trash", "mptcp"),
    ("traffic.", "traffic"),
    ("workloads.", "traffic"),
    ("metrics.", "metrics"),
)


def layer_of(component: str) -> str:
    """The layer a profiler component belongs to; ``other`` if none."""
    for prefix, layer in _LAYER_PREFIXES:
        if component.startswith(prefix):
            return layer
    return "other"


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class LayerProfiler(Profiler):
    """A :class:`Profiler` that also books callback residuals by layer."""

    def __init__(self, acc: List[float]) -> None:
        super().__init__()
        self._acc = acc
        self._layer_of: Dict[Any, str] = {}
        self.residual: Dict[str, float] = dict.fromkeys(LAYERS + ("other",), 0.0)

    def on_fire(self, callback: Callable[..., Any], elapsed: float) -> None:
        super().on_fire(callback, elapsed)
        acc = self._acc
        child = acc[0]
        acc[0] = 0.0
        func = getattr(callback, "__func__", callback)
        layer = self._layer_of.get(func)
        if layer is None:
            layer = self._layer_of[func] = layer_of(component_of(callback))
        self.residual[layer] += elapsed - child


class Tracer:
    """Installs the span wrappers and turns them into per-run records."""

    def __init__(self) -> None:
        self.acc: List[float] = [0.0]
        self.spans: Dict[str, List[Any]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._senders: List[TcpSender] = []
        self._controllers: List[BosCC] = []
        self._mark: Dict[str, Tuple[int, float]] = {}

    # -- spans -----------------------------------------------------------

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span called ``name``."""
        stat = self.spans.setdefault(name, [0, 0.0])
        acc = self.acc

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            acc.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stat[0] += 1
                stat[1] += elapsed - acc.pop()
                acc[-1] += elapsed

        return timed

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, owner: Any, attr: str, name: str) -> None:
        self._patch(owner, attr, self.span(name, owner.__dict__[attr]))

    def install(self) -> None:
        """Wrap every layer boundary; call before any topology is built."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._wrap(Switch, "receive", "net.switch_receive")
        self._wrap(Host, "receive", "net.host_dispatch")
        self._wrap(Host, "send", "net.host_send")
        self._wrap(Link, "enqueue", "net.link_enqueue")
        self._wrap(Link, "_finish_transmission", "net.link_serve")
        for cls in _subclasses(DropTailQueue):
            if "accept" in cls.__dict__:
                self._wrap(cls, "accept", "net.queue_accept")
        for cls in _subclasses(CongestionControl):
            if "on_ack" in cls.__dict__:
                self._wrap(cls, "on_ack", "transport.cc_on_ack")
        self._wrap(TcpSender, "_on_rto", "transport.rto")
        self._wrap(Receiver, "_on_delack_timeout", "transport.delack")
        self._wrap(TraSh, "delta", "mptcp.trash_delta")
        self._wrap(TransferFactory, "launch", "traffic.launch")
        self._wrap(workload_matrix, "build_schedule", "traffic.schedule_build")
        for cls in _subclasses(PeriodicSampler):
            if "sample" in cls.__dict__:
                self._wrap(cls, "sample", "metrics.sample")

        # Endpoint handlers are bound methods handed to Host.register:
        # wrap each one as it is registered.
        data_rx = self.span("transport.data_rx", Receiver.receive)
        ack_rx = self.span("transport.ack_rx", TcpSender.__dict__["_on_packet"])
        register = Host.__dict__["register"]

        def traced_register(host: Host, flow: int, subflow: int, handler: Any) -> None:
            owner = getattr(handler, "__self__", None)
            if isinstance(owner, Receiver):
                handler = functools.partial(data_rx, owner)
            elif isinstance(owner, TcpSender):
                handler = functools.partial(ack_rx, owner)
            register(host, flow, subflow, handler)

        self._patch(Host, "register", traced_register)

        # Instances whose exact counters the run record sums.
        sender_init = TcpSender.__dict__["__init__"]
        bos_init = BosCC.__dict__["__init__"]
        senders, controllers = self._senders, self._controllers

        def traced_sender_init(sender: TcpSender, *args: Any, **kwargs: Any) -> None:
            sender_init(sender, *args, **kwargs)
            senders.append(sender)

        def traced_bos_init(controller: BosCC, *args: Any, **kwargs: Any) -> None:
            bos_init(controller, *args, **kwargs)
            controllers.append(controller)

        self._patch(TcpSender, "__init__", traced_sender_init)
        self._patch(BosCC, "__init__", traced_bos_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._senders.clear()
        self._controllers.clear()

    # -- per-run records ---------------------------------------------------

    def _self_total(self) -> float:
        return sum(stat[1] for stat in self.spans.values())

    def before_run(self, sim: Any) -> Tuple[Optional[LayerProfiler], float]:
        profiler = None
        if sim.profiler is None:
            profiler = LayerProfiler(self.acc)
            profiler.attach(sim)
        self.acc[0] = 0.0
        return profiler, self._self_total()

    def after_run(
        self, sim: Any, token: Tuple[Optional[LayerProfiler], float],
        networks: List[Any], wall: float,
    ) -> Dict[str, Any]:
        """Span deltas since the previous record, plus this run's counters."""
        profiler, self_before = token
        record: Dict[str, Any] = {"span_self_s": self._self_total() - self_before}
        if profiler is not None:
            profiler.detach(sim)
            callback_s = profiler.snapshot().callback_wall_s
            record["callback_s"] = callback_s
            record["sim_self_s"] = wall - callback_s
            record["residual"] = dict(profiler.residual)
        spans = {}
        for name, (calls, self_s) in self.spans.items():
            mark_calls, mark_self = self._mark.get(name, (0, 0.0))
            spans[name] = [calls - mark_calls, self_s - mark_self]
            self._mark[name] = (calls, self_s)
        record["spans"] = spans

        senders = [s for s in self._senders if s.sim is sim]
        self._senders[:] = [s for s in self._senders if s.sim is not sim]
        controllers = [
            c for c in self._controllers if c.sender is not None and c.sender.sim is sim
        ]
        self._controllers[:] = [
            c for c in self._controllers if c.sender is not None and c.sender.sim is not sim
        ]
        links = [link for net in networks for link in net.links]
        hosts = [host for net in networks for host in net.hosts.values()]
        record["counters"] = {
            "switch_forwarded": sum(
                sw.packets_forwarded for net in networks for sw in net.switches.values()
            ),
            "host_delivered": sum(host.packets_delivered for host in hosts),
            "host_unclaimed": sum(host.packets_unclaimed for host in hosts),
            "link_transmitted": sum(link.packets_transmitted for link in links),
            "ce_marks": sum(link.queue.stats.marked for link in links),
            "drops": sum(link.queue.stats.dropped for link in links),
            "segments_sent": sum(s.segments_sent for s in senders),
            "retransmissions": sum(s.retransmissions for s in senders),
            "timeouts": sum(s.timeouts for s in senders),
            "delivered_segments": sum(s.delivered_segments for s in senders),
            "bos_cuts": sum(c.reductions for c in controllers),
        }
        return record


__all__ = ["LAYERS", "LayerProfiler", "Tracer", "layer_of"]
