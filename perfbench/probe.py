"""Phase probe: where each simulation starts and ends, seen from outside.

The simulator exposes no phase timestamps, so the benchmark wraps the
two calls that bound the simulate phase of every workload:

* ``Simulator.run`` for the packet engine (one call per cell), and
* ``model_from_network`` / ``integrate_model`` as the fluid backend
  calls them (``repro.fluid.backend`` looks both names up at call time).

Each wrapper costs a few clock reads per cell, so the probe stays on in
the untraced end-to-end runs.  A :class:`~spans.Tracer`, when given,
rides on the same ``Simulator.run`` wrapper: it attaches its profiler
for the run and adds per-layer span deltas and exact counters to the
run record.

Campaign cells run in forked pool workers.  The wrappers are inherited
through ``fork``; a worker appends its run records as JSON lines to the
probe's channel file, and the parent reads them back after the campaign
(``time.perf_counter`` is ``CLOCK_MONOTONIC``, so worker timestamps are
comparable with the parent's).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

from repro.fluid import backend as fluid_backend
from repro.net.network import Network
from repro.sim.engine import Simulator

clock = time.perf_counter


class PhaseProbe:
    """Collects one record per simulation run, in-process or via a channel."""

    def __init__(self, tracer: Any = None) -> None:
        self.tracer = tracer
        self.records: List[Dict[str, Any]] = []
        self.channel: Optional[str] = None
        self._pid = os.getpid()
        self._networks: List[Network] = []
        self._originals: Dict[str, Any] = {}

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("probe already installed")
        run = Simulator.run
        net_init = Network.__init__
        model_from_network = fluid_backend.model_from_network
        integrate_model = fluid_backend.integrate_model
        self._originals = {
            "run": run,
            "net_init": net_init,
            "model_from_network": model_from_network,
            "integrate_model": integrate_model,
        }
        probe = self

        def init(net: Network, *args: Any, **kwargs: Any) -> None:
            net_init(net, *args, **kwargs)
            probe._networks.append(net)

        def probed_run(
            sim: Simulator, until: Optional[float] = None, max_events: Optional[int] = None
        ) -> float:
            return probe._run(run, sim, until, max_events)

        def model(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            try:
                return model_from_network(*args, **kwargs)
            finally:
                probe._fluid_mark("model", started, clock())

        def integrate(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            trajectory = integrate_model(*args, **kwargs)
            probe._fluid_mark("integrate", started, clock(), trajectory)
            return trajectory

        Network.__init__ = init  # type: ignore[method-assign]
        Simulator.run = probed_run  # type: ignore[method-assign]
        fluid_backend.model_from_network = model
        fluid_backend.integrate_model = integrate

    def uninstall(self) -> None:
        originals = self._originals
        if not originals:
            return
        Network.__init__ = originals["net_init"]  # type: ignore[method-assign]
        Simulator.run = originals["run"]  # type: ignore[method-assign]
        fluid_backend.model_from_network = originals["model_from_network"]
        fluid_backend.integrate_model = originals["integrate_model"]
        self._originals = {}

    def __enter__(self) -> "PhaseProbe":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- per-rep bookkeeping --------------------------------------------

    def take(self) -> List[Dict[str, Any]]:
        """Every record since the last call, channel records included."""
        records = self.records
        self.records = []
        if self.channel is not None and os.path.exists(self.channel):
            with open(self.channel, encoding="utf-8") as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
            os.unlink(self.channel)
        self._networks = []
        return records

    # -- wrappers -------------------------------------------------------

    def _emit(self, record: Dict[str, Any]) -> None:
        record["pid"] = os.getpid()
        if record["pid"] == self._pid or self.channel is None:
            self.records.append(record)
            return
        with open(self.channel, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def _run(self, run: Any, sim: Simulator, until: Any, max_events: Any) -> float:
        tracer = self.tracer
        token = tracer.before_run(sim) if tracer is not None else None
        sim_before = sim.now
        started = clock()
        try:
            return run(sim, until, max_events)
        finally:
            ended = clock()
            networks = [net for net in self._networks if net.sim is sim]
            self._networks = [net for net in self._networks if net.sim is not sim]
            record: Dict[str, Any] = {
                "kind": "packet",
                "start": started,
                "end": ended,
                "sim_seconds": sim.now - sim_before,
                "delivered": sum(
                    host.packets_delivered
                    for net in networks
                    for host in net.hosts.values()
                ),
                "events": sim.events_processed,
                "far_spills": sim.far_spills,
                "promotions": sim.promotions,
                "compactions": sim.compactions,
            }
            if tracer is not None:
                record.update(tracer.after_run(sim, token, networks, ended - started))
            self._emit(record)

    def _fluid_mark(
        self, phase: str, started: float, ended: float, trajectory: Any = None
    ) -> None:
        record: Dict[str, Any] = {
            "kind": "fluid_" + phase,
            "start": started,
            "end": ended,
        }
        if trajectory is not None:
            record["state_updates"] = trajectory.state_updates
            record["sim_seconds"] = trajectory.steps * trajectory.dt
        self._networks = []
        self._emit(record)


__all__ = ["PhaseProbe", "clock"]
