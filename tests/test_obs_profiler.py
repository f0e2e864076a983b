"""Tests for the engine profiler (repro.obs): component bucketing, heap
counters, the activation hooks, and the zero-cost-when-disabled contract.
"""

from __future__ import annotations

import pickle

import pytest

from repro.net.network import Network
from repro.obs import (
    ProfileSnapshot,
    Profiler,
    component_of,
    profiling,
)
from repro.sim import taps
from repro.sim.engine import Simulator


def noop() -> None:
    pass


class Ticker:
    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.fired = 0

    def tick(self) -> None:
        self.fired += 1


class TestComponentOf:
    def test_module_function(self):
        assert component_of(noop) == "tests.test_obs_profiler.noop"

    def test_bound_method(self):
        ticker = Ticker(Simulator())
        assert component_of(ticker.tick) == "tests.test_obs_profiler.Ticker.tick"

    def test_repro_prefix_stripped(self):
        from repro.metrics.collector import PeriodicSampler

        name = component_of(PeriodicSampler._tick)
        assert name == "metrics.collector.PeriodicSampler._tick"
        assert not name.startswith("repro.")

    def test_callable_object_without_qualname(self):
        import functools

        # partial objects carry no __qualname__: fall back to the type.
        assert component_of(functools.partial(noop)) == "functools.partial"


class TestProfilerCounters:
    def test_events_bucketed_by_component(self, sim):
        profiler = Profiler()
        profiler.attach(sim)
        ticker_a, ticker_b = Ticker(sim), Ticker(sim)
        for i in range(3):
            sim.schedule(i * 0.1, ticker_a.tick)
        for i in range(2):
            sim.schedule(i * 0.1, ticker_b.tick)
        sim.schedule(0.0, noop)
        sim.run()
        snap = profiler.snapshot()
        by_name = {c.component: c for c in snap.components}
        # Both instances' bound methods share the class's bucket.
        assert by_name["tests.test_obs_profiler.Ticker.tick"].events == 5
        assert by_name["tests.test_obs_profiler.noop"].events == 1
        assert snap.events == sim.events_processed == 6
        assert snap.callback_wall_s >= 0.0

    def test_heap_counters(self, sim):
        profiler = Profiler()
        profiler.attach(sim)
        events = [sim.schedule(0.1 * i, noop) for i in range(4)]
        events[2].cancel()
        sim.run()
        snap = profiler.snapshot()
        assert snap.heap.pushes == 4
        assert snap.heap.pops == 4  # 3 fired + 1 cancelled discard
        assert snap.heap.peak_size == 4
        assert snap.heap.compactions == 0
        assert snap.events == 3  # the cancelled event never fired

    def test_cancelled_events_hit_no_bucket(self, sim):
        profiler = Profiler()
        profiler.attach(sim)
        sim.schedule(0.1, noop).cancel()
        sim.run()
        snap = profiler.snapshot()
        assert snap.components == ()
        assert snap.heap.pops == 1

    def test_compactions_surface_in_snapshot(self, sim):
        profiler = Profiler()
        profiler.attach(sim)
        keep = sim.schedule(1.0, noop)
        cancelled = [sim.schedule(0.5, noop)
                     for _ in range(Simulator.COMPACT_MIN_CANCELLED + 2)]
        for event in cancelled:
            event.cancel()
        assert sim.compactions >= 1
        assert profiler.snapshot().heap.compactions == sim.compactions
        keep.cancel()

    def test_detach_stops_counting(self, sim):
        profiler = Profiler()
        profiler.attach(sim)
        sim.schedule(0.0, noop)
        profiler.detach(sim)
        assert sim.profiler is None
        sim.run()
        snap = profiler.snapshot()
        assert snap.heap.pushes == 1
        assert snap.events == 0  # the fire happened unprofiled

    def test_detached_counters_stay_frozen(self, sim):
        profiler = Profiler()
        profiler.attach(sim)
        sim.schedule(0.0, noop)
        sim.run()
        profiler.detach(sim)
        before = profiler.snapshot()
        # Work after detach — a compaction, far spills, promotions and
        # a bigger pending set — must not move the snapshot.
        cancelled = [sim.schedule(0.5, noop)
                     for _ in range(Simulator.COMPACT_MIN_CANCELLED + 2)]
        for event in cancelled:
            event.cancel()
        sim.schedule(1.0, noop)
        sim.run()
        assert sim.compactions >= 1
        after = profiler.snapshot()
        assert after.heap == before.heap
        assert after.events == before.events == 1

    def test_multi_sim_aggregation(self):
        profiler = Profiler()
        sims = [Simulator(), Simulator()]
        for sim in sims:
            profiler.attach(sim)
            sim.schedule(0.0, noop)
            sim.run()
        snap = profiler.snapshot()
        assert snap.events == 2
        assert snap.heap.pushes == 2


class TestSnapshot:
    def run_profiled(self) -> ProfileSnapshot:
        sim = Simulator()
        profiler = Profiler()
        profiler.attach(sim)
        ticker = Ticker(sim)
        for i in range(10):
            sim.schedule(0.01 * i, ticker.tick)
            sim.schedule(0.01 * i, noop)
        sim.run()
        return profiler.snapshot()

    def test_components_name_sorted(self):
        snap = self.run_profiled()
        names = [c.component for c in snap.components]
        assert names == sorted(names)

    def test_deterministic_modulo_wall_time(self):
        one, two = self.run_profiled(), self.run_profiled()
        assert [(c.component, c.events) for c in one.components] == [
            (c.component, c.events) for c in two.components
        ]
        assert one.heap == two.heap
        assert one.events == two.events

    def test_hotspots_ranked_and_limited(self):
        snap = self.run_profiled()
        spots = snap.hotspots(1)
        assert len(spots) == 1
        walls = [c.wall_s for c in snap.hotspots(10)]
        assert walls == sorted(walls, reverse=True)

    def test_as_dict_and_format(self):
        snap = self.run_profiled()
        as_dict = snap.as_dict()
        assert as_dict["events"] == snap.events
        assert {c["component"] for c in as_dict["components"]} == {
            c.component for c in snap.components
        }
        assert set(as_dict["heap"]) == {"pushes", "pops", "compactions",
                                        "peak_size", "promotions",
                                        "far_spills", "max_run"}
        text = snap.format()
        assert "Ticker.tick" in text
        assert "heap:" in text

    def test_snapshot_pickles(self):
        snap = self.run_profiled()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap


class TestHooks:
    def test_profiling_context_attaches_new_networks(self):
        with profiling() as profiler:
            net = Network()
            assert net.sim.profiler is profiler
        # Outside the block, new networks stay unprofiled.
        assert Network().sim.profiler is None

    def test_nesting_innermost_wins(self):
        with profiling() as outer:
            with profiling() as inner:
                assert taps.active(taps.PROFILE) is inner
            assert taps.active(taps.PROFILE) is outer
        assert taps.active(taps.PROFILE) is None

    def test_deactivate_out_of_order_raises(self):
        outer, inner = Profiler(), Profiler()
        taps.activate(taps.PROFILE, outer)
        taps.activate(taps.PROFILE, inner)
        try:
            with pytest.raises(RuntimeError, match="out of order"):
                taps.deactivate(taps.PROFILE, outer)
        finally:
            taps.deactivate(taps.PROFILE, inner)
            taps.deactivate(taps.PROFILE, outer)
        with pytest.raises(RuntimeError, match="no REPRO_PROFILE tap"):
            taps.deactivate(taps.PROFILE)

    def test_profiling_requested_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert not taps.requested(taps.PROFILE)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert taps.requested(taps.PROFILE)
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert not taps.requested(taps.PROFILE)
        monkeypatch.setenv("REPRO_TELEMETRY", "some/dir")
        assert taps.requested(taps.PROFILE)  # telemetry implies profiling
        assert taps.telemetry_dir() == "some/dir"


class TestZeroCostContract:
    def test_disabled_simulator_has_no_profiler(self, sim):
        assert sim.profiler is None
        sim.schedule(0.0, noop)
        sim.run()
        assert sim.events_processed == 1

    def test_profiled_run_is_byte_identical(self):
        """Profiling must observe, never perturb, the simulation."""
        from repro.mptcp.connection import MptcpConnection
        from repro.net.queue import ThresholdECNQueue

        def run(profiled: bool):
            net = Network()
            a, b = net.add_host("A"), net.add_host("B")
            s = net.add_switch("SW")

            factory = lambda: ThresholdECNQueue(100, 10)  # noqa: E731
            net.connect(a, s, 1e9, 30e-6, queue_factory=factory)
            net.connect(s, b, 1e9, 30e-6, queue_factory=factory)
            profiler = Profiler()
            if profiled:
                profiler.attach(net.sim)
            conn = MptcpConnection(net, "A", "B", net.paths("A", "B"),
                                   scheme="xmp")
            conn.start()
            net.sim.run(until=0.05)
            return (net.sim.events_processed,
                    conn.subflows[0].sender.delivered_segments,
                    conn.subflows[0].sender.cwnd)

        assert run(profiled=False) == run(profiled=True)
