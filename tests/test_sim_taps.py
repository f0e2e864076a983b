"""The tap seam (repro.sim.taps): one registry, one composed engine slot.

* the activation registry's contract — nesting, out-of-order and empty
  deactivation, environment requests — holds for every tap kind;
* taps attached together compose in the fixed kind order, and a golden
  scenario run under all four at once is bit-identical to the bare run,
  with every tap seeing every fired event exactly once.
"""

from __future__ import annotations

import pytest

from repro.lint.perf import AllocMonitor, alloc_monitoring
from repro.lint.perf.hotpaths import HotPathRegistry
from repro.lint.race import RaceMonitor, race_monitoring
from repro.obs import Profiler, profiling
from repro.sim import taps
from repro.sim.engine import Simulator
from repro.validate import Validator, validating
from repro.validate.golden import check_digest
from repro.validate.scenarios import SCENARIOS, run_scenario

#: The tap class and the public context manager of each kind.
_TAPS = {
    taps.VALIDATE: (
        Validator,
        lambda v: validating(v, finish=False, raise_on_violation=False),
    ),
    taps.RACE: (RaceMonitor, race_monitoring),
    taps.PROFILE: (Profiler, profiling),
    taps.ALLOC: (
        lambda: AllocMonitor(registry=HotPathRegistry.from_text("# empty\n")),
        alloc_monitoring,
    ),
}


@pytest.fixture
def clean_env(monkeypatch):
    for var in (*taps.KINDS, "REPRO_TELEMETRY", "REPRO_RACE_LOG", "REPRO_ALLOC_LOG"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(taps, "_SHARED", {})
    return monkeypatch


@pytest.mark.parametrize("kind", taps.KINDS)
def test_registry_contract(kind, clean_env):
    make, context = _TAPS[kind]
    outer, inner = make(), make()
    # Nothing is active or requested by default.
    assert taps.active(kind) is None
    assert not taps.requested(kind)
    # Activation nests; the innermost tap wins.
    with context(outer) as entered:
        assert entered is outer
        assert taps.active(kind) is outer
        assert taps.requested(kind)
        taps.activate(kind, inner)
        assert taps.active(kind) is inner
        with pytest.raises(RuntimeError, match="out of order"):
            taps.deactivate(kind, outer)
        assert taps.active(kind) is inner  # stack unchanged
        taps.deactivate(kind, inner)
        assert taps.active(kind) is outer
    assert taps.active(kind) is None
    with pytest.raises(RuntimeError, match=f"no {kind} tap is active"):
        taps.deactivate(kind)
    with pytest.raises(RuntimeError):
        taps.deactivate(kind, outer)

    # The environment: any non-empty value other than "0" requests it.
    clean_env.setenv(kind, "1")
    assert taps.requested(kind)
    ambient = taps.active(kind)
    if kind in (taps.RACE, taps.ALLOC):
        # One shared per-process monitor, built on first use.
        assert ambient is not None
        assert taps.active(kind) is ambient
        if kind == taps.ALLOC:
            ambient.close()
    else:
        # The runner builds a fresh validator/profiler per cell instead.
        assert ambient is None
    clean_env.setenv(kind, "0")
    clean_env.setattr(taps, "_SHARED", {})
    assert not taps.requested(kind)
    assert taps.active(kind) is None
    clean_env.delenv(kind)
    assert not taps.requested(kind)
    if kind == taps.PROFILE:
        clean_env.setenv("REPRO_TELEMETRY", "some/dir")
        assert taps.requested(kind)  # telemetry implies profiling
        assert taps.telemetry_dir() == "some/dir"
    inner_close = getattr(inner, "close", None)
    if inner_close is not None:
        inner_close()


class _PassThrough:
    kind = taps.PROFILE

    def __init__(self):
        self.fired = []

    def fire(self, time, priority, callback, args, call=taps.invoke):
        self.fired.append(time)
        call(time, priority, callback, args)


def test_attach_composes_in_kind_order_and_replaces_same_kind():
    sim = Simulator()
    validator, race, alloc = Validator(), RaceMonitor(), _TAPS[taps.ALLOC][0]()
    try:
        profiler = Profiler()
        alloc.attach(sim)
        profiler.attach(sim)
        race.attach(sim)
        validator.attach(sim)
        observer = taps.attached(sim, taps.VALIDATE)
        assert taps.members(sim) == [observer, race, profiler, alloc]
        assert sim.profiler is profiler
        other = _PassThrough()
        taps.attach(sim, other)
        assert taps.members(sim) == [observer, race, other, alloc]
        assert sim.profiler is other
        taps.detach(sim, other)
        taps.detach(sim, race)
        assert taps.members(sim) == [observer, alloc]
        assert sim.profiler is None
        taps.detach(sim, observer)
        taps.detach(sim, alloc)
        assert sim.tap is None
    finally:
        alloc.close()


def test_all_four_taps_together_keep_the_golden_digest():
    """Validator, race, profiler and alloc taps on one golden scenario."""
    name = "bottleneck-xmp"
    bare = SCENARIOS[name]()
    race = RaceMonitor()
    alloc = AllocMonitor()
    with profiling() as profiler, race_monitoring(race), alloc_monitoring(alloc):
        digest, validator = run_scenario(name)
    assert digest == bare
    assert check_digest(name, digest) == []
    assert not validator.violations
    observers = validator._sim_observers
    assert observers
    fired = sum(observer.sim.events_processed for observer in observers)
    assert fired > 0
    assert sum(observer.events_seen for observer in observers) == fired
    assert race.events == fired
    assert profiler.snapshot().events == fired
    assert alloc.events == fired
