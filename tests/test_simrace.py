"""simrace self-checks: static analyzer units, runtime sanitizer,
golden cross-check, and static/dynamic agreement.

The acceptance bar the detector is held to:

* the static pass is clean on ``src/repro`` (the priority audit is
  complete);
* ``REPRO_RACE``-style monitoring observes without perturbing — golden
  digests stay bit-identical with the sanitizer attached, with zero
  collisions;
* the two sides agree in the positive direction too: a planted
  same-instant write-write race is flagged statically *and* observed
  dynamically.
"""

import json

import pytest

from repro.lint.race import race_monitoring
from repro.lint.race.runtime import RaceMonitor
from repro.lint.sem import ProjectAnalyzer
from repro.sim.engine import Simulator
from repro.sim import taps
from repro.sim.taps import RACE, attached
from repro.sim.priorities import MODEL, SAMPLE, TIERS, tier_name

pytestmark = pytest.mark.simrace

RACE_CODES = ("SIM016", "SIM017", "SIM018")


def race_findings(sources):
    analyzer = ProjectAnalyzer(cache=None, race=True)
    return [
        f
        for f in analyzer.analyze_sources(sources)
        if f.code in RACE_CODES
    ]


# ----------------------------------------------------------------------
# The priority registry
# ----------------------------------------------------------------------


def test_priority_tiers():
    """MODEL is the engine default (annotating it never reorders);
    SAMPLE sorts strictly after every model event at its instant."""
    assert MODEL == 0
    assert SAMPLE > MODEL
    assert TIERS == {"MODEL": MODEL, "SAMPLE": SAMPLE}
    assert tier_name(SAMPLE) == "SAMPLE"
    assert tier_name(MODEL) == "MODEL"
    assert tier_name(42) is None


def test_sampler_tier_is_the_registry_value():
    """The metrics sampler priority is the registry constant, not a
    drifted copy (the original sampler bug this pass exists to catch)."""
    from repro.metrics.collector import SAMPLE_PRIORITY

    assert SAMPLE_PRIORITY == SAMPLE


# ----------------------------------------------------------------------
# Static analyzer units
# ----------------------------------------------------------------------

PLANTED_WW = '''
class Cell:
    def __init__(self, sim):
        self.sim = sim
        self.state = 0

    def kick(self):
        self.sim.schedule(0.5, self.set_low)
        self.sim.schedule(0.5, self.set_high)

    def set_low(self):
        self.state = 1

    def set_high(self):
        self.state = 2
'''


def test_src_tree_is_race_clean():
    """The audited source tree carries no SIM016-SIM018 findings."""
    analyzer = ProjectAnalyzer(cache=None, race=True)
    findings = [
        f
        for f in analyzer.analyze_paths(["src/repro"])
        if f.code in RACE_CODES
    ]
    assert findings == [], "\n".join(f.format() for f in findings)


def test_planted_write_write_is_flagged():
    findings = race_findings([("src/repro/x/cell.py", PLANTED_WW)])
    assert [f.code for f in findings] == ["SIM016"]
    assert "set_low" in findings[0].message
    assert "set_high" in findings[0].message


def test_distinct_receivers_do_not_conflict():
    """flow3.stop / flow4.stop at one instant touch different
    instances — textual receiver identity keeps them clean."""
    source = PLANTED_WW + '''

def stage(flow3, flow4, sim):
    sim.schedule(25.0, flow3.set_low)
    sim.schedule(25.0, flow4.set_high)
'''
    findings = race_findings([("src/repro/x/cell.py", source)])
    assert [f.code for f in findings] == ["SIM016"]  # only the self pair


def test_write_through_helper_is_closed_over():
    """A callback mutating state via a self helper still conflicts."""
    source = '''
class Cell:
    def __init__(self, sim):
        self.sim = sim
        self.state = 0

    def kick(self):
        self.sim.schedule(0.5, self.set_direct)
        self.sim.schedule(0.5, self.set_via_helper)

    def set_direct(self):
        self.state = 1

    def set_via_helper(self):
        self._store(2)

    def _store(self, value):
        self.state = value
'''
    findings = race_findings([("src/repro/x/cell.py", source)])
    assert [f.code for f in findings] == ["SIM016"]


def test_unknown_priority_is_never_guessed():
    """An unresolvable priority expression silences the pair checks."""
    source = '''
class Cell:
    def __init__(self, sim, prio):
        self.sim = sim
        self.state = 0
        self.prio = prio

    def kick(self):
        self.sim.schedule(0.5, self.set_low, priority=self.prio)
        self.sim.schedule(0.5, self.set_high, priority=self.prio)

    def set_low(self):
        self.state = 1

    def set_high(self):
        self.state = 2
'''
    assert race_findings([("src/repro/x/cell.py", source)]) == []


def test_periodic_detection_spans_schedule_and_post():
    """Self-rescheduling through either scheduler entry point at an
    unnamed tier is the SIM018 sampler-bug shape."""
    source = '''
class Ticker:
    def __init__(self, sim):
        self.sim = sim

    def tick(self):
        self.sim.post(0.01, self.tick)
'''
    findings = race_findings([("src/repro/x/ticker.py", source)])
    assert [f.code for f in findings] == ["SIM018"]
    assert "periodic" in findings[0].message


# ----------------------------------------------------------------------
# Runtime sanitizer
# ----------------------------------------------------------------------


class _Victim:
    def __init__(self):
        self.value = 0
        self.other = 0

    def write_one(self):
        self.value = 1

    def write_two(self):
        self.value = 2

    def write_other(self):
        self.other = 3

    def read_only(self):
        _ = self.value


def _run_monitored(schedule):
    """Build a sim with a monitor attached, apply ``schedule``, run."""
    monitor = RaceMonitor()
    sim = Simulator()
    monitor.attach(sim)
    victim = _Victim()
    schedule(sim, victim)
    sim.run()
    return monitor


def test_monitor_catches_same_instant_write_write():
    monitor = _run_monitored(lambda sim, v: (
        sim.schedule(0.5, v.write_one),
        sim.schedule(0.5, v.write_two),
    ))
    assert len(monitor.collisions) == 1
    record = monitor.collisions[0]
    assert record["kind"] == "collision"
    assert record["attr"] == "value"
    assert record["first"] == "_Victim.write_one"
    assert record["second"] == "_Victim.write_two"
    assert record["priority"] == 0


def test_monitor_ignores_distinct_instants():
    monitor = _run_monitored(lambda sim, v: (
        sim.schedule(0.5, v.write_one),
        sim.schedule(0.6, v.write_two),
    ))
    assert monitor.collisions == []
    assert monitor.batches >= 2


def test_monitor_ignores_distinct_priorities():
    """Different priorities are *ordered* — that is the fix, not a race."""
    monitor = _run_monitored(lambda sim, v: (
        sim.schedule(0.5, v.write_one),
        sim.schedule(0.5, v.write_two, priority=SAMPLE),
    ))
    assert monitor.collisions == []


def test_monitor_ignores_same_callback_repeats():
    """One callback firing twice in a batch is idempotent re-entry, not
    an ordering hazard between two writers."""
    monitor = _run_monitored(lambda sim, v: (
        sim.schedule(0.5, v.write_one),
        sim.schedule(0.5, v.write_one),
    ))
    assert monitor.collisions == []


def test_monitor_ignores_disjoint_attributes_and_reads():
    monitor = _run_monitored(lambda sim, v: (
        sim.schedule(0.5, v.write_one),
        sim.schedule(0.5, v.write_other),
        sim.schedule(0.5, v.read_only),
    ))
    assert monitor.collisions == []


def test_monitor_handles_slotted_receivers():
    class Slotted:
        __slots__ = ("field",)

        def __init__(self):
            self.field = 0

        def set_a(self):
            self.field = 1

        def set_b(self):
            self.field = 2

    monitor = RaceMonitor()
    sim = Simulator()
    monitor.attach(sim)
    victim = Slotted()
    sim.schedule(0.5, victim.set_a)
    sim.schedule(0.5, victim.set_b)
    sim.run()
    assert [r["attr"] for r in monitor.collisions] == ["field"]


def test_monitor_writes_jsonl_report(tmp_path):
    monitor = _run_monitored(lambda sim, v: (
        sim.schedule(0.5, v.write_one),
        sim.schedule(0.5, v.write_two),
    ))
    out = tmp_path / "race.jsonl"
    monitor.write_report(str(out))
    records = [
        json.loads(line) for line in out.read_text().splitlines()
    ]
    assert [r["kind"] for r in records] == ["collision", "summary"]
    assert records[1]["collisions"] == 1
    assert records[1]["events"] == monitor.events


def test_hooks_stack_discipline():
    monitor = RaceMonitor()
    assert not taps.requested(RACE) or taps.active(RACE) is not None
    taps.activate(RACE, monitor)
    try:
        assert taps.active(RACE) is monitor
        assert taps.requested(RACE)
    finally:
        taps.deactivate(RACE, monitor)
    with pytest.raises(RuntimeError):
        taps.deactivate(RACE, monitor)


def test_env_activation(monkeypatch):
    monkeypatch.setattr(taps, "_SHARED", {})
    monkeypatch.setenv("REPRO_RACE", "1")
    assert taps.requested(RACE)
    monitor = taps.active(RACE)
    assert monitor is not None
    assert taps.active(RACE) is monitor  # shared per process
    monkeypatch.setenv("REPRO_RACE", "0")
    monkeypatch.setattr(taps, "_SHARED", {})
    assert taps.active(RACE) is None


def test_network_attaches_active_monitor():
    from repro.net.network import Network

    with race_monitoring() as monitor:
        net = Network()
    assert attached(net.sim, RACE) is monitor
    net2 = Network()
    assert attached(net2.sim, RACE) is None


# ----------------------------------------------------------------------
# Golden cross-check + static/dynamic agreement
# ----------------------------------------------------------------------


def test_sanitizer_leaves_golden_digest_bit_identical():
    """The monitor observes, never perturbs: the bottleneck golden is
    bit-identical with the sanitizer attached, with zero collisions."""
    from repro.validate.golden import check_digest
    from repro.validate.scenarios import run_scenario

    with race_monitoring() as monitor:
        digest, validator = run_scenario("bottleneck-xmp")
    assert monitor.collisions == []
    assert monitor.events > 0
    assert validator.violations == []
    assert check_digest("bottleneck-xmp", digest) == []


def test_static_and_dynamic_agree_on_planted_race():
    """The same planted shape trips both sides of the detector."""
    static = race_findings([("src/repro/x/cell.py", PLANTED_WW)])
    assert [f.code for f in static] == ["SIM016"]
    monitor = _run_monitored(lambda sim, v: (
        sim.schedule(0.5, v.write_one),
        sim.schedule(0.5, v.write_two),
    ))
    assert len(monitor.collisions) == 1


def test_race_module_cli_smoke(tmp_path, capsys):
    from repro.lint.race.__main__ import main as race_main

    out = tmp_path / "report.jsonl"
    assert race_main(
        ["--scenario", "bottleneck-xmp", "--out", str(out)]
    ) == 0
    records = [
        json.loads(line) for line in out.read_text().splitlines()
    ]
    assert records[-1]["kind"] == "summary"
    assert records[-1]["scenario"] == "bottleneck-xmp"
    assert records[-1]["collisions"] == 0
    assert "bottleneck-xmp" in capsys.readouterr().out
