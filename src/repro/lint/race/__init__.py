"""simrace — same-instant event-ordering race detection (SIM016–SIM018).

The third rung of the analysis ladder, above simlint (per-file AST
rules) and simsem (cross-module dataflow).  The engine's total event
order is ``(time, priority, seq)``: two events sharing ``(time,
priority)`` fire in *insertion order*, which no model code may depend
on.  simrace attacks that hazard from both sides:

* **Static pass** (:mod:`repro.lint.race.analyzer`): consumes the
  simsem per-file summaries — scheduler-call records with delay source
  text, priority classification and attribute read/write sets per
  callback — and reports SIM016 (same-instant write–write hazard),
  SIM017 (seq-order dependence: non-commutative read/write pairs) and
  SIM018 (a periodic callback scheduled at an unnamed priority, the
  PR 4 sampler-bug shape).  Run with ``python -m repro.lint --race``.

* **Runtime sanitizer** (:mod:`repro.lint.race.runtime`): an engine
  tap (see :mod:`repro.sim.taps`, the seam :mod:`repro.validate` and
  :mod:`repro.obs` use too) on the same-instant batch, enabled with
  ``REPRO_RACE=1`` or :func:`race_monitoring`.  It snapshot-diffs
  each callback's receiver state and records write collisions within an
  equal-``(time, priority)`` run to JSONL, without ever perturbing the
  simulation.  ``python -m repro.lint.race`` cross-checks observed
  collisions against the static findings on the golden scenarios.

This ``__init__`` deliberately imports only the light modules (rule
metadata and the runtime monitor), never the analyzer.
"""

from repro.lint.race.info import RACE_CODES, RACE_RULE_INFOS
from repro.lint.race.runtime import RaceMonitor, race_monitoring

__all__ = [
    "RACE_CODES",
    "RACE_RULE_INFOS",
    "RaceMonitor",
    "race_monitoring",
]
