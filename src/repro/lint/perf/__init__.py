"""simperf — profile-guided hot-path performance analysis (SIM019–SIM023).

The fourth rung of the analysis ladder, above simlint (per-file AST
rules), simsem (cross-module dataflow) and simrace (same-instant
ordering).  PR 6 leaned the engine and link hot paths to an
allocation-free per-event floor; simperf *protects* that floor:

* **Static pass** (:mod:`repro.lint.perf.analyzer`): consumes the
  simsem v4 per-file summaries — per-function cost records with every
  allocation site, in-loop attribute chain, global load and
  kwargs/dunder call — and joins them against the hot-path registry
  (``hotpaths.toml``, see :mod:`repro.lint.perf.hotpaths`).  SIM019
  flags allocations in registered hot functions (waivable per line with
  ``# simperf: allow-alloc(<reason>)``), SIM020 unhoisted attribute
  chains in hot loops, SIM021 one-hop transitive allocation through
  non-hot callees, SIM022 registry drift against recorded ``repro.obs``
  telemetry, SIM023 kwargs/dunder-trapped calls.  Run with
  ``python -m repro.lint --perf``.

* **Runtime sanitizer** (:mod:`repro.lint.perf.runtime`): a
  tracemalloc window around every fired hot callback, as an engine tap
  (see :mod:`repro.sim.taps`, the seam :mod:`repro.validate`,
  :mod:`repro.obs` and :mod:`repro.lint.race` use too), enabled with
  ``REPRO_ALLOC=1`` or :func:`alloc_monitoring`.  ``python -m repro.lint.perf``
  cross-checks dynamically observed allocators against the static
  explanation closure on the golden scenarios, with bit-identical
  digests.

This ``__init__`` deliberately imports only the light modules (rule
metadata and the runtime monitor), never the analyzer.
"""

from repro.lint.perf.info import PERF_CODES, PERF_RULE_INFOS
from repro.lint.perf.runtime import AllocMonitor, alloc_monitoring

__all__ = [
    "PERF_CODES",
    "PERF_RULE_INFOS",
    "AllocMonitor",
    "alloc_monitoring",
]
