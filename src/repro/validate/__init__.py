"""``repro.validate`` — runtime invariant checking + golden-trace harness.

Two complementary defenses against silent correctness regressions (which
the PR-1 run cache would otherwise happily spread across every figure):

* :mod:`repro.validate.invariants` — a :class:`Validator` that attaches
  zero-cost-when-disabled observers to simulators, queues, links and
  senders, and checks mechanism laws at runtime (packet conservation,
  queue admission, CE-marking vs K, sim-time monotonicity, the BOS
  once-per-round cut, TraSh δ bounds, per-flow byte conservation);
* :mod:`repro.validate.golden` + :mod:`repro.validate.scenarios` — a
  golden-trace harness that digests canonical small runs and diffs them
  against checked-in goldens, with a ``--bless`` regeneration path.

See ``VALIDATION.md`` for each invariant's paper reference and the
blessing workflow.

Everything resolves lazily (PEP 562), so importing this package stays
light; the instrumented core modules consult :mod:`repro.sim.taps`, not
this package, at construction time.
"""

from __future__ import annotations

_LAZY = {
    "InvariantError": "repro.validate.invariants",
    "Validator": "repro.validate.invariants",
    "Violation": "repro.validate.invariants",
    "validating": "repro.validate.invariants",
    "check_digest": "repro.validate.golden",
    "diff_digests": "repro.validate.golden",
    "digest_bottleneck_run": "repro.validate.golden",
    "digest_fattree": "repro.validate.golden",
    "digest_hash": "repro.validate.golden",
    "format_diff": "repro.validate.golden",
    "golden_dir": "repro.validate.golden",
    "load_golden": "repro.validate.golden",
    "save_golden": "repro.validate.golden",
    "run_golden_suite": "repro.validate.scenarios",
    "run_scenario": "repro.validate.scenarios",
    "scenario_names": "repro.validate.scenarios",
    "SCENARIOS": "repro.validate.scenarios",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = sorted(_LAZY)
