"""The registry of ``REPRO_*`` environment variables.

Every knob this package (or its scripts) reads from the environment is
declared here, in one table, with its consumer and semantics.  The
point is drift control: environment variables are the least
discoverable configuration surface — nothing imports them, no parser
rejects typos, and a stale doc row outlives the code it described.  So
the table is machine-checked from both sides
(``tests/test_env_registry.py``):

* every ``REPRO_*`` literal that ``os.environ`` / ``os.getenv`` code
  under ``src/repro`` actually reads must have a row here, and every
  ``process``-scope row must correspond to such a read;
* the environment table in OBSERVABILITY.md is generated by
  :func:`render_table` and must match this registry byte-for-byte.

Scopes:

* ``process`` — read by library code at run time; child worker
  processes inherit it, which is how CLI flags reach pool workers;
* ``shell`` — read only by ``scripts/check.sh`` or the CI workflow,
  never by Python code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["EnvVar", "ENV_VARS", "by_name", "render_table"]


@dataclass(frozen=True)
class EnvVar:
    """One declared ``REPRO_*`` environment variable."""

    name: str
    #: ``process`` (read by src/repro at run time) or ``shell``
    #: (read only by scripts/CI).
    scope: str
    #: The module (or script) that reads it.
    consumer: str
    #: What setting it does, one sentence.
    meaning: str


ENV_VARS: Tuple[EnvVar, ...] = (
    EnvVar(
        "REPRO_VALIDATE",
        "process",
        "repro.sim.taps",
        "Attach the runtime invariant validator to every campaign cell "
        "(any non-empty value other than 0).",
    ),
    EnvVar(
        "REPRO_PROFILE",
        "process",
        "repro.sim.taps",
        "Profile every run: networks attach their simulator to an "
        "engine profiler (any non-empty value other than 0).",
    ),
    EnvVar(
        "REPRO_TELEMETRY",
        "process",
        "repro.sim.taps",
        "Directory for campaign telemetry JSONL; implies profiling "
        "(records embed the engine profile).",
    ),
    EnvVar(
        "REPRO_CACHE_DIR",
        "process",
        "repro.runner.cache",
        "On-disk run-cache directory (default ~/.cache/repro).",
    ),
    EnvVar(
        "REPRO_RACE",
        "process",
        "repro.sim.taps",
        "Attach the same-instant race sanitizer to every new Network "
        "(any non-empty value other than 0).",
    ),
    EnvVar(
        "REPRO_RACE_LOG",
        "process",
        "repro.sim.taps",
        "Stream the race sanitizer's collision/summary JSONL report to "
        "this path (with REPRO_RACE).",
    ),
    EnvVar(
        "REPRO_ALLOC",
        "process",
        "repro.sim.taps",
        "Attach the hot-path allocation sanitizer to every new Network "
        "(any non-empty value other than 0).",
    ),
    EnvVar(
        "REPRO_ALLOC_LOG",
        "process",
        "repro.sim.taps",
        "Stream the allocation sanitizer's per-event JSONL log to this "
        "path (with REPRO_ALLOC).",
    ),
    EnvVar(
        "REPRO_PYTHONPATH",
        "shell",
        "scripts/check.sh",
        "Python path check.sh exports before invoking the tree "
        "(default src).",
    ),
    EnvVar(
        "REPRO_BENCH_REPEATS",
        "shell",
        "scripts/check.sh",
        "Repeat count for the benchmark gate's best-of timing loop.",
    ),
    EnvVar(
        "REPRO_RACE_REPORT",
        "shell",
        "scripts/check.sh",
        "Where check.sh --race writes the race sanitizer report "
        "(default race-report.jsonl).",
    ),
    EnvVar(
        "REPRO_PERF_REPORT",
        "shell",
        "scripts/check.sh",
        "Where check.sh --perf writes the allocation report "
        "(default perf-report.jsonl).",
    ),
)


def by_name() -> Dict[str, EnvVar]:
    """The registry keyed by variable name."""
    return {var.name: var for var in ENV_VARS}


def render_table() -> str:
    """The markdown environment table embedded in OBSERVABILITY.md.

    ``tests/test_env_registry.py`` pins the document copy to this
    output, so editing either side without the other fails CI.
    """
    lines = [
        "| variable | scope | consumer | meaning |",
        "|---|---|---|---|",
    ]
    for var in ENV_VARS:
        lines.append(
            f"| `{var.name}` | {var.scope} | `{var.consumer}` "
            f"| {var.meaning} |"
        )
    return "\n".join(lines)
