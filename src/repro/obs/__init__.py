"""repro.obs — run telemetry and engine profiling.

The observability layer every performance PR measures itself against:

* :mod:`repro.obs.profiler` — the opt-in engine :class:`Profiler`
  (per-component event counts and callback wall-time, heap health) and
  its :func:`profiling` context manager;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` recorder (one
  JSONL document per campaign cell);
* :mod:`repro.obs.records` — the typed record schema and the
  :func:`deterministic_view` the determinism tests pin.

The profiler is one of the engine's taps; :mod:`repro.sim.taps` owns
their activation registry.

See OBSERVABILITY.md for the record schema and the overhead contract.
"""

from repro.obs.profiler import (
    ComponentStat,
    HeapStats,
    Profiler,
    ProfileSnapshot,
    component_of,
    profiling,
)
from repro.obs.records import (
    TELEMETRY_SCHEMA,
    QueueRecord,
    SamplerRecord,
    SenderRecord,
    deterministic_view,
    drain_link,
    drain_queue,
    drain_sampler,
    drain_sender,
    run_record,
    to_jsonl,
)
from repro.obs.telemetry import RUNS_FILENAME, Telemetry, from_environment

__all__ = [
    "ComponentStat",
    "HeapStats",
    "Profiler",
    "ProfileSnapshot",
    "component_of",
    "profiling",
    "TELEMETRY_SCHEMA",
    "QueueRecord",
    "SamplerRecord",
    "SenderRecord",
    "deterministic_view",
    "drain_link",
    "drain_queue",
    "drain_sampler",
    "drain_sender",
    "run_record",
    "to_jsonl",
    "RUNS_FILENAME",
    "Telemetry",
    "from_environment",
]
