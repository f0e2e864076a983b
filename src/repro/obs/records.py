"""Typed telemetry records and their JSON/JSONL serialization.

One :func:`run_record` per executed campaign cell is the document the
telemetry layer emits (see :class:`repro.obs.telemetry.Telemetry`); the
drain helpers below turn live measurement objects — queues, links,
periodic samplers, TCP senders — into frozen records, so an experiment or
test can snapshot its observable state without holding simulator
references.

Determinism contract: every field of every record is a pure function of
the spec **except** the wall-clock measurements (``wall_time_s``,
``wall_sim_ratio`` and the ``wall_s`` columns inside the profile) and the
cache-provenance fields (``source``/``cached`` say where a result came
from, not what it is).  :func:`deterministic_view` strips exactly those,
and the telemetry determinism tests pin that what remains is identical
across ``--jobs 1`` / ``--jobs 4`` and cache hit / miss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only; see run_record()
    from repro.runner.spec import RunResult

#: Bump when the JSONL record layout changes incompatibly.
#: 2: added the ``backend`` field (packet vs fluid execution).
#: 3: the profile's heap dict lost ``batches``/``batched_packets``, and
#: ``peak_size`` is now sampled at promotion instead of at every push.
TELEMETRY_SCHEMA = 3

#: Wall-clock top-level record fields (host-dependent, never compared).
WALL_CLOCK_FIELDS = ("wall_time_s", "wall_sim_ratio")

#: Provenance top-level record fields (depend on cache state, not spec).
PROVENANCE_FIELDS = ("source", "cached")


# ----------------------------------------------------------------------
# Drained object records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QueueRecord:
    """One queue's lifetime counters (see ``QueueStats``) plus residency."""

    name: str
    enqueued: int
    dequeued: int
    dropped: int
    marked: int
    max_occupancy: int
    occupancy: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
            "dropped": self.dropped,
            "marked": self.marked,
            "max_occupancy": self.max_occupancy,
            "occupancy": self.occupancy,
        }


@dataclass(frozen=True)
class SamplerRecord:
    """A periodic sampler's accumulated time-series, name-sorted."""

    kind: str
    times: Tuple[float, ...]
    series: Tuple[Tuple[str, Tuple[float, ...]], ...]

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "times": list(self.times),
            "series": {name: list(values) for name, values in self.series},
        }


@dataclass(frozen=True)
class SenderRecord:
    """One TCP sender's terminal state."""

    name: str
    delivered_segments: int
    retransmissions: int
    cwnd: float
    srtt: Optional[float]
    completed: bool
    running: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "delivered_segments": self.delivered_segments,
            "retransmissions": self.retransmissions,
            "cwnd": self.cwnd,
            "srtt": self.srtt,
            "completed": self.completed,
            "running": self.running,
        }


def drain_queue(name: str, queue: Any) -> QueueRecord:
    """Freeze one queue's ``stats`` counters into a :class:`QueueRecord`."""
    stats = queue.stats
    return QueueRecord(
        name=name,
        enqueued=stats.enqueued,
        dequeued=stats.dequeued,
        dropped=stats.dropped,
        marked=stats.marked,
        max_occupancy=stats.max_occupancy,
        occupancy=queue.occupancy,
    )


def drain_link(link: Any) -> QueueRecord:
    """Freeze a link's egress queue under the link's name."""
    return drain_queue(link.name, link.queue)


def drain_sampler(sampler: Any) -> SamplerRecord:
    """Freeze any :class:`~repro.metrics.collector.PeriodicSampler`.

    Recognizes the three concrete samplers structurally (``rates`` /
    ``occupancy`` / ``samples``), so subclasses that keep those attribute
    names drain for free.
    """
    for attr in ("rates", "occupancy", "samples"):
        series = getattr(sampler, attr, None)
        if series is not None:
            break
    else:
        raise TypeError(
            f"cannot drain {type(sampler).__name__}: no rates/occupancy/"
            "samples attribute"
        )
    return SamplerRecord(
        kind=type(sampler).__name__,
        times=tuple(getattr(sampler, "times", ())),
        series=tuple(
            (name, tuple(values)) for name, values in sorted(series.items())
        ),
    )


def drain_sender(name: str, sender: Any) -> SenderRecord:
    """Freeze one :class:`~repro.transport.tcp.TcpSender`'s state."""
    return SenderRecord(
        name=name,
        delivered_segments=sender.delivered_segments,
        retransmissions=sender.retransmissions,
        cwnd=sender.cwnd,
        srtt=sender.srtt,
        completed=sender.completed,
        running=sender.running,
    )


# ----------------------------------------------------------------------
# The per-run JSONL document
# ----------------------------------------------------------------------


def run_record(result: "RunResult") -> dict:
    """The one-JSONL-document-per-run telemetry record for a cell.

    Fields: schema version, spec fingerprint/kind/label, cache tier the
    result came from, event count, invariant checks, simulated duration
    (when the config declares one), wall time and wall/sim ratio, and —
    for profiled runs — the engine profile (per-component event counts,
    hot-spot table, heap health).  Cached cells carry ``"profile": null``:
    nothing executed, so there is nothing to profile.
    """
    # Imported here, not at module scope: repro.runner imports the repro
    # package root, which ``import repro.obs`` must not drag in.
    from repro.runner.cache import spec_fingerprint
    from repro.runner.registry import BACKEND_PACKET, backend_of

    try:
        backend = backend_of(result.spec.kind)
    except KeyError:
        backend = BACKEND_PACKET
    metrics = result.metrics
    sim_time = getattr(result.spec.config, "duration", None)
    if sim_time is not None:
        sim_time = float(sim_time)
    ratio = None
    if sim_time and not metrics.cached:
        ratio = metrics.wall_time_s / sim_time
    profile = metrics.profile
    return {
        "schema": TELEMETRY_SCHEMA,
        "fingerprint": spec_fingerprint(result.spec),
        "kind": result.spec.kind,
        "backend": backend,
        "label": result.spec.label(),
        "source": metrics.source,
        "cached": metrics.cached,
        "events": metrics.events,
        "invariant_checks": metrics.invariant_checks,
        "sim_time_s": sim_time,
        "wall_time_s": metrics.wall_time_s,
        "wall_sim_ratio": ratio,
        "profile": profile.as_dict() if profile is not None else None,
    }


def deterministic_view(record: dict, keep_profile: bool = True) -> dict:
    """The spec-determined subset of a record (what determinism tests pin).

    Drops the wall-clock and provenance fields; inside the profile, keeps
    per-component *event counts* and the heap counters but drops the
    ``wall_s`` columns and the wall-ordered hot-spot table.  Pass
    ``keep_profile=False`` when comparing a profiled (miss) record against
    an unprofiled (cache hit) one.
    """
    view = {
        key: value
        for key, value in record.items()
        if key not in WALL_CLOCK_FIELDS
        and key not in PROVENANCE_FIELDS
        and key != "profile"
    }
    if keep_profile:
        profile = record.get("profile")
        if profile is not None:
            profile = {
                "events": profile["events"],
                "components": [
                    {"component": c["component"], "events": c["events"]}
                    for c in profile["components"]
                ],
                "heap": profile["heap"],
            }
        view["profile"] = profile
    return view


def to_jsonl(records: Any) -> str:
    """Serialize records (dicts) as sorted-key JSONL, one line each."""
    return "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in records
    )


__all__ = [
    "TELEMETRY_SCHEMA",
    "WALL_CLOCK_FIELDS",
    "PROVENANCE_FIELDS",
    "QueueRecord",
    "SamplerRecord",
    "SenderRecord",
    "drain_queue",
    "drain_link",
    "drain_sampler",
    "drain_sender",
    "run_record",
    "deterministic_view",
    "to_jsonl",
]
