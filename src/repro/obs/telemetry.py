"""Structured run telemetry: one JSONL document per executed cell.

A :class:`Telemetry` instance owns an output directory and appends one
:func:`~repro.obs.records.run_record` line per campaign cell to
``<dir>/runs.jsonl``.  It is threaded through the campaign runner the
same way the disk cache is: the **parent** process is the single writer
(workers only compute; their profile snapshots ride home inside the
pickled :class:`~repro.runner.spec.RunResult`), so concurrent cells never
interleave partial lines.

Switched on three equivalent ways:

* CLI: ``--telemetry DIR`` on any experiment subcommand (also exported
  as ``$REPRO_TELEMETRY`` so pool workers profile themselves);
* environment: ``REPRO_TELEMETRY=DIR`` — every
  :class:`~repro.runner.campaign.Campaign` in the process records;
* library: ``Campaign(telemetry=Telemetry(dir))``.

Telemetry implies profiling (the record's hot-spot table comes from the
engine profiler), so the campaign runner arranges ``$REPRO_PROFILE`` for
its workers whenever telemetry is active.
"""

from __future__ import annotations

import os
import pathlib
from typing import Any, Iterable, List, Optional

from repro.sim.taps import telemetry_dir
from repro.obs.records import run_record, to_jsonl

#: File every campaign appends its per-run records to.
RUNS_FILENAME = "runs.jsonl"


class Telemetry:
    """Appends per-run JSONL records under one directory."""

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self.path = self.directory / RUNS_FILENAME

    def record_results(self, results: Iterable[Any]) -> List[dict]:
        """Append one record per :class:`RunResult`; returns the records.

        Appends are a single ``write`` of the whole batch, so two
        campaigns sharing a directory interleave per batch, not per byte.
        """
        records = [run_record(result) for result in results]
        if records:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(to_jsonl(records))
        return records

    def read_records(self) -> List[dict]:
        """Parse every record written so far (newest last)."""
        import json

        if not self.path.exists():
            return []
        with open(self.path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]


def from_environment() -> Optional[Telemetry]:
    """The process-wide telemetry sink, if ``$REPRO_TELEMETRY`` names one."""
    directory = telemetry_dir()
    if directory is None:
        return None
    return Telemetry(pathlib.Path(directory).expanduser())


__all__ = ["RUNS_FILENAME", "Telemetry", "from_environment"]
