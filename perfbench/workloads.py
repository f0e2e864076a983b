"""The benchmark workloads, their behaviour digests and output checks.

Each workload turns the benchmark's ``--seed`` into a scenario (the only
thing the simulator receives) and runs it through a public entry point.
A run returns an :class:`Outcome`: one behaviour digest and one list of
failed output checks per cell, plus the simulated results printed as
model outputs.

Behaviour digests hash simulated outputs only — per-flow delivered bytes
and start/completion times, JCTs, CE marks, drops, per-link bytes (as
link utilization) or, for the kinds whose results carry no link bytes,
the sampled queue depths.  They never include event counts or host
time, so a change that removes events keeps its digests while a change
to the model does not.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.experiments.fattree_eval import FatTreeResult, FatTreeScenario, run_fattree
from repro.experiments.workload_matrix import (
    WorkloadResult,
    WorkloadScenario,
    run_workload_matrix,
)
from repro.fluid.backend import FluidResult, FluidScenario, run_fluid
from repro.metrics.fct import completion_times
from repro.metrics.goodput import FlowRecord
from repro.net.packet import MSS_BYTES
from repro.runner import DiskCache, RunCache

from probe import clock

#: Link rate of every packet workload's fat tree (build_fattree's default).
FABRIC_RATE_BPS = 1e9
#: Significant digits kept of fluid floats in the digest: the vector
#: solver's numpy reductions may round differently on other CPUs.
FLUID_DIGITS = 6


@dataclass
class Context:
    """What a workload run needs besides its scenario."""

    tmp_root: str
    #: Traced runs also replay the campaign from its warm disk cache.
    traced: bool = False
    #: Campaign worker processes (tests compare 1 with 2).
    jobs: int = 1


@dataclass
class Outcome:
    """One workload run: per-cell digests and failed checks, and outputs."""

    digests: List[str]
    problems: List[List[str]]
    #: Simulated results (labelled as such when printed; never gated).
    outputs: Dict[str, float] = field(default_factory=dict)
    #: Runner-layer figures of a campaign workload.
    runner: Dict[str, float] = field(default_factory=dict)
    flows_completed: int = 0
    #: Delivered packets when the probe cannot count them (fluid).
    delivered: float = 0.0


def digest(value: Any) -> str:
    """A short stable hash of a tuple of simulated outputs."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:20]


def _flows(records: Sequence[FlowRecord]) -> Tuple[Any, ...]:
    return tuple(
        (r.flow_id, r.src, r.dst, r.size_bytes, r.start_time, r.complete_time,
         r.delivered_bytes)
        for r in records
    )


def _check_flows(records: Sequence[FlowRecord], duration: float) -> List[str]:
    """Bounds every flow obeys: sizes, the horizon, and the access link.

    A source reaches the fabric through one access link, so no flow can
    deliver payload faster than ``FABRIC_RATE_BPS``.  Delivery is counted
    in whole segments: the last one may carry up to one MSS past the
    flow size, and the rate bound gets one MSS of slack for it.
    """
    problems = []
    for r in records:
        if not 0 <= r.delivered_bytes < r.size_bytes + MSS_BYTES:
            problems.append(f"flow {r.flow_id}: delivered {r.delivered_bytes} of {r.size_bytes}")
        end = r.complete_time if r.complete_time is not None else duration
        if not r.start_time <= end <= duration:
            problems.append(f"flow {r.flow_id}: runs from {r.start_time} to {end}")
        if (r.delivered_bytes - MSS_BYTES) * 8 > FABRIC_RATE_BPS * (end - r.start_time):
            problems.append(f"flow {r.flow_id}: faster than its access link")
    return problems


def _sorted_queue_samples(samples: Dict[str, List[int]]) -> Tuple[Any, ...]:
    return tuple((layer, tuple(samples[layer])) for layer in sorted(samples))


# ----------------------------------------------------------------------
# fattree_perm
# ----------------------------------------------------------------------


def fattree_perm_inputs(seed: int) -> FatTreeScenario:
    return FatTreeScenario(
        scheme="xmp", subflows=2, pattern="permutation", k=4, duration=0.1, seed=seed
    )


def fattree_digest(result: FatTreeResult) -> str:
    return digest((
        tuple((label, _flows(result.records[label])) for label in sorted(result.records)),
        tuple((label, _flows(result.unfinished[label])) for label in sorted(result.unfinished)),
        tuple(result.jcts),
        tuple(result.link_utilization),
        result.total_marked,
        result.total_dropped,
    ))


def run_fattree_perm(scenario: FatTreeScenario, ctx: Context) -> Outcome:
    result = run_fattree(scenario, use_cache=False)
    records = result.all_records()
    problems = _check_flows(records, scenario.duration)
    if not records or sum(r.delivered_bytes for r in records) <= 0:
        problems.append("no bytes delivered")
    problems.extend(
        f"link {name}: utilization {u}" for name, _, u in result.link_utilization
        if not 0.0 <= u <= 1.0
    )
    completed = sum(len(v) for v in result.records.values())
    return Outcome(
        digests=[fattree_digest(result)],
        problems=[problems],
        outputs={
            "goodput_mbps": result.mean_goodput_bps() / 1e6,
            "flows_completed": completed,
        },
        flows_completed=completed,
    )


# ----------------------------------------------------------------------
# websearch_openloop
# ----------------------------------------------------------------------


def websearch_inputs(seed: int) -> WorkloadScenario:
    return WorkloadScenario(
        scheme="xmp", subflows=2, workload="websearch", arrival="poisson",
        load=0.5, duration=0.1, size_scale=0.25, k=4, seed=seed,
    )


def workload_digest(result: WorkloadResult) -> str:
    return digest((
        _flows(result.records),
        _flows(result.unfinished),
        _flows(result.elephants),
        result.launched_flows,
        _sorted_queue_samples(result.queue_samples),
        result.total_marked,
        result.total_dropped,
    ))


def run_websearch(scenario: WorkloadScenario, ctx: Context) -> Outcome:
    cells, digests, problems, runner = run_campaign(
        lambda cache, jobs: run_workload_matrix(
            scenario, schemes=((scenario.scheme, scenario.subflows),),
            loads=(scenario.load,), jobs=jobs, cache=cache,
        ),
        workload_digest, ctx,
    )
    (result,) = cells
    (cell_problems,) = problems
    cell_problems.extend(_check_flows(result.records + result.unfinished, scenario.duration))
    if not result.records:
        cell_problems.append("no flow completed")
    if not 0 < result.launched_flows <= result.scheduled_flows:
        cell_problems.append(f"launched {result.launched_flows} of {result.scheduled_flows}")
    if any(fct <= 0 for fct in completion_times(result.records)):
        cell_problems.append("non-positive FCT")
    summary = result.fct_overall()
    return Outcome(
        digests=digests,
        problems=problems,
        outputs={
            "fct_p50_ms": summary["p50_s"] * 1e3,
            "fct_p99_ms": summary["p99_s"] * 1e3,
            "flows_completed": len(result.records),
            "flows_launched": result.launched_flows,
        },
        runner=runner,
        flows_completed=len(result.records),
    )


# ----------------------------------------------------------------------
# The runner layer
# ----------------------------------------------------------------------


def run_campaign(
    run_grid: Callable[[RunCache, int], Any], digest_of: Callable[[Any], str], ctx: Context,
) -> Tuple[List[Any], List[str], List[List[str]], Dict[str, float]]:
    """Run a grid through ``Campaign`` with a cold disk cache.

    ``run_grid(cache, jobs)`` is a campaign driver such as
    ``run_workload_matrix``.  Returns the cells, their digests, an empty
    problem list per cell and the runner figures.  A traced run also
    replays the grid from the disk tier with the memory tier cleared,
    and flags every cell whose replayed digest differs.
    """
    directory = tempfile.mkdtemp(prefix="cache-", dir=ctx.tmp_root)
    try:
        cache = RunCache(disk=DiskCache(directory))
        started = clock()
        table = run_grid(cache, ctx.jobs)
        campaign_s = clock() - started
        cells = list(table.cells.values())
        digests = [digest_of(cell) for cell in cells]
        problems: List[List[str]] = [[] for _ in cells]
        campaign = table.campaign
        runner = {
            "cells": float(len(campaign)),
            "cache_hits": float(campaign.cached_count),
            "cell_compute_s": campaign.compute_wall_s,
            "pool_efficiency": campaign.compute_wall_s / (ctx.jobs * campaign_s),
        }
        if ctx.traced:
            cache.clear_memory()
            started = clock()
            warm = run_grid(cache, ctx.jobs)
            runner["warm_replay_s"] = clock() - started
            runner["cache_hits"] += warm.campaign.cached_count
            for index, cell in enumerate(warm.cells.values()):
                if digest_of(cell) != digests[index]:
                    problems[index].append("warm replay digest differs from cold run")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return cells, digests, problems, runner


# ----------------------------------------------------------------------
# fluid_k16
# ----------------------------------------------------------------------


def fluid_inputs(seed: int) -> FluidScenario:
    return FluidScenario(
        scheme="xmp", topology="fattree", k=16, flows=10240, subflows=2,
        duration=0.005, solver="vector", seed=seed,
    )


def _rounded(values: Sequence[float]) -> Tuple[float, ...]:
    return tuple(float(f"{v:.{FLUID_DIGITS}g}") for v in values)


def fluid_digest(result: FluidResult) -> str:
    return digest((
        result.num_flows,
        result.num_links,
        _rounded(result.flow_goodputs_bps()),
        _rounded(result.trajectory.steady_state_queues()),
    ))


def _fluid_delivered_packets(result: FluidResult) -> float:
    """Packets the fluid model delivered: rates integrated over time."""
    times = result.trajectory.times
    total = 0.0
    for series in result.trajectory.rates:
        previous_t, previous_x = 0.0, series[0]
        for t, x in zip(times, series):
            total += 0.5 * (x + previous_x) * (t - previous_t)
            previous_t, previous_x = t, x
    return total


def run_fluid_k16(scenario: FluidScenario, ctx: Context) -> Outcome:
    result = run_fluid(scenario, use_cache=False)
    goodputs = result.flow_goodputs_bps()
    problems = []
    if result.num_flows != scenario.flows or len(goodputs) != scenario.flows:
        problems.append(f"{len(goodputs)} flows of {scenario.flows}")
    bad = [g for g in goodputs if not (math.isfinite(g) and 0.0 < g <= scenario.link_rate_bps * 1.001)]
    if bad:
        problems.append(f"{len(bad)} flows with goodput outside (0, link rate]")
    return Outcome(
        digests=[fluid_digest(result)],
        problems=[problems],
        outputs={"fluid_goodput_mbps": result.mean_goodput_bps() / 1e6},
        delivered=_fluid_delivered_packets(result),
    )


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Any]
    run: Callable[[Any, Context], Outcome]
    cells: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fattree_perm", fattree_perm_inputs, run_fattree_perm),
        Workload("websearch_openloop", websearch_inputs, run_websearch),
        Workload("fluid_k16", fluid_inputs, run_fluid_k16),
    )
}


__all__ = ["Context", "Outcome", "WORKLOADS", "Workload", "digest"]
