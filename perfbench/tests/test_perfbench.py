"""Tests of the benchmark itself: digests, seeds, tracing fidelity, contract.

They drive the same functions ``perfbench/run.py`` uses, mostly on
shortened scenarios; the recorded-digest tests run the real workloads
once each.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import workloads
from probe import PhaseProbe
from repro.experiments.workload_matrix import IncastSweepScenario, run_incast_sweep
from repro.sim.engine import Simulator
from spans import Tracer

ROOT = run.ROOT


@pytest.fixture
def ctx():
    run.TMP_ROOT.mkdir(exist_ok=True)
    yield workloads.Context(tmp_root=str(run.TMP_ROOT))
    shutil.rmtree(run.TMP_ROOT, ignore_errors=True)


@pytest.fixture
def probe():
    run.TMP_ROOT.mkdir(exist_ok=True)
    with PhaseProbe() as installed:
        installed.channel = str(run.TMP_ROOT / "channel-test.jsonl")
        yield installed
    shutil.rmtree(run.TMP_ROOT, ignore_errors=True)


def traced_rep(name, inputs, probe, ctx):
    tracer = Tracer()
    tracer.install()
    probe.tracer = tracer
    try:
        return run.run_rep(workloads.WORKLOADS[name], inputs, probe, replace(ctx, traced=True))
    finally:
        probe.tracer = None
        tracer.uninstall()


def short_perm(seed):
    return replace(workloads.fattree_perm_inputs(seed), duration=0.01)


def short_incast(seed):
    # The fat-tree incast pattern; a small RTOmin puts timeouts inside a
    # short horizon.
    return replace(short_perm(seed), pattern="incast", duration=0.03, rto_min=0.002)


# ----------------------------------------------------------------------
# Recorded digests and the seed
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_seed_reproduces_recorded_digests(name, probe, ctx):
    workload = workloads.WORKLOADS[name]
    recorded = run.load_digests()[name]
    rep = run.run_rep(workload, workload.inputs(run.rep_seed(run.DEFAULT_SEED, 0)), probe, ctx)
    assert run.judge(rep, workload.cells, recorded[str(run.DEFAULT_SEED)][0]) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reaches_the_program(name):
    # Every recorded repetition of every seed is a different scenario.
    recorded = run.load_digests()[name]
    reps = [
        tuple(recorded[str(seed)][index])
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED)
        for index in range(run.RECORDED_REPS)
    ]
    assert len(set(reps)) == len(reps)


def test_held_out_seed_reproduces_recorded_digests(probe, ctx):
    workload = workloads.WORKLOADS["fattree_perm"]
    recorded = run.load_digests()["fattree_perm"][str(run.HELD_OUT_SEED)]
    rep = run.run_rep(workload, workload.inputs(run.rep_seed(run.HELD_OUT_SEED, 0)), probe, ctx)
    assert run.judge(rep, 1, recorded[0]) == []


# ----------------------------------------------------------------------
# Behaviour versus cost
# ----------------------------------------------------------------------


def test_planted_behaviour_change_fails_cells():
    def planted(seed):
        return replace(workloads.fattree_perm_inputs(seed), marking_threshold=20)

    result = run.measure("fattree_perm", run.DEFAULT_SEED, 0.0, False, scenario=planted)
    # Recorded repetitions and the final repeat of the first one differ.
    assert result["failed"] >= run.RECORDED_REPS + 1
    assert result["failed"] / result["attempted"] > 0


def test_events_only_change_keeps_digests(monkeypatch):
    """Extra no-op events change the cost, never the behaviour digest."""
    original = Simulator.run

    def run_with_idle_ticks(sim, until=None, max_events=None):
        def tick():
            if until is None or sim.now + 1e-4 <= until:
                sim.schedule(1e-4, tick)

        sim.schedule(0.0, tick)
        return original(sim, until, max_events)

    plain = run.measure("fattree_perm", run.DEFAULT_SEED, 0.0, False)
    monkeypatch.setattr(Simulator, "run", run_with_idle_ticks)
    ticked = run.measure("fattree_perm", run.DEFAULT_SEED, 0.0, False)
    assert plain["failed"] == 0 and ticked["failed"] == 0
    events = [
        [r["events"] for r in rep.records if r["kind"] == "packet"]
        for rep in (plain["records"][0], ticked["records"][0])
    ]
    assert events[1][0] > events[0][0]


# ----------------------------------------------------------------------
# Traced-run fidelity
# ----------------------------------------------------------------------


def test_traced_digest_is_bit_identical(probe, ctx):
    inputs = short_perm(run.rep_seed(run.DEFAULT_SEED, 0))
    plain = run.run_rep(workloads.WORKLOADS["fattree_perm"], inputs, probe, ctx)
    traced = traced_rep("fattree_perm", inputs, probe, ctx)
    assert plain.outcome.digests == traced.outcome.digests


@pytest.mark.parametrize("inputs", [short_perm(1), short_incast(1)])
def test_span_counts_equal_program_counters(inputs, probe, ctx):
    rep = traced_rep("fattree_perm", inputs, probe, ctx)
    records = [r for r in rep.records if r["kind"] == "packet"]
    assert records
    for record in records:
        spans, counters = record["spans"], record["counters"]
        calls = {span: value[0] for span, value in spans.items()}
        assert calls["net.switch_receive"] == counters["switch_forwarded"]
        assert calls["net.link_serve"] == counters["link_transmitted"]
        assert calls["transport.data_rx"] + calls["transport.ack_rx"] == counters["host_delivered"]
        assert calls["net.host_dispatch"] == counters["host_delivered"] + counters["host_unclaimed"]
        assert calls["transport.rto"] == counters["timeouts"]
    if inputs.pattern == "incast":
        assert sum(r["counters"]["timeouts"] for r in records) > 0


def test_layer_self_times_account_for_simulate_wall(probe, ctx):
    rep = traced_rep("fattree_perm", short_perm(1), probe, ctx)
    (record,) = [r for r in rep.records if r["kind"] == "packet"]
    wall = record["end"] - record["start"]
    residual = record["residual"]
    assert record["sim_self_s"] > 0
    assert all(value >= 0 for value in residual.values())
    assert all(self_s >= 0 for _, self_s in record["spans"].values())
    # Every fired callback belongs to a named layer.
    assert residual["other"] == 0
    accounted = record["sim_self_s"] + sum(residual.values()) + record["span_self_s"]
    assert math.isclose(accounted, wall, rel_tol=1e-6)


# ----------------------------------------------------------------------
# Campaign determinism
# ----------------------------------------------------------------------


def incast_digest(cell):
    return workloads.digest((
        cell.scenario.label(), tuple(cell.jcts), tuple(cell.unfinished_ages),
        cell.jobs_started, workloads._flows(cell.responses),
        workloads._sorted_queue_samples(cell.queue_samples),
        cell.total_marked, cell.total_dropped,
    ))


def test_campaign_digest_same_at_one_and_two_jobs_and_warm(ctx, probe):
    """The incast grid through the runner: pool, pickling and disk cache."""
    base = IncastSweepScenario(duration=0.1, seed=run.rep_seed(run.DEFAULT_SEED, 0))

    def grid(cache, jobs):
        return run_incast_sweep(
            base, schemes=(("xmp", 2), ("dctcp", 1)), fan_ins=(4, 8, 12),
            jobs=jobs, cache=cache,
        )

    _, serial, _, _ = workloads.run_campaign(grid, incast_digest, replace(ctx, jobs=1))
    # traced=True also replays the grid from the warm disk cache and
    # flags any cell whose replayed digest differs.
    _, pooled, problems, runner = workloads.run_campaign(
        grid, incast_digest, replace(ctx, jobs=2, traced=True)
    )
    assert serial == pooled
    assert problems == [[] for _ in pooled]
    assert runner["cache_hits"] == len(pooled)
    # Pool workers hand their run records back through the probe's channel.
    assert len([r for r in probe.take() if r["kind"] == "packet"]) == 2 * len(pooled)


# ----------------------------------------------------------------------
# The benchmark contract
# ----------------------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_run_reports_every_per_layer_metric():
    # A seed without recorded digests: the shortened scenario is not the
    # recorded one.
    result = run.measure("fattree_perm", 3, 0.0, True, scenario=short_perm)
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["failed"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fattree_perm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
