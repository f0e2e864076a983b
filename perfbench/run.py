#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fattree_perm --seed 1 --seconds 25 --trace 0

The workload is repeated until ``--seconds`` of measuring are used (at
least a few times), and each metric is the median over the repetitions.
``--trace 0`` prints the end-to-end metrics (host time, tracing off);
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones plus ``trace.overhead_frac``.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
and ``failed`` count cells (``fail_frac`` = failed / attempted).

``python3 perfbench/run.py --record-digests`` re-records the behaviour
digests of every workload for the default and the held-out seed.

See ``perfbench/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS_FILE = BENCH_DIR / "digests.json"
TMP_ROOT = ROOT / ".perfbench-tmp"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
#: Repetitions per seed whose digests are recorded.
RECORDED_REPS = 2
#: Fewest repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
MIN_TRACED_PAIRS = 1
#: Reference-job timings per repetition (see reference.py).
REFERENCES_PER_REP = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_per_sim_s": "s/s",
    "us_per_delivered_pkt": "us",
    "peak_rss_mb": "MB",
}

SPANS = (
    "net.switch_receive", "net.link_enqueue", "net.queue_accept", "net.link_serve",
    "net.host_dispatch", "net.host_send",
    "transport.data_rx", "transport.ack_rx", "transport.cc_on_ack",
    "transport.rto", "transport.delack",
    "mptcp.trash_delta", "traffic.launch", "metrics.sample",
)
SPAN_LAYERS = ("net", "transport", "mptcp", "traffic", "metrics")

PER_LAYER: Dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_pkt": "count",
    "sim.self_s": "s",
    "sim.callback_self_s": "s",
    "sim.far_spills": "count",
    "sim.promotions": "count",
    "sim.compactions": "count",
    **{f"{name}.{field}": unit for name in SPANS
       for field, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{layer}.self_s": "s" for layer in SPAN_LAYERS},
    "net.ce_marks": "count",
    "net.drops": "count",
    "transport.retransmissions": "count",
    "transport.timeouts": "count",
    "transport.useful_frac": "ratio",
    "mptcp.bos_cuts": "count",
    "traffic.flows_completed": "count",
    "traffic.schedule_build_s": "s",
    "runner.cells": "count",
    "runner.cache_hits": "count",
    "runner.cell_compute_s": "s",
    "runner.pool_efficiency": "ratio",
    "runner.warm_replay_s": "s",
    "fluid.paths_s": "s",
    "fluid.model_build_s": "s",
    "fluid.integrate_s": "s",
    "fluid.state_updates": "count",
    "fluid.ns_per_update": "ns",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program to measure)."""


def load_program() -> None:
    """Put the program's sources on the path and import the benchmark.

    Clears ``REPRO_*`` variables first: they switch on profiling,
    validation, batching or a cache directory, which would change what
    is measured.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {src}")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  - the fluid solver's, imported outside timing
    import workloads  # noqa: F401


@dataclass
class Rep:
    """One repetition of a workload."""

    started: float
    ended: float
    records: List[Dict[str, Any]]
    outcome: Any
    error: Optional[str]
    traced: bool

    def sim_records(self) -> List[Dict[str, Any]]:
        packet = [r for r in self.records if r["kind"] == "packet"]
        return packet or [r for r in self.records if r["kind"] == "fluid_integrate"]

    def sim_wall(self) -> float:
        return sum(r["end"] - r["start"] for r in self.sim_records())

    def end_to_end(self) -> Dict[str, float]:
        sim = self.sim_records()
        packet = [r for r in self.records if r["kind"] == "packet"]
        delivered = (
            sum(r["delivered"] for r in packet) if packet else self.outcome.delivered
        )
        sim_wall = self.sim_wall()
        return {
            "setup_s": min(r["start"] for r in sim) - self.started,
            "wall_s": self.ended - self.started,
            "wall_per_sim_s": sim_wall / sum(r["sim_seconds"] for r in sim),
            "us_per_delivered_pkt": sim_wall / delivered * 1e6,
        }

    def per_layer(self) -> Dict[str, float]:
        packet = [r for r in self.records if r["kind"] == "packet"]
        spans: Dict[str, List[float]] = {}
        counters: Dict[str, int] = {}
        residual: Dict[str, float] = {}
        for record in packet:
            for name, (calls, self_s) in record["spans"].items():
                total = spans.setdefault(name, [0, 0.0])
                total[0] += calls
                total[1] += self_s
            for name, value in record["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for layer, value in record["residual"].items():
                residual[layer] = residual.get(layer, 0.0) + value
        events = sum(r["events"] for r in packet)
        delivered = sum(r["delivered"] for r in packet)
        sent = counters.get("segments_sent", 0) + counters.get("retransmissions", 0)
        m: Dict[str, float] = {
            "sim.events": events,
            "sim.events_per_pkt": events / delivered if delivered else 0.0,
            "sim.self_s": sum(r["sim_self_s"] for r in packet),
            "sim.callback_self_s": residual.get("sim", 0.0),
            "sim.far_spills": sum(r["far_spills"] for r in packet),
            "sim.promotions": sum(r["promotions"] for r in packet),
            "sim.compactions": sum(r["compactions"] for r in packet),
        }
        for name in SPANS:
            calls, self_s = spans.get(name, (0, 0.0))
            m[f"{name}.calls"] = calls
            m[f"{name}.self_s"] = self_s
        for layer in SPAN_LAYERS:
            m[f"{layer}.self_s"] = residual.get(layer, 0.0) + sum(
                self_s for name, (_, self_s) in spans.items()
                if name.startswith(layer + ".")
            )
        m.update({
            "net.ce_marks": counters.get("ce_marks", 0),
            "net.drops": counters.get("drops", 0),
            "transport.retransmissions": counters.get("retransmissions", 0),
            "transport.timeouts": counters.get("timeouts", 0),
            "transport.useful_frac": (
                counters.get("delivered_segments", 0) / sent if sent else 0.0
            ),
            "mptcp.bos_cuts": counters.get("bos_cuts", 0),
            "traffic.flows_completed": self.outcome.flows_completed,
            "traffic.schedule_build_s": spans.get("traffic.schedule_build", (0, 0.0))[1],
            "trace.unattributed_s": residual.get("other", 0.0),
        })
        for name in ("cells", "cache_hits", "cell_compute_s", "pool_efficiency",
                     "warm_replay_s"):
            m[f"runner.{name}"] = self.outcome.runner.get(name, 0.0)
        model = [r for r in self.records if r["kind"] == "fluid_model"]
        integrate = [r for r in self.records if r["kind"] == "fluid_integrate"]
        updates = sum(r["state_updates"] for r in integrate)
        integrate_s = sum(r["end"] - r["start"] for r in integrate)
        m.update({
            "fluid.paths_s": (model[0]["start"] - self.started) if model else 0.0,
            "fluid.model_build_s": sum(r["end"] - r["start"] for r in model),
            "fluid.integrate_s": integrate_s,
            "fluid.state_updates": updates,
            "fluid.ns_per_update": integrate_s / updates * 1e9 if updates else 0.0,
        })
        return m


def run_rep(workload: Any, inputs: Any, probe: Any, ctx: Any) -> Rep:
    from probe import clock

    gc.collect()
    started = clock()
    outcome, error = None, None
    try:
        outcome = workload.run(inputs, ctx)
    except Exception:  # a failing cell is counted, not fatal
        error = traceback.format_exc()
    ended = clock()
    records = probe.take()
    if outcome is not None and not any(
        r["kind"] in ("packet", "fluid_integrate") for r in records
    ):
        outcome, error = None, "the probe saw no simulation run"
    return Rep(started, ended, records, outcome, error, ctx.traced)


def judge(rep: Rep, cells: int, expected: Optional[List[str]]) -> List[str]:
    """Why each failed cell of ``rep`` failed (empty when all passed)."""
    if rep.outcome is None:
        return [f"workload raised:\n{rep.error}"] * cells
    outcome = rep.outcome
    if len(outcome.digests) != cells:
        return [f"{len(outcome.digests)} digests for {cells} cells"] * cells
    failures = []
    for index, (cell_digest, problems) in enumerate(zip(outcome.digests, outcome.problems)):
        if problems:
            failures.append(f"cell {index}: " + "; ".join(problems))
        elif expected is not None and cell_digest != expected[index]:
            failures.append(
                f"cell {index}: digest {cell_digest} differs from {expected[index]}"
            )
    return failures


def load_digests() -> Dict[str, Dict[str, List[List[str]]]]:
    if not DIGESTS_FILE.is_file():
        return {}
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_of(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def rep_seed(seed: int, index: int) -> int:
    """The scenario seed of repetition ``index`` of a run with ``seed``."""
    return seed * 1000 + index


def measure(
    name: str, seed: int, seconds: float, trace: bool,
    scenario: Optional[Callable[[int], Any]] = None,
) -> Dict[str, Any]:
    """Run workload ``name`` for ``seconds`` and reduce its repetitions.

    Repetition ``i`` runs the scenario of seed ``rep_seed(seed, i)``, so a
    run averages over several inputs and the same ``seed`` always gives
    the same sequence.  Cells are compared with the digests recorded for
    ``seed`` where there are any; an untraced run ends by repeating its
    first scenario, which must reproduce its digests, and a traced
    repetition must reproduce the digests of its untraced twin.
    ``scenario`` replaces the workload's seed-to-scenario function
    (tests plant behaviour changes with it).
    """
    import workloads
    from probe import PhaseProbe, clock
    from reference import ELASTICITY, NOMINAL_S, reference_s
    from spans import Tracer

    workload = workloads.WORKLOADS[name]
    make = scenario if scenario is not None else workload.inputs
    recorded = load_digests().get(name, {}).get(str(seed), [])
    TMP_ROOT.mkdir(exist_ok=True)
    probe = PhaseProbe()
    probe.channel = str(TMP_ROOT / f"channel-{os.getpid()}.jsonl")
    plain = workloads.Context(tmp_root=str(TMP_ROOT))
    traced = workloads.Context(tmp_root=str(TMP_ROOT), traced=True)
    reps: List[Rep] = []
    failures: List[str] = []
    references: List[float] = []
    first: Optional[List[str]] = None
    started = clock()

    def check(rep: Rep, expected: Optional[List[str]]) -> None:
        reps.append(rep)
        failures.extend(judge(rep, workload.cells, expected))

    with probe:
        index = 0
        while True:
            batch_started = clock()
            if not trace:
                references.extend(reference_s() for _ in range(REFERENCES_PER_REP))
            inputs = make(rep_seed(seed, index))
            rep = run_rep(workload, inputs, probe, plain)
            expected = recorded[index] if index < len(recorded) else None
            check(rep, expected)
            if rep.outcome is not None:
                expected = expected or rep.outcome.digests
                first = first or rep.outcome.digests
            if trace:
                tracer = Tracer()
                tracer.install()
                probe.tracer = tracer
                try:
                    check(run_rep(workload, inputs, probe, traced), expected)
                finally:
                    probe.tracer = None
                    tracer.uninstall()
            index += 1
            enough = index >= (MIN_TRACED_PAIRS if trace else MIN_REPS)
            # Leave room for one more batch and, untraced, the final repeat.
            reserve = (clock() - batch_started) * (1 if trace else 2)
            if enough and clock() - started + reserve > seconds:
                break
        if not trace:
            check(
                run_rep(workload, make(rep_seed(seed, 0)), probe, plain),
                recorded[0] if recorded else first,
            )
    shutil.rmtree(TMP_ROOT, ignore_errors=True)
    attempted = len(reps) * workload.cells

    good = [rep for rep in reps if rep.outcome is not None]
    plain_reps = [rep for rep in good if not rep.traced]
    traced_reps = [rep for rep in good if rep.traced]
    metrics: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    host_speed = 1.0
    if trace and plain_reps and traced_reps:
        metrics = median_of([rep.per_layer() for rep in traced_reps])
        # Paired: every traced repetition has an untraced twin.
        metrics["trace.overhead_frac"] = (
            sum(rep.sim_wall() for rep in traced_reps)
            / sum(rep.sim_wall() for rep in plain_reps)
            - 1.0
        )
    elif not trace and plain_reps:
        raw = median_of([rep.end_to_end() for rep in plain_reps])
        host_speed = NOMINAL_S / statistics.median(references)
        metrics = {name: value * host_speed ** ELASTICITY for name, value in raw.items()}
        metrics["peak_rss_mb"] = peak_rss_mb()
    failed = len(failures)
    return {
        "workload": name,
        "seed": seed,
        "reps": len(reps),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "raw": raw,
        "host_speed": host_speed,
        "outputs": median_of([rep.outcome.outputs for rep in good]) if good else {},
        "records": reps,
    }


def report(result: Dict[str, Any], trace: bool) -> None:
    """Print the human-readable table, then the one-line JSON result."""
    units = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"repetitions {result['reps']}  trace {int(trace)}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<34} {metrics[name]:>16.6g} {unit}")
    if result["raw"]:
        print(f"  host speed {result['host_speed']:.4g} of nominal; unscaled: " + ", ".join(
            f"{name} {value:.6g}" for name, value in result["raw"].items()))
    print(f"  {'fail_frac':<34} {failed / attempted if attempted else 1.0:>16.6g} "
          f"({failed} of {attempted} cells)")
    for name, value in result["outputs"].items():
        print(f"  {name:<34} {value:>16.6g} (simulated)")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")
    correct = failed == 0 and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))


def record_digests() -> None:
    """Re-record the digests of the first repetitions of every workload
    for the default and the held-out seed."""
    import workloads
    from probe import PhaseProbe

    TMP_ROOT.mkdir(exist_ok=True)
    recorded: Dict[str, Dict[str, List[List[str]]]] = {}
    ctx = workloads.Context(tmp_root=str(TMP_ROOT))
    with PhaseProbe() as probe:
        probe.channel = str(TMP_ROOT / f"channel-{os.getpid()}.jsonl")
        for name, workload in workloads.WORKLOADS.items():
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                for index in range(RECORDED_REPS):
                    inputs = workload.inputs(rep_seed(seed, index))
                    rep = run_rep(workload, inputs, probe, ctx)
                    problems = judge(rep, workload.cells, None)
                    if problems:
                        raise SystemExit(f"{name} seed {seed}: {problems}")
                    recorded.setdefault(name, {}).setdefault(str(seed), []).append(
                        rep.outcome.digests
                    )
                    print(name, seed, index, rep.outcome.digests, flush=True)
    shutil.rmtree(TMP_ROOT, ignore_errors=True)
    DIGESTS_FILE.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(
        "fattree_perm", "websearch_openloop", "fluid_k16"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        load_program()
    except (SetupError, ImportError) as error:
        print(f"perfbench: cannot run: {error}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
