"""Canonical small scenarios for the golden-trace harness.

Each scenario is a self-contained, deterministic simulation small enough
to run in well under a second yet broad enough to pin down one slice of
the mechanism stack:

* ``bottleneck-xmp`` — two XMP flows (one 2-subflow, one single-path)
  sharing one ECN bottleneck: exercises BOS (Alg. 1), TraSh coupling
  (Eq. 9) and the XMP echo discipline end to end;
* ``bottleneck-mixed`` — DCTCP, classic-ECN Reno and plain TCP sharing a
  bottleneck: exercises every echo mode and the AQM marking rule under
  scheme coexistence;
* ``fattree-xmp-permutation`` — a short k=4 fat-tree permutation cell:
  multipath routing, many queues, the full experiment pipeline;
* ``fattree-incast`` — the incast workload: small TCP jobs over XMP
  background traffic, RTO-dominated dynamics;
* ``workload-websearch`` — one open-loop websearch cell at load 0.4:
  the empirical size sampler, Poisson arrivals, the flow-lifecycle seam
  and the FCT/queue-depth reducers (``repro.workloads`` end to end);
* ``incast-fanin8`` — one partition-aggregate fan-in-8 cell: request
  fan-out, scheme-under-test responses, JCT and collapse-ratio
  accounting.

Every scenario runs with a fresh :class:`~repro.validate.invariants.Validator`
active, so golden runs double as invariant runs: a scenario whose digest
matches but whose invariants fire still fails.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.validate.golden import (
    digest_bottleneck_run,
    digest_fattree,
    digest_incast_sweep,
    digest_workload,
)
from repro.validate.invariants import Validator, validating

ScenarioFn = Callable[..., Dict[str, Any]]


def _bottleneck_xmp(beta: float = 4.0, marking_threshold: int = 10) -> Dict[str, Any]:
    from repro.mptcp.connection import MptcpConnection
    from repro.topology.bottleneck import build_single_bottleneck

    net = build_single_bottleneck(
        num_pairs=2, marking_threshold=marking_threshold
    )
    path0 = net.flow_path(0)
    conns = [
        # Two subflows over the same bottleneck: the coupling must keep the
        # 2-subflow flow from taking two shares (the paper's Fig. 3(b) point).
        MptcpConnection(net, "S0", "D0", [path0, path0], scheme="xmp",
                        size_bytes=600_000, beta=beta),
        MptcpConnection(net, "S1", "D1", [net.flow_path(1)], scheme="xmp",
                        size_bytes=400_000, beta=beta),
    ]
    for conn in conns:
        conn.start()
    net.sim.run(until=0.4)
    return digest_bottleneck_run(net, conns)


def _bottleneck_mixed(marking_threshold: int = 10) -> Dict[str, Any]:
    from repro.mptcp.connection import MptcpConnection
    from repro.topology.bottleneck import build_single_bottleneck

    net = build_single_bottleneck(
        num_pairs=3, marking_threshold=marking_threshold
    )
    conns = [
        MptcpConnection(net, "S0", "D0", [net.flow_path(0)], scheme="dctcp",
                        size_bytes=500_000),
        MptcpConnection(net, "S1", "D1", [net.flow_path(1)], scheme="reno-ecn",
                        size_bytes=400_000),
        MptcpConnection(net, "S2", "D2", [net.flow_path(2)], scheme="tcp",
                        size_bytes=300_000),
    ]
    for conn in conns:
        conn.start()
    net.sim.run(until=0.4)
    return digest_bottleneck_run(net, conns)


def _fattree(pattern: str, beta: float = 4.0, duration: float = 0.02) -> Dict[str, Any]:
    from repro.experiments.fattree_eval import FatTreeScenario, _simulate

    scenario = FatTreeScenario(
        pattern=pattern, duration=duration, k=4, seed=1, beta=beta
    )
    return digest_fattree(_simulate(scenario))


def _workload_websearch(load: float = 0.4, duration: float = 0.02) -> Dict[str, Any]:
    from repro.experiments.workload_matrix import (
        WorkloadScenario,
        _simulate_workload,
    )

    scenario = WorkloadScenario(
        scheme="xmp", subflows=2, workload="websearch", load=load,
        duration=duration, k=4, seed=1,
    )
    return digest_workload(_simulate_workload(scenario))


def _incast_fanin(fan_in: int = 8, duration: float = 0.02) -> Dict[str, Any]:
    from repro.experiments.workload_matrix import (
        IncastSweepScenario,
        _simulate_incast,
    )

    scenario = IncastSweepScenario(
        scheme="xmp", subflows=2, fan_in=fan_in, duration=duration, k=4, seed=1
    )
    return digest_incast_sweep(_simulate_incast(scenario))


#: Name -> zero-argument scenario function.  Ordered; names are the
#: golden file names under ``src/repro/validate/goldens/``.
SCENARIOS: Dict[str, ScenarioFn] = {
    "bottleneck-xmp": _bottleneck_xmp,
    "bottleneck-mixed": _bottleneck_mixed,
    "fattree-xmp-permutation": lambda: _fattree("permutation"),
    "fattree-incast": lambda: _fattree("incast"),
    "workload-websearch": _workload_websearch,
    "incast-fanin8": _incast_fanin,
}

#: Builders tests use to perturb one constant and assert the digest moves.
PERTURBABLE: Dict[str, ScenarioFn] = {
    "bottleneck-xmp": _bottleneck_xmp,
    "fattree-xmp-permutation": lambda **kw: _fattree("permutation", **kw),
    "workload-websearch": _workload_websearch,
    "incast-fanin8": _incast_fanin,
}


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def run_scenario(name: str, **overrides: Any) -> Tuple[Dict[str, Any], Validator]:
    """Run one canonical scenario under a fresh validator.

    Returns the digest and the (finished) validator; the caller decides
    whether violations are fatal.  ``overrides`` perturb scenario
    constants (tests use ``beta=...`` to prove the harness trips).
    """
    if overrides:
        try:
            fn = PERTURBABLE[name]
        except KeyError:
            raise KeyError(f"scenario {name!r} takes no overrides") from None
    else:
        try:
            fn = SCENARIOS[name]
        except KeyError:
            known = ", ".join(SCENARIOS)
            raise KeyError(f"unknown scenario {name!r} (known: {known})") from None
    with validating(raise_on_violation=False) as validator:
        digest = fn(**overrides)
    return digest, validator


def run_golden_suite(
    names: Any = None, bless: bool = False, directory: Any = None
) -> Tuple[str, bool]:
    """Run scenarios, compare (or bless) goldens, enforce invariants.

    Returns a report string and an overall pass flag.  Used by the CLI's
    ``validate`` subcommand and by the invariants test suite.
    """
    from repro.validate.golden import check_digest, format_diff

    lines: List[str] = []
    ok = True
    for name in names if names else scenario_names():
        digest, validator = run_scenario(name)
        status: List[str] = []
        details: List[str] = []
        if validator.violations:
            ok = False
            status.append(f"{len(validator.violations)} invariant violations")
            details.append(validator.report())
        differences = check_digest(name, digest, bless=bless, directory=directory)
        if differences:
            if bless:
                status.append(f"blessed ({len(differences)} fields changed)")
            else:
                ok = False
                status.append("digest mismatch")
                details.append(format_diff(name, differences))
        elif bless:
            status.append("blessed")
        if not status:
            status.append("ok")
        lines.append(f"{name:<28} {', '.join(status)}  [{validator.summary()}]")
        lines.extend(details)
    return "\n".join(lines), ok


__all__ = [
    "SCENARIOS",
    "PERTURBABLE",
    "scenario_names",
    "run_scenario",
    "run_golden_suite",
]
