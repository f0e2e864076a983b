"""Tests for the fluid backend package (repro.fluid) and the integrator
fixes in repro.core.fluid it depends on: exact step counts, final-state
sampling, tail-fraction validation, Eq. 2/3 equilibrium properties, the
reference/vector solver equivalence, fat-tree paths by index, and
the runner/telemetry backend plumbing."""

import dataclasses
import math

import pytest

from repro.core import fluid, utility
from repro.fluid import (
    FluidScenario,
    integrate_model,
    model_from_network,
    run_fluid,
    vector_available,
)
from repro.fluid.backend import _flow_paths, _permutation_pairs, _simulate
from repro.fluid.laws import FLUID_SCHEMES
from repro.net.network import Network
from repro.net.routing import MAX_PATHS, DistinctPathSelector
from repro.sim.random import RandomStreams
from repro.sim.units import seconds
from repro.topology.bottleneck import build_single_bottleneck
from repro.topology.fattree import build_fattree


# ----------------------------------------------------------------------
# Satellite 1: float-truncated step counts
# ----------------------------------------------------------------------


class TestStepCount:
    def test_exact_multiple_not_truncated(self):
        # The original bug: int(0.3 / 1e-4) == 2999 silently shortens
        # the horizon by one step.
        assert int(0.3 / 1e-4) == 2999
        assert fluid.step_count(0.3, 1e-4) == 3000

    @pytest.mark.parametrize(
        "duration, dt, expected",
        [
            (0.2, 2e-5, 10000),
            (0.1, 1e-4, 1000),
            (1.0, 1e-3, 1000),
            (0.3, 1e-4, 3000),
            (3e-4, 1e-4, 3),
        ],
    )
    def test_near_multiples(self, duration, dt, expected):
        assert fluid.step_count(duration, dt) == expected

    def test_at_least_one_step(self):
        assert fluid.step_count(1e-6, 1e-4) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            fluid.step_count(0.0, 1e-4)
        with pytest.raises(ValueError):
            fluid.step_count(0.1, 0.0)
        with pytest.raises(ValueError):
            fluid.step_count(-0.1, 1e-4)

    def test_single_flow_integrator_full_horizon(self):
        # duration/dt = 0.3/1e-4: the truncating form would return 2999
        # samples; the fixed integrator covers all 3000 steps.
        trajectory = fluid.integrate_single_flow(
            lambda t: 0.0, duration=0.3, dt=1e-4
        )
        assert len(trajectory) == 3000


# ----------------------------------------------------------------------
# Satellite 2: sampling stride always records the final state
# ----------------------------------------------------------------------


class TestSampling:
    def test_final_state_recorded_when_stride_misses(self):
        # 30 steps, stride 16 -> raw strides hit i=0 and 16 only; the
        # final step (i=29) must be recorded anyway.
        dt = 1e-4
        result = fluid.integrate_shared_link(
            num_flows=1, capacity_bps=1e9, base_rtt=225e-6,
            threshold=10, duration=30 * dt, dt=dt, sample_stride=16,
        )
        assert result.times == pytest.approx([0.0, 16 * dt, 29 * dt])

    def test_stride_one_samples_every_step(self):
        result = fluid.integrate_shared_link(
            num_flows=1, capacity_bps=1e9, base_rtt=225e-6,
            threshold=10, duration=0.001, dt=1e-4, sample_stride=1,
        )
        assert len(result.times) == 10

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            fluid.integrate_shared_link(
                num_flows=1, capacity_bps=1e9, base_rtt=225e-6,
                threshold=10, duration=0.001, sample_stride=0,
            )

    def test_default_stride_is_named_constant(self):
        assert fluid.SAMPLE_STRIDE == 16

    def test_trajectory_final_state_recorded(self):
        net = build_single_bottleneck(num_pairs=1)
        model = model_from_network(net, [[net.flow_path(0)]])
        dt = 1e-4
        trajectory = integrate_model(
            model, "xmp", duration=30 * dt, dt=dt, sample_stride=16
        )
        assert trajectory.times[-1] == pytest.approx(29 * dt)
        assert trajectory.steps == 30


# ----------------------------------------------------------------------
# Satellite 3: tail_fraction validation
# ----------------------------------------------------------------------


class TestTailFraction:
    def _result(self):
        return fluid.integrate_shared_link(
            num_flows=2, capacity_bps=1e9, base_rtt=225e-6,
            threshold=10, duration=0.01,
        )

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, 2.0])
    def test_out_of_range_raises(self, bad):
        result = self._result()
        with pytest.raises(ValueError):
            result.steady_state_windows(tail_fraction=bad)
        with pytest.raises(ValueError):
            result.steady_state_queue(tail_fraction=bad)
        with pytest.raises(ValueError):
            fluid.tail_mean([1.0, 2.0], tail_fraction=bad)

    def test_full_fraction_is_plain_mean(self):
        assert fluid.tail_mean([1.0, 2.0, 3.0], 1.0) == pytest.approx(2.0)

    def test_tiny_fraction_keeps_final_sample(self):
        assert fluid.tail_mean([1.0, 2.0, 3.0], 1e-9) == pytest.approx(3.0)

    def test_empty_series_raises(self):
        with pytest.raises(ValueError):
            fluid.tail_mean([], 0.3)

    def test_single_sample(self):
        assert fluid.tail_mean([7.0], 0.3) == pytest.approx(7.0)


# ----------------------------------------------------------------------
# Satellite 4: equilibrium property tests (Eq. 3, conservation)
# ----------------------------------------------------------------------


class TestEquilibriumProperties:
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [2.0, 4.0, 8.0])
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5])
    def test_eq3_fixed_point_grid(self, delta, beta, p):
        """Eq. 2 converges to w* = delta*beta*(1-p)/p across the knob grid."""
        expected = utility.equilibrium_window(p, delta, beta)
        trajectory = fluid.integrate_single_flow(
            lambda t: p, duration=0.4, dt=2e-5, beta=beta, delta=delta
        )
        assert trajectory[-1] == pytest.approx(max(expected, 1.0), rel=0.03)

    @pytest.mark.parametrize("num_flows", [1, 2, 4, 8])
    def test_aggregate_rate_matches_capacity(self, num_flows):
        """Conservation: N flows sharing one link fill it, never exceed it
        beyond integration tolerance."""
        capacity = 1e9
        base_rtt = 225e-6
        result = fluid.integrate_shared_link(
            num_flows=num_flows, capacity_bps=capacity, base_rtt=base_rtt,
            threshold=10, duration=0.3,
        )
        capacity_pps = capacity / fluid.PACKET_BITS
        rtt = base_rtt + result.steady_state_queue() / capacity_pps
        total_pps = sum(result.steady_state_windows()) / rtt
        assert total_pps == pytest.approx(capacity_pps, rel=0.05)

    @pytest.mark.parametrize("scheme", FLUID_SCHEMES)
    def test_backend_aggregate_matches_capacity(self, scheme):
        """Same conservation through the full backend, for every scheme."""
        scenario = FluidScenario(
            scheme=scheme, topology="bottleneck", flows=4,
            duration=seconds(0.2),
        )
        result = _simulate(scenario)
        total = sum(result.flow_goodputs_bps())
        assert total == pytest.approx(1e9, rel=0.05)

    def test_equal_flows_get_equal_goodput(self):
        result = _simulate(FluidScenario(flows=4, duration=seconds(0.2)))
        goodputs = result.flow_goodputs_bps()
        assert max(goodputs) - min(goodputs) < 0.02 * max(goodputs)


# ----------------------------------------------------------------------
# Tentpole: the fluid backend proper
# ----------------------------------------------------------------------


class TestFluidBackend:
    def test_queue_settles_near_threshold(self):
        result = _simulate(FluidScenario(flows=4, duration=seconds(0.2)))
        queue = result.steady_state_queue("SWL->SWR")
        assert 5 < queue < 15

    def test_unknown_link_raises(self):
        result = _simulate(FluidScenario(flows=1, duration=seconds(0.01)))
        with pytest.raises(KeyError):
            result.steady_state_queue("nope->nowhere")

    def test_events_counts_state_updates(self):
        scenario = FluidScenario(flows=2, duration=seconds(0.01))
        result = _simulate(scenario)
        steps = fluid.step_count(scenario.duration, scenario.dt)
        # 2 flows x 1 subflow + bottleneck topology links.
        expected = steps * (2 + result.num_links)
        assert result.events == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            _simulate(FluidScenario(scheme="cubic"))
        with pytest.raises(ValueError):
            _simulate(FluidScenario(topology="torus"))
        with pytest.raises(ValueError):
            _simulate(FluidScenario(flows=0))
        with pytest.raises(ValueError):
            _simulate(FluidScenario(subflows=0))

    @pytest.mark.parametrize("field, value", [
        ("scheme", "cubic"),
        ("topology", "torus"),
        ("solver", "magic"),
        ("flows", 0),
        ("subflows", 0),
        ("duration", 0.0),
        ("duration", math.inf),
        ("dt", -2e-5),
        ("dt", math.nan),
        ("link_rate_bps", 0.0),
        ("link_rate_bps", math.inf),
        ("base_rtt", -1e-6),
        ("base_rtt", math.nan),
        ("w0", 0.0),
        ("w0", math.inf),
        ("beta", 1.0),
        ("beta", math.nan),
        ("sample_stride", 0),
        ("marking_threshold", -1),
        ("queue_capacity", 0),
    ])
    def test_invalid_field_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            FluidScenario(**{field: value})

    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_fattree_k_rejected_at_construction(self, k):
        with pytest.raises(ValueError, match="k must be"):
            FluidScenario(topology="fattree", k=k)
        # k only describes the fat tree; the dumbbell ignores it.
        FluidScenario(topology="bottleneck", k=k)

    def test_valid_edges_accepted(self):
        FluidScenario(beta=1.0001, marking_threshold=0, queue_capacity=1,
                      sample_stride=1, topology="fattree", k=2)
        with pytest.raises(ValueError, match="beta"):
            dataclasses.replace(FluidScenario(), beta=0.5)

    def test_label(self):
        assert FluidScenario().label() == "XMP/bottleneck-f4"
        assert (
            FluidScenario(scheme="lia", topology="fattree",
                          flows=16, subflows=2).label()
            == "LIA-2/fattree-f16"
        )

    def test_runs_through_runner_and_cache(self):
        from repro.runner import RunCache

        cache = RunCache()
        scenario = FluidScenario(flows=2, duration=seconds(0.01))
        first = run_fluid(scenario, cache=cache)
        second = run_fluid(scenario, cache=cache)
        assert first.steady_state_windows() == second.steady_state_windows()

    def test_fattree_scenario_subflows_spread_paths(self):
        result = _simulate(FluidScenario(
            topology="fattree", flows=16, subflows=2,
            duration=seconds(0.02),
        ))
        assert len(result.flow_of_subflow) == 32
        assert result.num_flows == 16

    def test_deterministic_across_seeded_runs(self):
        scenario = FluidScenario(
            topology="fattree", flows=8, subflows=2,
            duration=seconds(0.01), seed=7,
        )
        a = _simulate(scenario)
        b = _simulate(scenario)
        assert a.trajectory.windows == b.trajectory.windows
        assert a.trajectory.queues == b.trajectory.queues


# ----------------------------------------------------------------------
# Reference vs vector solver equivalence
# ----------------------------------------------------------------------


@pytest.mark.skipif(not vector_available(), reason="numpy not installed")
class TestSolverEquivalence:
    @staticmethod
    def assert_solvers_agree(base):
        ref = _simulate(base)
        vec = _simulate(dataclasses.replace(base, solver="vector"))
        for r_series, v_series in zip(
            ref.trajectory.windows + ref.trajectory.rates,
            vec.trajectory.windows + vec.trajectory.rates,
        ):
            for r, v in zip(r_series, v_series):
                assert math.isclose(r, v, rel_tol=1e-9)
        for r_series, v_series in zip(
            ref.trajectory.queues, vec.trajectory.queues
        ):
            for r, v in zip(r_series, v_series):
                assert math.isclose(r, v, rel_tol=1e-9, abs_tol=1e-9)

    @pytest.mark.parametrize("scheme", FLUID_SCHEMES)
    def test_solvers_agree(self, scheme):
        """The numpy solver is a vectorization, not a reinterpretation:
        trajectories match the pure-Python reference to float tolerance."""
        self.assert_solvers_agree(FluidScenario(
            scheme=scheme, topology="fattree", flows=8, subflows=2,
            duration=seconds(0.01),
        ))

    @pytest.mark.parametrize("scheme", FLUID_SCHEMES)
    @pytest.mark.parametrize("topology, subflows", [
        ("fattree", 1), ("fattree", 3),
        ("bottleneck", 1), ("bottleneck", 2), ("bottleneck", 3),
    ])
    def test_solvers_agree_across_layouts(self, topology, subflows, scheme):
        """One to three subflows per flow, on both topologies: from three
        subflows on, per-flow sums have more than one rounding."""
        self.assert_solvers_agree(FluidScenario(
            scheme=scheme, topology=topology, flows=8, subflows=subflows,
            duration=seconds(0.01),
        ))

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            _simulate(FluidScenario(solver="magic"))


# ----------------------------------------------------------------------
# Combinatorial fat-tree paths == generic BFS enumeration
# ----------------------------------------------------------------------


class TestFatTreePathConstruction:
    def test_identical_to_generic_enumeration_k4(self):
        """Paths by index must reproduce the generic DFS enumeration
        exactly — order included — or ECMP selections (and every golden
        trace) would silently change."""
        net = build_fattree(k=4)
        hosts = net.host_names
        for src in hosts:
            for dst in hosts:
                if src == dst:
                    continue
                generic = Network.paths(net, src, dst, 64)
                by_index = [
                    net.path(src, dst, i)
                    for i in range(net.path_count(src, dst))
                ]
                assert by_index == generic, (src, dst)
                assert net.paths(src, dst, 64) == generic, (src, dst)

    def test_truncation_matches_generic(self):
        net = build_fattree(k=8)
        src, dst = "h_0_0_0", "h_1_0_0"
        constructed = net.paths(src, dst, 5)
        generic = Network.paths(net, src, dst, 5)
        assert len(constructed) == 5
        assert constructed == generic

    def test_path_counts(self):
        net = build_fattree(k=4)
        assert len(net.paths("h_0_0_0", "h_0_0_1")) == 1   # inner-rack
        assert len(net.paths("h_0_0_0", "h_0_1_0")) == 2   # inter-rack
        assert len(net.paths("h_0_0_0", "h_1_0_0")) == 4   # inter-pod
        assert net.paths("h_0_0_0", "h_0_0_0") == [()]
        assert net.path_count("h_0_0_0", "h_0_0_1") == 1
        assert net.path_count("h_0_0_0", "h_0_1_0") == 2
        assert net.path_count("h_0_0_0", "h_1_0_0") == 4
        assert build_fattree(k=16).path_count("h_0_0_0", "h_1_0_0") == 64

    def test_path_index_out_of_range(self):
        net = build_fattree(k=4)
        for i in (-1, 4):
            with pytest.raises(IndexError):
                net.path("h_0_0_0", "h_1_0_0", i)
        with pytest.raises(IndexError):
            net.path("h_0_0_0", "h_0_0_1", 1)

    def test_switch_pairs_fall_back_to_generic(self):
        net = build_fattree(k=4)
        # Switch endpoints are not in the link tables, so the by-index
        # methods decline them and paths() defers to Network.paths,
        # which (like every Network) serves host endpoints only.
        with pytest.raises(KeyError):
            net.path_count("edge_0_0", "edge_0_1")
        with pytest.raises(KeyError):
            net.path("edge_0_0", "edge_0_1", 0)
        with pytest.raises(KeyError):
            net.paths("edge_0_0", "edge_0_1")
        # A host added after build_fattree takes the generic BFS too.
        extra = net.add_host("extra")
        net.connect(extra, net.switch("edge_0_0"), 1e9, 20e-6)
        paths = net.paths("extra", "h_1_0_0")
        assert len(paths) == 4
        assert paths == Network.paths(net, "extra", "h_1_0_0")

    @pytest.mark.parametrize("subflows", [2, 3])
    @pytest.mark.parametrize("k, flows", [(8, 512), (18, 64)])
    def test_flow_paths_match_selecting_from_full_lists(
        self, k, flows, subflows
    ):
        """Choosing indices then building those paths hands the fluid
        model the same Link objects as selecting from net.paths().  At
        k=18 an inter-pod pair has 81 paths, more than the MAX_PATHS cap
        net.paths() applies, so the index draw must be capped the same."""
        scenario = FluidScenario(
            topology="fattree", k=k, flows=flows, subflows=subflows, seed=3
        )
        net, flow_paths = _flow_paths(scenario)
        streams = RandomStreams(scenario.seed)
        pairs = _permutation_pairs(
            net.host_names, scenario.flows, streams.stream("fluid-perm")
        )
        if k == 18:
            assert max(net.path_count(s, d) for s, d in pairs) > MAX_PATHS
        selector = DistinctPathSelector(streams.stream("fluid-paths"))
        assert len(flow_paths) == len(pairs) == flows
        for flow, (src, dst) in enumerate(pairs):
            expected = selector.select(net.paths(src, dst), flow, subflows)
            got = flow_paths[flow]
            assert len(got) == len(expected) == subflows
            for got_path, expected_path in zip(got, expected):
                assert len(got_path) == len(expected_path)
                assert all(
                    a is b for a, b in zip(got_path, expected_path)
                ), (flow, src, dst)


# ----------------------------------------------------------------------
# Runner + telemetry backend plumbing
# ----------------------------------------------------------------------


class TestBackendPlumbing:
    def test_backend_of(self):
        from repro.runner.registry import (
            BACKEND_FLUID,
            BACKEND_PACKET,
            backend_of,
        )

        assert backend_of("fluid") == BACKEND_FLUID
        assert backend_of("fattree") == BACKEND_PACKET
        assert backend_of("fig1") == BACKEND_PACKET
        with pytest.raises(KeyError):
            backend_of("nope")

    def test_run_record_carries_backend(self):
        from repro.obs.records import TELEMETRY_SCHEMA, run_record
        from repro.runner.registry import execute
        from repro.runner.spec import RunSpec

        result = execute(RunSpec(
            "fluid", FluidScenario(flows=1, duration=seconds(0.005))
        ))
        record = run_record(result)
        assert record["schema"] == TELEMETRY_SCHEMA
        assert record["backend"] == "fluid"
        assert record["kind"] == "fluid"
        assert record["events"] == result.value.events

    def test_run_record_unknown_kind_defaults_to_packet(self):
        from repro.obs.records import run_record
        from repro.runner.spec import CellMetrics, RunResult, RunSpec

        result = RunResult(
            spec=RunSpec("unregistered-kind", FluidScenario(flows=1)),
            value=None,
            metrics=CellMetrics(),
        )
        assert run_record(result)["backend"] == "packet"

    def test_backend_in_deterministic_view(self):
        from repro.obs.records import deterministic_view, run_record
        from repro.runner.registry import execute
        from repro.runner.spec import RunSpec

        result = execute(RunSpec(
            "fluid", FluidScenario(flows=1, duration=seconds(0.005))
        ))
        view = deterministic_view(run_record(result))
        assert view["backend"] == "fluid"
