"""The fluid backend's row-major trajectories, pinned bit for bit.

Both solvers record one state row per sample; the per-series views and
the steady-state means are derived from those rows.  The digests below
were recorded before the trajectory store, the vector solver's per-flow
reductions and the path draw were rewritten, so any change to a single
bit of a trajectory or of a steady-state mean fails here.  The vector
digests are the same under numpy's AVX2 and AVX-512 dispatch.
"""

import hashlib
import math
import operator
from functools import reduce

import pytest

from repro.core.fluid import tail_mean
from repro.fluid import (
    FluidScenario,
    integrate_model,
    model_from_network,
    vector_available,
)
from repro.fluid.backend import _simulate
from repro.fluid.solver import FluidTrajectory
from repro.sim.units import seconds
from repro.topology.fattree import build_fattree

SOLVERS = [
    "reference",
    pytest.param(
        "vector",
        marks=pytest.mark.skipif(
            not vector_available(), reason="numpy not installed"
        ),
    ),
]

#: SHA-256 of ``repr`` of each output of a k=4 fat-tree cell (16 flows,
#: 2 subflows, 0.01 s, seed 1).  ``steady`` covers the three
#: ``steady_state_*`` means at tail fractions 0.3, 0.5, 1.0 and 0.1;
#: ``result`` the per-flow goodputs, the largest steady-state queue and
#: the busiest link's ``steady_state_queue``.  Every pinned value is
#: summed left to right, so the pins hold on every Python version
#: (3.12's compensated ``sum``, as in ``mean_goodput_bps``, is left out).
PINS = {
    ("xmp", "reference"): {
        "times": "adf221b29b8daa8355f672f16156384ccad38dd3f5a7de9870777e45efe62917",
        "windows": "c881df1c72c543e20d249682e199fdfc178b1ed6c1cf56271553507cb6745c8d",
        "rates": "c6de094dbc3e6bbb98792fd15a00117c937226fafd60da4ebf8deaa4761f716f",
        "queues": "520008b33d4e631dd3d033e548e178ebfa78dcb68366f2cd5af621c122b9b655",
        "steady": "872b0832b7055798549df56e152c7da2e6cef018c76c52f01399ee06113546c1",
        "result": "8d25af12f1650b278e3db588aa72c9cbc8f2935a4e29545c0826a6dd0e9f7034",
    },
    ("xmp", "vector"): {
        "times": "adf221b29b8daa8355f672f16156384ccad38dd3f5a7de9870777e45efe62917",
        "windows": "d1bd13590f8530df5f7e47ffb811ffc2e63a5865f9207b38512cdfaecd0072b1",
        "rates": "bb20a25126dcef0fa7ade3ea3b8d1321f960ee1056fec3d51e987ec4f3375789",
        "queues": "0cb6a64685a4c47cf1293aa9db54a7c0f9915722bfeef027ef7d9e3a6753299b",
        "steady": "6b4e7cd46de24dab023c4a7af38652f1d6981b4d34433f68dd0d7b4cbfd609bc",
        "result": "8d25af12f1650b278e3db588aa72c9cbc8f2935a4e29545c0826a6dd0e9f7034",
    },
    ("lia", "reference"): {
        "times": "adf221b29b8daa8355f672f16156384ccad38dd3f5a7de9870777e45efe62917",
        "windows": "f1408b0477ac1ef92089c30512ef7eda9334ea439772bd8ffa520571eebb2ade",
        "rates": "77e448489a923e5b371386811442952a165cdedb5d2193f0fa29236bd98956af",
        "queues": "53e75e102786943021fb7c36b73fe6e5bab071f26bcd788fc6d02ca0039fd564",
        "steady": "5cfec609989c44bf9ce77bc72991edca2e6de5f93d4767614ecaceec476e18c5",
        "result": "4da41367a02ccb3c685b920e36fc8435c92fe8f098c0c321e4d6b1b1b9ca6fee",
    },
    ("lia", "vector"): {
        "times": "adf221b29b8daa8355f672f16156384ccad38dd3f5a7de9870777e45efe62917",
        "windows": "f1408b0477ac1ef92089c30512ef7eda9334ea439772bd8ffa520571eebb2ade",
        "rates": "29b78eb649320006783c2cc710aa25e063960f7a85a47375ed279a97cfb1acb0",
        "queues": "0c8526dc66b3b0b2c163a6e20020513025459c8362c8bb6f3046c6501b0b25d6",
        "steady": "5cfec609989c44bf9ce77bc72991edca2e6de5f93d4767614ecaceec476e18c5",
        "result": "4da41367a02ccb3c685b920e36fc8435c92fe8f098c0c321e4d6b1b1b9ca6fee",
    },
}


def sha256(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def pin_cell(scheme: str, solver: str):
    return _simulate(FluidScenario(
        scheme=scheme, topology="fattree", k=4, flows=16, subflows=2,
        duration=seconds(0.01), solver=solver, seed=1,
    ))


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("scheme", ["xmp", "lia"])
def test_trajectory_pins(scheme, solver):
    result = pin_cell(scheme, solver)
    t = result.trajectory
    queues = t.steady_state_queues()
    busiest = max(range(len(t.link_names)), key=queues.__getitem__)
    observed = {
        "times": sha256(t.times),
        "windows": sha256(t.windows),
        "rates": sha256(t.rates),
        "queues": sha256(t.queues),
        "steady": sha256((
            t.steady_state_windows(), t.steady_state_rates(), queues,
            t.steady_state_windows(0.5), t.steady_state_rates(1.0),
            t.steady_state_queues(0.1),
        )),
        "result": sha256((
            result.flow_goodputs_bps(), result.max_steady_state_queue(),
            result.steady_state_queue(t.link_names[busiest]),
        )),
    }
    assert observed == PINS[(scheme, solver)]


class TestRowStore:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_views_transpose_rows(self, solver):
        t = pin_cell("xmp", solver).trajectory
        samples = len(t.times)
        assert len(t.window_rows) == len(t.rate_rows) == len(t.queue_rows) == samples
        windows, rates, queues = t.windows, t.rates, t.queues
        assert len(windows) == len(rates) == len(t.window_rows[0]) == 32
        assert len(queues) == len(t.link_names)
        for series in (*windows, *rates, *queues):
            assert type(series) is list and len(series) == samples
            assert all(type(v) is float for v in series)
        assert windows[5][3] == t.window_rows[3][5]
        assert queues[7][-1] == t.queue_rows[-1][7]
        # A view is a fresh copy: editing it leaves the rows alone.
        rates[0][0] = -1.0
        assert t.rate_rows[0][0] != -1.0

    @pytest.mark.parametrize("tail_fraction", [0.1, 0.3, 0.5, 1.0])
    def test_steady_state_matches_tail_mean(self, tail_fraction):
        t = pin_cell("lia", "reference").trajectory
        n = len(t.times)
        start = min(int(n * (1.0 - tail_fraction)), n - 1)
        for means, series in (
            (t.steady_state_windows(tail_fraction), t.windows),
            (t.steady_state_rates(tail_fraction), t.rates),
            (t.steady_state_queues(tail_fraction), t.queues),
        ):
            assert means == [tail_mean(s, tail_fraction) for s in series]
            # The same tail, summed left to right by hand.
            assert means == [
                reduce(operator.add, s[start:], 0) / (len(s) - start)
                for s in series
            ]

    def test_fold_is_sequential(self):
        # 0.1 + 0.2 + 0.3 left to right is 0.6000000000000001; a
        # compensated sum would give 0.6.
        t = FluidTrajectory(times=[0.0, 1.0, 2.0],
                            queue_rows=[[0.1], [0.2], [0.3]])
        assert t.steady_state_queues(1.0) == [((0.1 + 0.2) + 0.3) / 3]
        assert tail_mean([0.1, 0.2, 0.3], 1.0) == ((0.1 + 0.2) + 0.3) / 3

    def test_no_rows_no_means(self):
        assert FluidTrajectory().steady_state_rates() == []

    def test_tail_fraction_validated(self):
        t = pin_cell("xmp", "reference").trajectory
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                t.steady_state_rates(bad)


@pytest.mark.skipif(not vector_available(), reason="numpy not installed")
def test_ragged_flows_match_reference():
    """Flows with 1, 2 and 3 subflows and paths of 1 to 6 hops in one
    model: the vector solver pads short flows and short paths with each
    operation's identity and agrees with the reference loop."""
    net = build_fattree(k=4)
    pairs = [("h_0_0_0", "h_1_0_0"), ("h_0_1_0", "h_0_0_1"),
             ("h_1_1_0", "h_3_0_1"), ("h_2_0_0", "h_2_0_1")]
    counts = [3, 1, 2, 1]
    flow_paths = [
        net.paths(src, dst)[:count] if count <= net.path_count(src, dst)
        else [net.path(src, dst, 0)] * count
        for (src, dst), count in zip(pairs, counts)
    ]
    # A one-hop flow: just the access link of h_3_1_1.
    flow_paths.append([net.path("h_3_1_1", "h_0_1_1", 0)[:1]])
    counts.append(1)
    model = model_from_network(net, flow_paths)
    assert [end - start for start, end in model.flow_slices()] == counts
    assert {len(sf.links) for sf in model.subflows} == {1, 2, 4, 6}
    for scheme in ("xmp", "lia"):
        ref = integrate_model(model, scheme, duration=0.01, solver="reference")
        vec = integrate_model(model, scheme, duration=0.01, solver="vector")
        for r_series, v_series in zip(ref.windows + ref.rates, vec.windows + vec.rates):
            for r, v in zip(r_series, v_series):
                assert math.isclose(r, v, rel_tol=1e-9)
        for r_series, v_series in zip(ref.queues, vec.queues):
            for r, v in zip(r_series, v_series):
                assert math.isclose(r, v, rel_tol=1e-9, abs_tol=1e-9)
