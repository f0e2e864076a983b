"""Tests for path enumeration and ECMP/distinct selectors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.network import Network
from repro.net.routing import DistinctPathSelector, EcmpSelector, enumerate_paths
from repro.topology.fattree import build_fattree


def diamond_net():
    """A -> {U, V} -> B : two equal-cost 2-hop paths."""
    net = Network()
    a = net.add_host("A")
    b = net.add_host("B")
    u = net.add_switch("U")
    v = net.add_switch("V")
    for mid in (u, v):
        net.connect(a, mid, 1e9, 1e-6)
        net.connect(mid, b, 1e9, 1e-6)
    return net


class TestEnumeration:
    def test_two_equal_cost_paths(self):
        net = diamond_net()
        paths = net.paths("A", "B")
        assert len(paths) == 2
        assert all(len(path) == 2 for path in paths)

    def test_paths_end_at_destination(self):
        net = diamond_net()
        for path in net.paths("A", "B"):
            assert path[-1].dst is net.host("B")
            assert path[0].src is net.host("A")

    def test_only_shortest_paths_returned(self):
        # Add a longer detour; it must not appear.
        net = diamond_net()
        w = net.add_switch("W")
        net.connect(net.switch("U"), w, 1e9, 1e-6)
        net.connect(w, net.host("B"), 1e9, 1e-6)
        paths = net.paths("A", "B")
        assert len(paths) == 2
        assert all(len(path) == 2 for path in paths)

    def test_no_path_returns_empty(self):
        net = Network()
        net.add_host("A")
        net.add_host("B")
        assert net.paths("A", "B") == []

    def test_self_path_is_empty_tuple(self):
        net = diamond_net()
        paths = enumerate_paths(net.adjacency, net.host("A"), net.host("A"))
        assert paths == [()]

    def test_max_paths_bounds_result(self):
        net = Network()
        a = net.add_host("A")
        b = net.add_host("B")
        for i in range(8):
            mid = net.add_switch(f"M{i}")
            net.connect(a, mid, 1e9, 1e-6)
            net.connect(mid, b, 1e9, 1e-6)
        assert len(net.paths("A", "B", max_paths=3)) == 3
        # Same network: the cache must not hand back the truncated list.
        assert len(net.paths("A", "B")) == 8
        assert len(net.paths("A", "B", max_paths=3)) == 3
        net2 = diamond_net()
        assert len(net2.paths("A", "B", max_paths=64)) == 2
        # The fat tree builds host paths from its link tables and caches
        # them separately; the bound must key that cache too.
        tree = build_fattree(k=4)
        assert len(tree.paths("h_0_0_0", "h_1_0_0", max_paths=2)) == 2
        assert len(tree.paths("h_0_0_0", "h_1_0_0")) == 4
        assert len(tree.paths("h_0_0_0", "h_1_0_0", max_paths=2)) == 2

    def test_paths_are_cached(self):
        net = diamond_net()
        assert net.paths("A", "B") is net.paths("A", "B")


class TestSelectors:
    def test_ecmp_picks_from_given_paths(self):
        net = diamond_net()
        paths = net.paths("A", "B")
        selector = EcmpSelector(random.Random(0))
        for _ in range(20):
            chosen = selector.select(paths, 0, 1)
            assert len(chosen) == 1
            assert chosen[0] in paths

    def test_ecmp_uses_both_paths_across_flows(self):
        net = diamond_net()
        paths = net.paths("A", "B")
        selector = EcmpSelector(random.Random(0))
        seen = {selector.select(paths, flow, 1)[0] for flow in range(50)}
        assert len(seen) == 2

    def test_ecmp_rejects_empty(self):
        with pytest.raises(ValueError):
            EcmpSelector(random.Random(0)).select([], 0, 1)

    def test_distinct_gives_different_paths(self):
        net = diamond_net()
        paths = net.paths("A", "B")
        selector = DistinctPathSelector(random.Random(0))
        chosen = selector.select(paths, 0, 2)
        assert chosen[0] != chosen[1]

    def test_distinct_wraps_when_paths_exhausted(self):
        net = diamond_net()
        paths = net.paths("A", "B")
        selector = DistinctPathSelector(random.Random(0))
        chosen = selector.select(paths, 0, 5)
        assert len(chosen) == 5
        assert set(chosen) == set(paths)

    def test_distinct_single_path_topology(self):
        selector = DistinctPathSelector(random.Random(0))
        fake_path = ("only",)
        chosen = selector.select([fake_path], 0, 3)
        assert chosen == [fake_path] * 3

    @given(n_paths=st.integers(1, 8), n_subflows=st.integers(1, 8), seed=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_distinct_property_no_reuse_until_wrap(self, n_paths, n_subflows, seed):
        paths = [(f"p{i}",) for i in range(n_paths)]
        selector = DistinctPathSelector(random.Random(seed))
        chosen = selector.select(paths, 0, n_subflows)
        head = chosen[: min(n_paths, n_subflows)]
        assert len(set(head)) == len(head)  # distinct until wrap-around


class TestChooseMatchesReference:
    """``choose`` makes exactly the draws the path-list selectors made.

    The references are the selection algorithms as they were written
    over path lists; selecting indices instead must not change a single
    draw, or every seeded run would pick different paths.
    """

    @staticmethod
    def reference_distinct(rng, paths, subflow_count):
        shuffled = list(paths)
        rng.shuffle(shuffled)
        return [shuffled[i % len(shuffled)] for i in range(subflow_count)]

    @staticmethod
    def reference_ecmp(rng, paths, subflow_count):
        return [rng.choice(paths) for _ in range(subflow_count)]

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 64),
           subflow_count=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_selectors_match_reference(self, seed, count, subflow_count):
        paths = [(f"p{i}",) for i in range(count)]
        for cls, reference in (
            (DistinctPathSelector, self.reference_distinct),
            (EcmpSelector, self.reference_ecmp),
        ):
            expected_rng = random.Random(seed)
            expected = reference(expected_rng, paths, subflow_count)

            select_rng = random.Random(seed)
            assert cls(select_rng).select(paths, 0, subflow_count) == expected
            assert select_rng.getstate() == expected_rng.getstate()

            choose_rng = random.Random(seed)
            indices = cls(choose_rng).choose(count, subflow_count)
            assert [paths[i] for i in indices] == expected
            assert choose_rng.getstate() == expected_rng.getstate()

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 63, 64, 65, 81, 128])
    def test_distinct_choose_at_bit_length_edges(self, count):
        """The inlined Fisher-Yates draws ``n.bit_length()`` bits per
        index like ``random.shuffle``; around each power of two the bit
        count and the rejection rate change, so check picks and final
        RNG state there, with fewer, equal and more subflows than paths."""
        paths = list(range(count))
        for seed in range(20):
            for subflow_count in (1, 2, count, count + 1, 2 * count + 3):
                expected_rng = random.Random(seed)
                expected = self.reference_distinct(
                    expected_rng, paths, subflow_count
                )
                choose_rng = random.Random(seed)
                picks = DistinctPathSelector(choose_rng).choose(
                    count, subflow_count
                )
                assert picks == expected
                assert choose_rng.getstate() == expected_rng.getstate()

    def test_choose_rejects_no_paths(self):
        for cls in (DistinctPathSelector, EcmpSelector):
            with pytest.raises(ValueError):
                cls(random.Random(0)).choose(0, 1)
