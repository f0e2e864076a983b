"""Tests for the campaign runner: spec contract, caching tiers, parallel
determinism, and the registry.

The determinism test is the load-bearing one: ``Campaign(jobs=4)`` must
produce results *equal* to ``jobs=1`` for the same grid — the merge is in
input order and every run function is pure, so parallelism may only
change wall-clock, never output.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.experiments.fattree_eval import FatTreeScenario
from repro.runner import (
    MISS,
    Campaign,
    DiskCache,
    MemoryCache,
    RunCache,
    RunSpec,
    kind_entry,
    registered_kinds,
    run_spec,
    spec_fingerprint,
)
from repro.runner.cache import _stable
from repro.runner.spec import SOURCE_DISK, SOURCE_MEMORY, SOURCE_RUN

#: Small enough that a four-cell grid simulates in a few seconds.
TINY = FatTreeScenario(
    duration=0.03,
    perm_size_min=50_000,
    perm_size_max=150_000,
    random_mean=100_000,
    random_max=300_000,
    seed=7,
)


def tiny_grid():
    """A small fat-tree grid: two schemes x two patterns."""
    return [
        RunSpec("fattree", dataclasses.replace(TINY, scheme=scheme,
                                               subflows=subflows,
                                               pattern=pattern))
        for scheme, subflows in (("dctcp", 1), ("xmp", 2))
        for pattern in ("permutation", "random")
    ]


class TestParallelDeterminism:
    def test_jobs4_equals_jobs1(self):
        specs = tiny_grid()
        serial = Campaign(jobs=1, use_cache=False).run(specs)
        fanned = Campaign(jobs=4, use_cache=False).run(specs)
        assert len(serial) == len(fanned) == len(specs)
        for one, four in zip(serial.results, fanned.results):
            assert one.spec == four.spec
            # FatTreeResult is a plain dataclass: == compares every flow
            # record, RTT sample and utilization reading.
            assert one.value == four.value
            assert one.metrics.events == four.metrics.events
            assert one.metrics.source == SOURCE_RUN


class TestCache:
    def spec(self):
        return RunSpec("fattree", TINY)

    def test_round_trip_through_disk(self, tmp_path):
        disk = DiskCache(tmp_path)
        first = run_spec(self.spec(), cache=RunCache(disk=disk))
        assert first.metrics.source == SOURCE_RUN
        # A fresh memory tier over the same directory: served from disk,
        # equal value (a new unpickled object, not the same one).
        reloaded = run_spec(self.spec(), cache=RunCache(disk=disk))
        assert reloaded.metrics.source == SOURCE_DISK
        assert reloaded.metrics.cached
        assert reloaded.value == first.value
        assert reloaded.value is not first.value

    def test_memory_tier_preserves_identity(self):
        cache = RunCache()
        first = run_spec(self.spec(), cache=cache)
        again = run_spec(self.spec(), cache=cache)
        assert again.metrics.source == SOURCE_MEMORY
        assert again.value is first.value

    def test_corrupted_file_recomputed(self, tmp_path):
        disk = DiskCache(tmp_path)
        first = run_spec(self.spec(), cache=RunCache(disk=disk))
        path = disk.path_for(spec_fingerprint(self.spec()))
        assert path.exists()
        path.write_bytes(b"not a pickle")
        rerun = run_spec(self.spec(), cache=RunCache(disk=disk))
        assert rerun.metrics.source == SOURCE_RUN
        assert rerun.value == first.value
        # The rewrite healed the entry.
        with open(path, "rb") as handle:
            assert pickle.load(handle) == first.value

    def test_truncated_file_recomputed(self, tmp_path):
        disk = DiskCache(tmp_path)
        run_spec(self.spec(), cache=RunCache(disk=disk))
        path = disk.path_for(spec_fingerprint(self.spec()))
        path.write_bytes(path.read_bytes()[:10])
        rerun = run_spec(self.spec(), cache=RunCache(disk=disk))
        assert rerun.metrics.source == SOURCE_RUN

    def test_no_cache_bypasses_everything(self, tmp_path):
        disk = DiskCache(tmp_path)
        cache = RunCache(disk=disk)
        run_spec(self.spec(), cache=cache)
        forced = run_spec(self.spec(), cache=cache, use_cache=False)
        assert forced.metrics.source == SOURCE_RUN
        assert not forced.metrics.cached

    def test_unwritable_directory_is_nonfatal(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache dir should be")
        result = run_spec(self.spec(), cache=RunCache(disk=DiskCache(blocked)))
        assert result.metrics.source == SOURCE_RUN

    def test_memory_cache_is_bounded(self):
        cache = MemoryCache(max_entries=3)
        specs = [RunSpec("fattree", dataclasses.replace(TINY, seed=i))
                 for i in range(5)]
        for i, spec in enumerate(specs):
            cache.put(spec, i)
        assert len(cache) == 3
        assert cache.get(specs[0]) is MISS
        assert cache.get(specs[4]) == 4

    def test_cached_none_is_a_hit_not_a_miss(self, tmp_path):
        """Regression: a legitimately cached ``None`` result must hit.

        The old tiers signalled misses with ``None``, so a spec whose run
        function returned ``None`` was silently re-simulated forever.
        """
        spec = self.spec()
        memory = MemoryCache()
        memory.put(spec, None)
        assert memory.get(spec) is None
        assert memory.get(spec) is not MISS

        disk = DiskCache(tmp_path)
        key = spec_fingerprint(spec)
        disk.put(key, None)
        assert disk.get(key) is None
        assert disk.get(key) is not MISS

        # Through both RunCache tiers: memory first, then disk promote.
        cache = RunCache(memory=memory, disk=disk)
        assert cache.lookup(spec) == (None, SOURCE_MEMORY)
        cache.clear_memory()
        assert cache.lookup(spec) == (None, SOURCE_DISK)
        # The disk hit was promoted back into the memory tier.
        assert cache.lookup(spec) == (None, SOURCE_MEMORY)

    def test_uncached_spec_still_misses(self, tmp_path):
        cache = RunCache(memory=MemoryCache(), disk=DiskCache(tmp_path))
        assert cache.lookup(self.spec()) is None

    def test_mixed_type_dict_keys_fingerprint(self):
        """Regression: sorting raw mixed-type keys raised TypeError."""
        mixed = {1: "a", "b": 2, (3, 4): "c", None: 0, 1.5: "d"}
        stable = _stable(mixed)
        # Insertion order must not matter: keys sort by (type name, repr).
        assert stable == _stable(dict(reversed(list(mixed.items()))))
        # End-to-end: a spec whose config carries such a dict fingerprints.
        fingerprint = spec_fingerprint(RunSpec("fattree", (("opts", mixed),)))
        assert len(fingerprint) == 64

    def test_fingerprint_is_content_addressed(self):
        same = spec_fingerprint(RunSpec("fattree", TINY))
        assert spec_fingerprint(RunSpec("fattree", dataclasses.replace(TINY))) == same
        assert spec_fingerprint(
            RunSpec("fattree", dataclasses.replace(TINY, seed=8))
        ) != same
        assert spec_fingerprint(RunSpec("fig1", TINY)) != same


class TestSchemaBump:
    def test_schema_2_fluid_entry_is_a_miss(self, tmp_path, monkeypatch):
        """A result pickled under the previous schema lives at another
        fingerprint, so it is recomputed rather than served: a schema-2
        fluid trajectory (one list per series, no state rows) would
        unpickle fine and then fail on first use."""
        from repro.fluid import FluidScenario
        from repro.fluid.solver import FluidTrajectory
        from repro.runner import cache as cache_module

        assert cache_module.CACHE_SCHEMA == 3
        spec = RunSpec("fluid", FluidScenario(flows=1, duration=0.001))
        old = FluidTrajectory.__new__(FluidTrajectory)
        old.__dict__.update(
            times=[0.0], windows=[[2.0]], rates=[[8000.0]], queues=[[0.0]],
            link_names=("a->b",), steps=1, dt=2e-5, state_updates=2,
        )
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA", 2)
        old_key = spec_fingerprint(spec)
        monkeypatch.undo()
        disk = DiskCache(tmp_path)
        disk.put(old_key, old)
        with pytest.raises(AttributeError):
            disk.get(old_key).steady_state_windows()

        assert spec_fingerprint(spec) != old_key
        cache = RunCache(disk=disk)
        assert cache.lookup(spec) is None
        result = run_spec(spec, cache=cache)
        assert result.metrics.source == SOURCE_RUN
        assert result.value.trajectory.window_rows


class TestCampaignResult:
    def test_summary_and_cells(self):
        cache = RunCache()
        specs = [RunSpec("fattree", TINY)]
        cold = Campaign(cache=cache).run(specs)
        assert cold.cached_count == 0
        assert cold.total_events > 0
        assert "1 simulated" in cold.summary()
        warm = Campaign(cache=cache).run(specs)
        assert warm.cached_count == 1
        assert "all served from cache" in warm.summary()
        table = warm.format_cells()
        assert "memory" in table
        assert "fattree" in table

    def test_value_for(self):
        spec = RunSpec("fattree", TINY)
        outcome = Campaign(cache=RunCache()).run([spec])
        assert outcome.value_for(spec) is outcome.values[0]
        with pytest.raises(KeyError):
            outcome.value_for(RunSpec("fattree", dataclasses.replace(TINY, seed=9)))


class TestRegistry:
    def test_all_drivers_registered(self):
        assert {"fattree", "fig1", "fig4", "fig6", "fig7"} <= set(registered_kinds())

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="fattree"):
            kind_entry("nonsense")

    def test_entries_resolve(self):
        for name in registered_kinds():
            assert callable(kind_entry(name).resolve())
