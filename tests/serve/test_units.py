"""Unit coverage of the serving layer's pieces: admission, traffic, shards.

End-to-end service behaviour (determinism, crash/recovery) lives in
``test_service.py``; this file pins each component's contract in
isolation, where failure messages actually name the broken piece.
"""

import numpy as np
import pytest

from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    TokenBucket,
)
from repro.serve.batcher import Batcher, BatcherConfig
from repro.serve.shards import ShardedHclLog, shard_of_sets, shard_set_range
from repro.serve.store import ShardedKvStore, StoreConfig
from repro.serve.traffic import TrafficConfig, TrafficGenerator
from repro.workloads.base import Mode, make_system


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_rate_limited(self):
        bucket = TokenBucket(rate=10.0, burst=3.0, now=0.0)
        assert all(bucket.try_take(0.0) for _ in range(3))
        assert not bucket.try_take(0.0)
        # 0.1 s at 10/s refills exactly one token.
        assert bucket.try_take(0.1)
        assert not bucket.try_take(0.1)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0, now=0.0)
        assert bucket.try_take(0.0, 2.0)
        assert not bucket.try_take(10.0, 3.0)  # a long idle gap buys burst, not more
        assert bucket.try_take(10.0, 2.0)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestAdmissionController:
    def test_tenant_rate_shedding_is_per_tenant(self):
        ctl = AdmissionController(AdmissionConfig(
            tenant_rate=1000.0, tenant_burst=2.0, max_queue_depth=100))
        assert ctl.offer("a", 0.0) == (True, "")
        assert ctl.offer("a", 0.0) == (True, "")
        assert ctl.offer("a", 0.0) == (False, "tenant-rate")
        # Tenant b's bucket is untouched by a's burst.
        assert ctl.offer("b", 0.0) == (True, "")
        assert ctl.tenant_stats("a").shed_rate == 1
        assert ctl.tenant_stats("b").shed == 0

    def test_queue_full_shedding_and_drain(self):
        ctl = AdmissionController(AdmissionConfig(
            tenant_rate=1e9, tenant_burst=1e9, max_queue_depth=2))
        assert ctl.offer("a", 0.0)[0] and ctl.offer("a", 0.0)[0]
        assert ctl.offer("a", 0.0) == (False, "queue-full")
        assert ctl.tenant_stats("a").shed_queue == 1
        ctl.drained(2)
        assert ctl.queue_depth == 0
        assert ctl.offer("a", 0.0) == (True, "")

    def test_ledger_totals(self):
        ctl = AdmissionController(AdmissionConfig(
            tenant_rate=1000.0, tenant_burst=1.0, max_queue_depth=100))
        for _ in range(4):
            ctl.offer("t", 0.0)
        stats = ctl.tenant_stats("t")
        assert stats.offered == 4
        assert stats.admitted == 1
        assert stats.shed == 3

    def test_overdrain_is_a_bug(self):
        ctl = AdmissionController()
        with pytest.raises(AssertionError):
            ctl.drained(1)


# ---------------------------------------------------------------------------
# batcher configuration
# ---------------------------------------------------------------------------


class TestBatcherConfig:
    """Degenerate triggers are rejected at construction, before any run.

    A ``target_batch`` below one flushes empty windows forever, and a
    non-finite ``linger`` gives a deadline the clock never reaches (or,
    for ``inf``, latency percentiles of NaN).
    """

    def _batcher(self, **cfg):
        store = ShardedKvStore.create(
            Mode.GPM, None, StoreConfig(n_sets=64, ways=8, n_shards=2,
                                        max_batch=64))
        return Batcher(store, AdmissionController(), BatcherConfig(**cfg))

    @pytest.mark.parametrize("target_batch", [0, -4])
    def test_rejects_target_batch_below_one(self, target_batch):
        with pytest.raises(ValueError, match="target_batch"):
            self._batcher(target_batch=target_batch)

    @pytest.mark.parametrize("linger", [float("nan"), float("inf"),
                                        float("-inf")])
    def test_rejects_non_finite_linger(self, linger):
        with pytest.raises(ValueError, match="linger"):
            self._batcher(target_batch=32, linger=linger)

    def test_accepts_smallest_valid_trigger(self):
        batcher = self._batcher(target_batch=1, linger=0.0)
        assert batcher.config.target_batch == 1


# ---------------------------------------------------------------------------
# traffic generation
# ---------------------------------------------------------------------------


class TestTrafficGenerator:
    CFG = dict(tenants=3, rate=300_000.0, duration=5e-4, seed=9)

    def test_deterministic_per_seed(self):
        a = TrafficGenerator(TrafficConfig(**self.CFG)).streams()
        b = TrafficGenerator(TrafficConfig(**self.CFG)).streams()
        assert a == b
        c = TrafficGenerator(TrafficConfig(**{**self.CFG, "seed": 10})).streams()
        assert a != c

    def test_streams_independent_of_tenant_count(self):
        # Tenant i's schedule must not change when more tenants join (the
        # [seed, index] spawn-key property the docstring claims).
        two = TrafficGenerator(TrafficConfig(**{**self.CFG, "tenants": 2}))
        three = TrafficGenerator(TrafficConfig(**self.CFG))
        assert two.stream(1) == three.stream(1)

    def test_open_loop_schedules_sorted_and_bounded(self):
        for stream in TrafficGenerator(TrafficConfig(**self.CFG)).streams():
            arrivals = [r.arrival for r in stream.requests]
            assert arrivals == sorted(arrivals)
            assert all(0 <= a < self.CFG["duration"] for a in arrivals)

    def test_op_mix_and_key_space(self):
        cfg = TrafficConfig(**{**self.CFG, "read_fraction": 0.6,
                               "delete_fraction": 0.1, "key_space": 128})
        reqs = [r for s in TrafficGenerator(cfg).streams() for r in s.requests]
        ops = {r.op for r in reqs}
        assert ops == {"get", "set", "delete"}
        frac_get = sum(r.op == "get" for r in reqs) / len(reqs)
        assert 0.5 < frac_get < 0.7
        assert all(1 <= r.key <= 128 for r in reqs)
        assert all(r.value >= 1 for r in reqs)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            TrafficGenerator(TrafficConfig(tenants=0))
        with pytest.raises(ValueError):
            TrafficGenerator(TrafficConfig(read_fraction=0.9,
                                           delete_fraction=0.2))


# ---------------------------------------------------------------------------
# shard addressing and the on-PM manifest
# ---------------------------------------------------------------------------


class TestShardAddressing:
    def test_contiguous_near_equal_ranges(self):
        n_sets, n_shards = 4096, 4
        shards = shard_of_sets(np.arange(n_sets), n_sets, n_shards)
        assert shards.min() == 0 and shards.max() == n_shards - 1
        # Contiguous: shard ids are non-decreasing over set indices.
        assert np.all(np.diff(shards) >= 0)
        counts = np.bincount(shards)
        assert counts.max() - counts.min() <= 1

    def test_range_helper_agrees_with_map(self):
        n_sets, n_shards = 100, 7  # deliberately non-divisible
        shards = shard_of_sets(np.arange(n_sets), n_sets, n_shards)
        for s in range(n_shards):
            first, last = shard_set_range(s, n_sets, n_shards)
            assert np.all(shards[first:last] == s)
        assert shard_set_range(0, n_sets, n_shards)[0] == 0
        assert shard_set_range(n_shards - 1, n_sets, n_shards)[1] == n_sets

    def test_ranges_partition_and_agree_across_full_grid(self):
        # Property pin over the whole legal (n_sets, n_shards) grid: the
        # per-shard ranges tile [0, n_sets) exactly, and every set index in
        # shard s's range maps back to s through shard_of_sets.
        for n_sets in range(1, 33):
            all_sets = np.arange(n_sets)
            for n_shards in range(1, n_sets + 1):
                shards = shard_of_sets(all_sets, n_sets, n_shards)
                cursor = 0
                for s in range(n_shards):
                    first, last = shard_set_range(s, n_sets, n_shards)
                    assert first == cursor, (n_sets, n_shards, s)
                    assert last > first, (n_sets, n_shards, s)
                    assert np.all(shards[first:last] == s), (n_sets, n_shards, s)
                    cursor = last
                assert cursor == n_sets, (n_sets, n_shards)

    def test_rejects_more_shards_than_sets(self):
        from repro.core.errors import GpmError

        with pytest.raises(GpmError):
            shard_of_sets(np.arange(4), n_sets=4, n_shards=5)
        with pytest.raises(GpmError):
            shard_set_range(0, n_sets=4, n_shards=5)
        with pytest.raises(GpmError):
            shard_set_range(0, n_sets=0, n_shards=1)
        with pytest.raises(GpmError):
            shard_set_range(0, n_sets=4, n_shards=0)
        with pytest.raises(GpmError):
            shard_set_range(4, n_sets=16, n_shards=4)  # shard id out of range
        system = make_system(Mode.GPM)
        with pytest.raises(GpmError):
            ShardedHclLog.create(system, "/pm/t", n_shards=8, n_sets=4,
                                 ways=8, blocks=1, threads_per_block=32)


class TestShardedHclLog:
    def test_manifest_round_trip_after_reopen(self):
        system = make_system(Mode.GPM)
        created = ShardedHclLog.create(system, "/pm/t", n_shards=3,
                                       n_sets=256, ways=8, blocks=2,
                                       threads_per_block=32)
        manifest = ShardedHclLog.manifest(system, "/pm/t")
        assert manifest == {"n_shards": 3, "n_sets": 256, "ways": 8,
                            "blocks": 2, "threads_per_block": 32}
        reopened = ShardedHclLog.open(system, "/pm/t")
        assert reopened.n_shards == created.n_shards
        assert reopened.n_sets == created.n_sets

    def test_begin_commit_tracks_active_shards(self):
        system = make_system(Mode.GPM)
        shards = ShardedHclLog.create(system, "/pm/t", n_shards=4,
                                      n_sets=64, ways=8, blocks=1,
                                      threads_per_block=32)
        assert shards.active_shards() == []
        shards.begin([1, 3])
        assert shards.active_shards() == [1, 3]
        shards.commit([1, 3])
        assert shards.active_shards() == []
