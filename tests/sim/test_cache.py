"""LLC/DDIO model: dirty tracking, flushes, eviction, eADR crash."""

import numpy as np
import pytest

from repro.sim import Machine, SystemConfig


class TestInstallAndFlush:
    def test_install_tracks_dirty_lines(self, machine):
        r = machine.alloc_pm("x", 1024)
        machine.llc.install_writes(r, [0], [100])
        assert machine.llc.dirty_lines(r) == [0, 1]

    def test_install_on_dram_is_ignored(self, machine):
        r = machine.alloc_dram("x", 1024)
        machine.llc.install_writes(r, [0], [100])
        assert len(machine.llc) == 0

    def test_flush_range_persists_and_clears(self, machine):
        r = machine.alloc_pm("x", 1024)
        r.write_bytes(0, [7] * 100)
        machine.llc.install_writes(r, [0], [100])
        t = machine.llc.flush_range(r, 0, 100)
        assert t > 0
        assert machine.llc.dirty_lines(r) == []
        assert (r.persisted_view(np.uint8, 0, 100) == 7).all()

    def test_flush_clean_range_is_free(self, machine):
        r = machine.alloc_pm("x", 1024)
        assert machine.llc.flush_range(r, 0, 1024) == 0.0

    def test_flush_whole_line_even_for_partial_write(self, machine):
        r = machine.alloc_pm("x", 1024)
        r.write_bytes(0, [7] * 8)
        r.write_bytes(32, [9] * 8)  # same line, newer data
        machine.llc.install_writes(r, [0], [8])
        machine.llc.flush_range(r, 0, 8)
        # write-back persists the whole current line
        assert (r.persisted_view(np.uint8, 32, 8) == 9).all()

    def test_drop_range_clears_without_media(self, machine):
        r = machine.alloc_pm("x", 1024)
        machine.llc.install_writes(r, [0], [128])
        machine.llc.drop_range(r, 0, 128)
        assert len(machine.llc) == 0

    def test_hit_counting(self, machine):
        r = machine.alloc_pm("x", 1024)
        machine.llc.install_writes(r, [0], [64])
        machine.llc.install_writes(r, [0], [64])
        assert machine.stats.llc_ddio_fills == 1
        assert machine.stats.llc_ddio_hits == 1


class TestEviction:
    def test_capacity_eviction_persists_lru(self):
        cfg = SystemConfig().with_overrides(llc_ddio_bytes=4 * 64)
        machine = Machine(cfg)
        r = machine.alloc_pm("x", 1024)
        r.visible[:] = 5
        for line in range(6):
            machine.llc.install_writes(r, [line * 64], [64])
        assert len(machine.llc) == 4
        # first two lines were evicted and are now durable
        assert (r.persisted_view(np.uint8, 0, 128) == 5).all()
        assert machine.stats.llc_evictions == 2

    def test_streaming_fast_path_persists_head(self):
        cfg = SystemConfig().with_overrides(llc_ddio_bytes=1024)
        machine = Machine(cfg)
        r = machine.alloc_pm("x", 1 << 16)
        r.visible[:] = 3
        machine.llc.install_writes(r, [0], [1 << 16])
        # head written through; only the tail (<= capacity) stays cached
        assert len(machine.llc) <= 1024 // 64
        assert (r.persisted_view(np.uint8, 0, (1 << 16) - 1024) == 3).all()

    def test_streaming_fast_path_counts_lines_not_segments(self):
        # Regression: the write-through evict event reported one line per
        # *segment*; a 64 KiB stream through a 1 KiB DDIO window writes
        # 63 KiB (1008 cache lines) through, not 1.
        cfg = SystemConfig().with_overrides(llc_ddio_bytes=1024)
        machine = Machine(cfg)
        r = machine.alloc_pm("x", 1 << 16)
        machine.llc.install_writes(r, [0], [1 << 16])
        assert machine.stats.llc_evictions == ((1 << 16) - 1024) // 64

    def test_streaming_fast_path_partial_line_segments(self):
        # Two unaligned head segments spanning 2 lines each -> 4 lines.
        cfg = SystemConfig().with_overrides(llc_ddio_bytes=256)
        machine = Machine(cfg)
        r = machine.alloc_pm("x", 1 << 16)
        machine.llc.install_writes(r, [32, 4096 + 32], [576, 576])
        # tail_bytes=256 kept from the stream's end; everything earlier is
        # written through; each 576 B run spans ceil boundaries of 64 B lines
        evicted = machine.stats.llc_evictions
        # head = total (1152) - 256 = 896 bytes across two unaligned runs;
        # exact line count depends on the split, but it must far exceed the
        # 2 the per-segment accounting reported, and match the model:
        assert evicted >= 896 // 64
        assert evicted > 2


class TestCrash:
    def test_crash_without_eadr_loses_dirty_lines(self, machine):
        r = machine.alloc_pm("x", 1024)
        r.write_bytes(0, [9] * 64)
        machine.llc.install_writes(r, [0], [64])
        machine.crash()
        assert not r.visible[:64].any()

    def test_crash_with_eadr_drains_dirty_lines(self):
        machine = Machine(persistency="eadr")
        r = machine.alloc_pm("x", 1024)
        r.write_bytes(0, [9] * 64)
        machine.llc.install_writes(r, [0], [64])
        machine.crash()
        assert (r.visible[:64] == 9).all()


class TestTokenKeying:
    """Dirty lines are keyed by Region.token, never by id()."""

    def test_dirty_keys_use_region_tokens(self, machine):
        # Two live regions dirty the same line numbers; each region's lines
        # are tracked, counted and flushed independently of the other's.
        a = machine.alloc_pm("a", 1024)
        b = machine.alloc_pm("b", 1024)
        assert a.token != b.token
        machine.llc.install_writes(a, [0], [128])
        machine.llc.install_writes(b, [64], [128])
        assert machine.llc.dirty_lines(a) == [0, 1]
        assert machine.llc.dirty_lines(b) == [1, 2]
        assert len(machine.llc) == 4
        assert machine.llc.flush_range(a, 0, 1024) > 0
        assert machine.llc.dirty_lines(a) == []
        assert machine.llc.dirty_lines(b) == [1, 2]
        assert len(machine.llc) == 2
        machine.llc.drop_range(b, 64, 64)
        assert machine.llc.dirty_lines(b) == [2]
        assert len(machine.llc) == 1

    def test_leaked_region_lines_never_alias_a_reallocation(self):
        # A mapping dropped without Machine.free leaves its dirty lines
        # behind.  Tokens are monotonic and never reused, so the stale keys
        # can never match a fresh region with the same line numbers - the
        # fresh region starts clean and its flushes are free.
        machine = Machine(SystemConfig())
        r1 = machine.alloc_pm("leak", 1024)
        machine.llc.install_writes(r1, [0], [256])
        stale = len(machine.llc)
        assert stale
        del machine._regions["leak"]
        del r1
        for i in range(8):
            r2 = machine.alloc_pm(f"fresh{i}", 1024)
            assert machine.llc.dirty_lines(r2) == []
            assert machine.llc.flush_range(r2, 0, 1024) == 0.0
            machine.free(r2)
            del r2
        # The stale lines are still attributed to the leaked region only.
        assert len(machine.llc) == stale

    def test_cache_holds_no_region_once_its_lines_leave(self):
        # The LLC keeps a region alive only while it has dirty lines:
        # after its last line is evicted, flushed or dropped, freeing the
        # region must let it be collected.
        import gc
        import weakref

        machine = Machine(SystemConfig().with_overrides(llc_ddio_bytes=4 * 64))
        other = machine.alloc_pm("other", 1024)
        machine.llc.install_writes(other, [0], [64])
        refs = []
        for name, leave in (("evicted", None), ("flushed", "flush"),
                            ("dropped", "drop")):
            r = machine.alloc_pm(name, 1024)
            machine.llc.install_writes(r, [0, 256], [64, 64])
            if leave == "flush":
                machine.llc.flush_range(r, 0, 1024)
            elif leave == "drop":
                machine.llc.drop_range(r, 0, 1024)
            else:
                machine.llc.install_writes(other, [128], [4 * 64])
            assert machine.llc.dirty_lines(r) == []
            refs.append(weakref.ref(r))
            del machine._regions[name]
            del r
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]

    def test_free_drops_lines_before_name_reuse(self, machine):
        r1 = machine.alloc_pm("x", 1024)
        machine.llc.install_writes(r1, [0], [128])
        machine.free(r1)
        r2 = machine.alloc_pm("x", 1024)
        assert machine.llc.dirty_lines(r2) == []
        assert machine.llc.flush_range(r2, 0, 1024) == 0.0
