"""Reference oracle: the ``OrderedDict`` LLC dirty set, kept verbatim.

This is :class:`repro.sim.cache.LastLevelCache` as it was before the dirty
set became a columnar key/stamp table - one ``OrderedDict`` entry per dirty
line, walked in Python, and one ``OptaneModel.write_epoch`` per evicted or
eADR-drained line.  ``test_llc_differential.py`` runs it side by side with
the columnar cache and requires identical events, dirty sets and images.
Apart from this docstring, only the imports differ from that module.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.sim.config import SystemConfig
from repro.sim.events import EventBus, LlcEvict, LlcFlush, LlcInstall
from repro.sim.memory import MemKind, Region
from repro.sim.optane import OptaneModel


class LastLevelCache:
    """Dirty-line tracking for the DDIO/LLC persistence gap."""

    def __init__(self, config: SystemConfig, events: EventBus, optane: OptaneModel) -> None:
        self._config = config
        self._events = events
        self._optane = optane
        self._line = config.cpu_cache_line_bytes
        self._capacity_lines = config.llc_ddio_bytes // self._line
        # (region.token, line_no) -> region, in LRU order (oldest first).
        # Tokens are monotonic and never reused, unlike id(): a freed
        # region's stale dirty lines can never alias a later allocation.
        self._dirty: OrderedDict[tuple[int, int], tuple[Region, int]] = OrderedDict()

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._dirty)

    def dirty_lines(self, region: Region) -> list[int]:
        """Line numbers of ``region`` currently dirty in the LLC (sorted)."""
        rid = region.token
        return sorted(line for (r, line), _ in self._dirty.items() if r == rid)

    def install_writes(self, region: Region, starts, lengths) -> None:
        """Record stores to PM-backed lines arriving at the LLC.

        The bytes are already visible (stores update ``region.visible``
        directly); this only tracks *which lines are dirty*, i.e. visible
        but not yet persistent.  Capacity overflow triggers natural LRU
        eviction, which persists the evicted lines.
        """
        if region.kind is not MemKind.PM:
            return
        starts = np.atleast_1d(np.asarray(starts, dtype=np.int64))
        lengths = np.atleast_1d(np.asarray(lengths, dtype=np.int64))
        total = int(lengths.sum())
        # Streaming fast path: traffic far exceeding the DDIO window writes
        # through continuously (lines evict as fast as they fill).  Persist
        # the head of the stream directly and cache only the tail.
        if total > 2 * self._capacity_lines * self._line:
            tail_bytes = self._capacity_lines * self._line
            starts, lengths = self._persist_all_but_tail(region, starts, lengths, tail_bytes)
        rid = region.token
        hits = fills = 0
        for start, length in zip(starts.tolist(), lengths.tolist()):
            if length <= 0:
                continue
            first = start // self._line
            last = (start + length - 1) // self._line
            for line in range(first, last + 1):
                key = (rid, line)
                if key in self._dirty:
                    self._dirty.move_to_end(key)
                    hits += 1
                else:
                    self._dirty[key] = (region, line)
                    fills += 1
        if hits or fills:
            self._events.emit(LlcInstall(region=region.name, hits=hits, fills=fills))
        self._evict_over_capacity()

    def _persist_all_but_tail(self, region, starts, lengths, tail_bytes):
        """Write the stream's head straight through; return the tail segments."""
        order = np.argsort(starts, kind="stable")
        starts, lengths = starts[order], lengths[order]
        remaining = tail_bytes
        keep_starts: list[int] = []
        keep_lengths: list[int] = []
        head_starts: list[int] = []
        head_lengths: list[int] = []
        for start, length in zip(starts[::-1].tolist(), lengths[::-1].tolist()):
            if remaining >= length:
                keep_starts.append(start)
                keep_lengths.append(length)
                remaining -= length
            elif remaining > 0:
                keep_starts.append(start + length - remaining)
                keep_lengths.append(remaining)
                head_starts.append(start)
                head_lengths.append(length - remaining)
                remaining = 0
            else:
                head_starts.append(start)
                head_lengths.append(length)
        if head_starts:
            self._optane.write_epoch(region, head_starts, head_lengths)
            # A write-through segment spans every cache line it touches, not
            # one line per segment.
            lines = sum(
                (start + length - 1) // self._line - start // self._line + 1
                for start, length in zip(head_starts, head_lengths)
            )
            self._events.emit(LlcEvict(lines=lines))
        return np.asarray(keep_starts, dtype=np.int64), np.asarray(keep_lengths, dtype=np.int64)

    def _evict_over_capacity(self) -> None:
        evicted = 0
        while len(self._dirty) > self._capacity_lines:
            (_, line), (region, _) = self._dirty.popitem(last=False)
            self._write_back(region, line)
            evicted += 1
        if evicted:
            self._events.emit(LlcEvict(lines=evicted))

    def _write_back(self, region: Region, line: int) -> None:
        start = line * self._line
        size = min(self._line, region.size - start)
        # Natural evictions are asynchronous background traffic; they persist
        # data functionally but are not charged to any foreground timeline.
        self._optane.write_epoch(region, [start], [size])

    # ------------------------------------------------------------------

    def flush_range(self, region: Region, offset: int, size: int) -> float:
        """Flush the dirty lines covering ``[offset, offset+size)`` to PM.

        Models a CLFLUSHOPT loop followed by a drain: each dirty line in the
        range is written back as its own drain epoch (this is what makes
        flush-grain access patterns pay Optane's partial-line penalty).
        Returns the media seconds consumed.
        """
        if region.kind is not MemKind.PM or size <= 0:
            return 0.0
        rid = region.token
        first = offset // self._line
        last = (offset + size - 1) // self._line
        span_lines = last - first + 1
        # Walk whichever is smaller: the address range or the dirty set.
        if span_lines <= len(self._dirty):
            hits = [
                line
                for line in range(first, last + 1)
                if (rid, line) in self._dirty
            ]
        else:
            hits = [
                line
                for (r, line) in list(self._dirty)
                if r == rid and first <= line <= last
            ]
        if not hits:
            return 0.0
        # Announce before touching the dirty set: a crash during this
        # emission must see the lines either still cached (eADR drains
        # them) or already persisted - never in between.  Real hardware
        # has no such limbo (a CLFLUSHOPT'd line is in the cache or in the
        # ADR-protected controller queue); found by the litmus fuzzer.
        self._events.emit(LlcFlush(region=region.name, lines=len(hits)))
        for line in hits:
            del self._dirty[(rid, line)]
        starts = np.asarray(sorted(hits), dtype=np.int64) * self._line
        return self._optane.flush_lines(region, starts, self._line)

    def drop_range(self, region: Region, offset: int, size: int) -> None:
        """Forget dirty lines in a range that were persisted by other means.

        Used when a bulk flush already drained the range's visible bytes to
        PM (e.g. :meth:`OptaneModel.write_flush_grain`), so a per-line
        write-back would double-charge the media.
        """
        if region.kind is not MemKind.PM or size <= 0:
            return
        rid = region.token
        first = offset // self._line
        last = (offset + size - 1) // self._line
        if last - first + 1 <= len(self._dirty):
            for line in range(first, last + 1):
                self._dirty.pop((rid, line), None)
        else:
            for key in [k for k in self._dirty if k[0] == rid and first <= k[1] <= last]:
                del self._dirty[key]

    def flush_region(self, region: Region) -> float:
        """Flush every dirty line of ``region``; returns media seconds."""
        return self.flush_range(region, 0, region.size)

    # ------------------------------------------------------------------

    def crash(self, eadr: bool) -> None:
        """Apply crash semantics to the cached dirty lines.

        Without eADR all dirty lines are lost.  With eADR the enhanced ADR
        domain covers the LLC, so every dirty line drains to PM (Section
        3.3: the feature "will drain the entire contents of CPU caches to
        PM on power failures").
        """
        if eadr:
            for (_, line), (region, _) in list(self._dirty.items()):
                self._write_back(region, line)
        self._dirty.clear()
