"""The CPU last-level cache, Data Direct I/O, and the volatility boundary.

Section 3.1 of the paper: *"When DDIO is enabled (default), GPU's writes to
system memory are cached in CPU's LLCs. They do not immediately proceed to
the memory controllers. Thus, GPM selectively turns off DDIO for GPUs when
persistence is desired."*

This module models exactly that boundary.  The LLC is a capacity-bounded LRU
store of **dirty cache lines** sitting in front of persistent memory:

* Inbound I/O writes (GPU stores arriving over PCIe) land here when DDIO is
  on - the data is *visible* but **not persistent**.
* CPU stores to PM-mapped memory also dirty lines here.
* A line becomes persistent when it is explicitly flushed (CLFLUSHOPT /
  GPM's DDIO-off fence path) or naturally evicted (the dotted arrows of
  Fig. 2).
* On a crash the dirty lines are **discarded** - unless the machine models
  eADR (Section 3.3), in which case the enhanced ADR domain includes the
  LLC and all dirty lines drain to PM on failure.

Only lines backed by PM regions are tracked: dirty DRAM lines need no
write-back bookkeeping because DRAM is lost on crash anyway.

The dirty set is a columnar table, at most one capacity's worth of rows:

* a sorted ``int64`` key array, one key ``(Region.token << 40) | line`` per
  dirty line, so each region's lines form one address-ordered slice that
  ``searchsorted`` finds without a walk;
* an aligned array of LRU stamps from a monotonic counter (larger is more
  recent); eviction takes the smallest stamps, oldest first;
* a ``token -> Region`` map holding each region with a dirty line, dropped
  once its last line leaves.  Tokens are monotonic and never reused, unlike
  ``id()``: a freed region's stale dirty lines can never alias a later
  allocation.

Natural evictions and the eADR crash drain write lines back through
:meth:`OptaneModel.write_epochs`, one epoch per line, in eviction (LRU)
order - the same events and media times as one ``write_epoch`` per line.
An eviction burst leaves the table before its first write-back; until each
victim's epoch is emitted it stays *in flight* here.  A crash raised from
the k-th victim's epoch event therefore still finds victims k+1...N dirty,
and under eADR drains them first, then the rest of the table in LRU order.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .events import EventBus, LlcEvict, LlcFlush, LlcInstall
from .memory import MemKind, Region
from .optane import OptaneModel

_TOKEN_SHIFT = 40
_LINE_MASK = (1 << _TOKEN_SHIFT) - 1
_NONE = np.empty(0, dtype=np.int64)


class LastLevelCache:
    """Dirty-line tracking for the DDIO/LLC persistence gap."""

    def __init__(self, config: SystemConfig, events: EventBus, optane: OptaneModel) -> None:
        self._config = config
        self._events = events
        self._optane = optane
        self._line = config.cpu_cache_line_bytes
        self._capacity_lines = config.llc_ddio_bytes // self._line
        self._keys = _NONE
        self._stamps = _NONE
        self._next_stamp = 0
        self._regions: dict[int, Region] = {}
        # The eviction burst being written back, and the index of its first
        # victim whose epoch has not been emitted yet.
        self._burst = _NONE
        self._burst_next = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._keys.size

    def _span(self, token: int, first: int, last: int) -> tuple[int, int]:
        """Table rows ``[lo, hi)`` holding ``token``'s lines ``first..last``."""
        if not self._keys.size:
            return 0, 0
        base = token << _TOKEN_SHIFT
        lo, hi = self._keys.searchsorted([base + first, base + last + 1]).tolist()
        return lo, hi

    def dirty_lines(self, region: Region) -> list[int]:
        """Line numbers of ``region`` currently dirty in the LLC (sorted)."""
        lo, hi = self._span(region.token, 0, _LINE_MASK)
        return (self._keys[lo:hi] & _LINE_MASK).tolist()

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
        window = self._capacity_lines * self._line
        if starts.size == 1 and lengths[0] <= 2 * window:
            touches, hits = self._install_segment(region.token, int(starts[0]), int(lengths[0]))
        else:
            # Streaming fast path: traffic far exceeding the DDIO window
            # writes through continuously (lines evict as fast as they
            # fill).  Persist the head of the stream directly and cache
            # only the tail.
            if int(lengths.sum()) > 2 * window:
                starts, lengths = self._persist_all_but_tail(region, starts, lengths, window)
            touches, hits = self._install_segments(region.token, starts, lengths)
        if touches:
            self._regions[region.token] = region
            self._events.emit(LlcInstall(region=region.name, hits=hits,
                                         fills=touches - hits))
        self._evict_over_capacity()

    def _install_segment(self, token: int, start: int, length: int) -> tuple[int, int]:
        """Touch one segment's lines, in address order; returns (touches, hits).

        Each line of ``first..last`` is touched once, so the new rows are
        one sorted run that replaces the table slice it overlaps.
        """
        if length <= 0:
            return 0, 0
        first = start // self._line
        last = (start + length - 1) // self._line
        lo, hi = self._span(token, first, last)
        base = token << _TOKEN_SHIFT
        stamp = self._next_stamp
        n = last - first + 1
        self._next_stamp = stamp + n
        keys = np.arange(base + first, base + last + 1)
        stamps = np.arange(stamp, stamp + n)
        if hi - lo < self._keys.size:
            keys = np.concatenate((self._keys[:lo], keys, self._keys[hi:]))
            stamps = np.concatenate((self._stamps[:lo], stamps, self._stamps[hi:]))
        self._keys, self._stamps = keys, stamps
        return n, hi - lo

    def _install_segments(self, token: int, starts: np.ndarray,
                          lengths: np.ndarray) -> tuple[int, int]:
        """Touch many segments' lines in order; returns (touches, hits).

        A line touched more than once takes the LRU position of its last
        touch, and only its first touch can be a fill.
        """
        keep = lengths > 0
        starts, lengths = starts[keep], lengths[keep]
        if starts.size == 0:
            return 0, 0
        firsts = starts // self._line
        counts = (starts + lengths - 1) // self._line - firsts + 1
        touches = int(counts.sum())
        # Every touched line's key, in touch order.
        shift = np.cumsum(counts) - counts - firsts - (token << _TOKEN_SHIFT)
        touched = np.arange(touches, dtype=np.int64) - np.repeat(shift, counts)
        keys, from_end = np.unique(touched[::-1], return_index=True)
        stamps = self._next_stamp + touches - 1 - from_end
        self._next_stamp += touches
        rows = self._keys.searchsorted(keys)
        hit = rows < self._keys.size
        hit[hit] = self._keys[rows[hit]] == keys[hit]
        self._stamps[rows[hit]] = stamps[hit]
        fresh = ~hit
        self._keys = np.insert(self._keys, rows[fresh], keys[fresh])
        self._stamps = np.insert(self._stamps, rows[fresh], stamps[fresh])
        return touches, touches - int(np.count_nonzero(fresh))

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
        excess = self._keys.size - self._capacity_lines
        if excess <= 0:
            return
        stamps = self._stamps
        victims = np.argpartition(stamps, excess - 1)[:excess]
        victims = victims[np.argsort(stamps[victims])]
        keep = np.ones(stamps.size, dtype=bool)
        keep[victims] = False
        self._burst = self._keys[victims]
        self._burst_next = 0
        self._keys = self._keys[keep]
        self._stamps = stamps[keep]
        self._write_back(self._burst)
        for token in np.unique(self._burst >> _TOKEN_SHIFT).tolist():
            self._release(token)
        self._burst = _NONE
        self._events.emit(LlcEvict(lines=excess))

    def _write_back(self, keys: np.ndarray) -> None:
        """Persist the lines of ``keys`` in order, one Optane epoch per line.

        Natural evictions are asynchronous background traffic; they persist
        data functionally but are not charged to any foreground timeline.
        Before each epoch the burst cursor moves past its line, so a crash
        raised from the epoch's event sees only the later lines in flight.
        """
        tokens = keys >> _TOKEN_SHIFT
        starts = (keys & _LINE_MASK) * self._line
        cuts = (np.flatnonzero(tokens[1:] != tokens[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, keys.size]):
            region = self._regions[int(tokens[lo])]
            run = starts[lo:hi]
            n = hi - lo

            def advance(group: int, lo: int = lo) -> None:
                self._burst_next = lo + group + 1

            self._optane.write_epochs(
                region, run, np.minimum(self._line, region.size - run),
                np.arange(n), n, before_group=advance)

    def _release(self, token: int) -> None:
        """Forget ``token``'s region once its last dirty line has left."""
        keys = self._keys
        row = keys.searchsorted(token << _TOKEN_SHIFT)
        if row == keys.size or keys[row] >> _TOKEN_SHIFT != token:
            del self._regions[token]

    def _remove(self, token: int, lo: int, hi: int) -> None:
        """Delete table rows ``[lo, hi)``, all lines of ``token``."""
        if hi - lo == self._keys.size:
            self._keys = self._stamps = _NONE
            del self._regions[token]
            return
        self._keys = np.concatenate((self._keys[:lo], self._keys[hi:]))
        self._stamps = np.concatenate((self._stamps[:lo], self._stamps[hi:]))
        self._release(token)

    # ------------------------------------------------------------------

    def flush_range(self, region: Region, offset: int, size: int) -> float:
        """Flush the dirty lines covering ``[offset, offset+size)`` to PM.

        Models a CLFLUSHOPT loop followed by a drain: the range's dirty
        lines are written back by :meth:`OptaneModel.flush_lines` as one
        ``line_drain`` event, priced per line - each line pays its own
        XPLine touch, which is what makes flush-grain access patterns pay
        Optane's partial-line penalty.  Returns the media seconds consumed.
        """
        if region.kind is not MemKind.PM or size <= 0:
            return 0.0
        token = region.token
        lo, hi = self._span(token, offset // self._line, (offset + size - 1) // self._line)
        if lo == hi:
            return 0.0
        starts = (self._keys[lo:hi] & _LINE_MASK) * self._line
        # Announce before touching the dirty set: a crash during this
        # emission must see the lines either still cached (eADR drains
        # them) or already persisted - never in between.  Real hardware
        # has no such limbo (a CLFLUSHOPT'd line is in the cache or in the
        # ADR-protected controller queue); found by the litmus fuzzer.
        self._events.emit(LlcFlush(region=region.name, lines=hi - lo))
        self._remove(token, lo, hi)
        return self._optane.flush_lines(region, starts, self._line)

    def drop_range(self, region: Region, offset: int, size: int) -> None:
        """Forget dirty lines in a range that were persisted by other means.

        Used when a bulk flush already drained the range's visible bytes to
        PM (e.g. :meth:`OptaneModel.write_flush_grain`), so a per-line
        write-back would double-charge the media.
        """
        if region.kind is not MemKind.PM or size <= 0:
            return
        token = region.token
        lo, hi = self._span(token, offset // self._line, (offset + size - 1) // self._line)
        if lo < hi:
            self._remove(token, lo, hi)

    def flush_region(self, region: Region) -> float:
        """Flush every dirty line of ``region``; returns media seconds."""
        return self.flush_range(region, 0, region.size)

    # ------------------------------------------------------------------

    def crash(self, eadr: bool) -> None:
        """Apply crash semantics to the cached dirty lines.

        Without eADR all dirty lines are lost.  With eADR the enhanced ADR
        domain covers the LLC, so every dirty line drains to PM (Section
        3.3: the feature "will drain the entire contents of CPU caches to
        PM on power failures") - an interrupted eviction burst's remaining
        victims first, then the table from least to most recently used.
        """
        in_flight = self._burst[self._burst_next:]
        self._burst = _NONE
        if eadr:
            drain = np.concatenate((in_flight, self._keys[np.argsort(self._stamps)]))
            if drain.size:
                self._write_back(drain)
        self._keys = self._stamps = _NONE
        self._regions.clear()
