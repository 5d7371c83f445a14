"""Zero-copy bulk data paths: transfer descriptors and copy elision.

Bulk movement in the simulator used to materialise every byte it touched:
``Gpu.stream_copy`` read the source, copied it, and wrote the copy into the
destination (two full copies per transfer), and the CAP pipeline staged GPU
results through a pinned DRAM bounce buffer that nothing but the very next
pipeline step ever read (a third copy).  The *accounting* - PCIe
transactions, Optane epochs, every emitted event - never needed those
intermediates; only the functional images did.

:class:`BulkTransfer` is the descriptor the bulk paths lower to.  It
performs one transfer's data movement with the minimum number of numpy
copies:

* distinct source/destination regions: a single ``np.copyto`` between
  views (one copy, the functional floor for a visible-image update);
* overlapping ranges of one region: staged through a reusable scratch
  buffer (matching the old read-copy-write semantics);
* *deferred* fills: for engine-private staging buffers (the CAP bounce
  buffer, checkpoint staging blocks) the fill is recorded on the
  destination region as a pending fill and not materialised at all.  The
  next pipeline stage resolves the pending fill back to the original
  source view (:func:`resolve_read`), so a full CAP persist moves each
  byte exactly twice (visible + persisted image of the PM destination)
  instead of four times.

Copy-on-write discipline: a pending fill holds a live *view* of its
source.  Any observation of the destination through the region API
(``read_bytes``/``write_bytes``/``view``/``persist_range``/...)
materialises pending fills first, and a crash drops them (an
unmaterialised fill is an unpersisted store, which a crash loses on every
platform we model - volatile destinations are poisoned outright).  Event
streams, clock advances and crash frontiers are therefore bit-identical
to the eager paths; the parity suite (``tests/sim/test_bulk_parity.py``)
pins that equivalence.

Escape hatch: set ``REPRO_NO_BULK_ELISION=1`` to force every transfer
eager - the reference data path the parity suite compares against.
"""

from __future__ import annotations

import os

import numpy as np

#: Environment variable disabling all copy elision (reference data path).
NO_ELISION_ENV = "REPRO_NO_BULK_ELISION"


def elision_enabled() -> bool:
    """Whether deferred (zero-copy) fills may engage."""
    return not os.environ.get(NO_ELISION_ENV)


# ---------------------------------------------------------------------------
# scratch buffers: reusable intermediates for the paths that need staging
# ---------------------------------------------------------------------------

#: Process-wide scratch buffers, keyed by caller-chosen identity (typically
#: a ``Region.token``, which is never reused - see ``repro.sim.memory``).
#: Buffers only grow; callers receive a view of the prefix they asked for
#: and must consume it before requesting the same key again.
_scratch: dict[object, np.ndarray] = {}

#: Cached ``0..n-1`` int64 ramp shared by index-vector builders
#: (:meth:`Region.persist_ranges` and friends); grows monotonically.
_iota = np.empty(0, dtype=np.int64)


def scratch_bytes(key: object, nbytes: int) -> np.ndarray:
    """A reusable uint8 scratch buffer of at least ``nbytes`` (view)."""
    buf = _scratch.get(key)
    if buf is None or buf.size < nbytes:
        buf = np.empty(max(nbytes, 4096), dtype=np.uint8)
        _scratch[key] = buf
    return buf[:nbytes]


def iota64(n: int) -> np.ndarray:
    """A read-shared view of ``arange(n, dtype=int64)`` (do not mutate)."""
    global _iota
    if _iota.size < n:
        _iota = np.arange(max(n, 1024), dtype=np.int64)
    return _iota[:n]


# ---------------------------------------------------------------------------
# the transfer descriptor
# ---------------------------------------------------------------------------


def resolve_read(region, offset: int, nbytes: int) -> np.ndarray:
    """A uint8 view of ``region``'s logical bytes without materialising.

    When a single pending fill covers the whole requested range, the view
    of the *fill's source* is returned and the fill stays pending - this
    is how a downstream pipeline stage (e.g. the CAP host-side persist)
    reads "through" an elided staging buffer back to the original data.
    Otherwise this is a plain ``read_bytes`` (which materialises).
    """
    pending = region._pending_fills
    if pending:
        for off, src in pending:
            if off <= offset and offset + nbytes <= off + src.size:
                lo = offset - off
                return src[lo : lo + nbytes]
        region._materialize_fills()
    return region.read_bytes(offset, nbytes)


class BulkTransfer:
    """One whole-range bulk copy: ``dst[dst_off:+n] <- src[src_off:+n]``.

    The descriptor carries only addressing; :meth:`apply` performs the
    functional data movement.  Timing and event accounting stay with the
    caller (``Gpu.stream_copy``, the DMA engine, the CAP pipeline), which
    is what keeps elided and eager runs bit-identical observationally.
    """

    __slots__ = ("dst", "dst_off", "src", "src_off", "nbytes")

    def __init__(self, dst, dst_off: int, src, src_off: int, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("bulk transfer size must be non-negative")
        self.dst = dst
        self.dst_off = dst_off
        self.src = src
        self.src_off = src_off
        self.nbytes = nbytes

    def source_view(self) -> np.ndarray:
        """The resolved source bytes (chases pending fills, no copy)."""
        return resolve_read(self.src, self.src_off, self.nbytes)

    def overlaps_in_place(self) -> bool:
        """True when src and dst ranges alias within one region."""
        if self.dst is not self.src:
            return False
        a, b = self.dst_off, self.dst_off + self.nbytes
        c, d = self.src_off, self.src_off + self.nbytes
        return a < d and c < b

    def apply(self, defer: bool = False) -> None:
        """Move the bytes; with ``defer`` record a pending fill instead.

        Deferral is only legal for destinations the caller knows are
        engine-private until the next pipeline stage consumes them (the
        region API materialises on any other observation); it is ignored
        when elision is disabled via ``REPRO_NO_BULK_ELISION``.
        """
        n = self.nbytes
        if n == 0:
            return
        self.dst._check_range(self.dst_off, n)
        src_view = self.source_view()
        if defer and self.dst is not self.src and elision_enabled():
            self.dst.defer_fill(self.dst_off, src_view)
            return
        if self.overlaps_in_place():
            tmp = scratch_bytes(("xfer", self.dst.token), n)
            np.copyto(tmp, src_view)
            src_view = tmp
        self.dst.write_from(self.dst_off, src_view)
