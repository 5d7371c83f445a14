"""The front-end: tenant streams replayed on the *simulated* clock.

The open-loop schedules are precomputed, so the front-end is a plain
heap-ordered loop.  The heap holds one entry per live tenant,
``(arrival of its next request, push seq, iterator, request)``:

* at the start each tenant, in stream order, offers every request that
  has already arrived, then parks its next one on the heap;
* each pass flushes when the batcher's size-or-linger trigger fires, and
  otherwise advances the clock to the earliest interesting time (the heap
  top or the batcher's linger deadline);
* it then pops **every** entry now due before serving any of them, and
  serves them in pop order: each tenant offers the popped request and
  every further one that has arrived by ``clock.now``, then parks again
  with a fresh seq.

Kernel launches (batch flushes) advance the clock themselves; tenants
whose arrival a flush ran past are served right after it, their requests
arriving "late" exactly as an open-loop client's would.  Ties break by
push order, so a run is a deterministic pure function of the traffic
schedule - the property the pinned summary digests check.

A :class:`~repro.sim.crash.SimulatedCrash` raised by a mid-flush crash
injector propagates to the caller, leaving the system in its crashed
state for recovery tests.
"""

from __future__ import annotations

import heapq
import itertools

from ..sim.events import ServiceRequest
from .admission import AdmissionController
from .batcher import Batcher


class Frontend:
    """Runs tenant streams through admission + batching to completion."""

    def __init__(self, system, admission: AdmissionController,
                 batcher: Batcher, crash_injector=None) -> None:
        self.system = system
        self.admission = admission
        self.batcher = batcher
        self.crash_injector = crash_injector

    def _offer(self, req) -> None:
        admitted, reason = self.admission.offer(req.tenant, self.system.clock.now)
        self.system.events.emit(ServiceRequest(tenant=req.tenant, op=req.op,
                                               admitted=admitted, reason=reason))
        if admitted:
            self.batcher.submit(req)

    def _serve(self, requests):
        """Offer requests until one lies in the future; return it (or None)."""
        for req in requests:
            if req.arrival > self.system.clock.now:
                return req
            self._offer(req)
        return None

    def run(self, streams: list) -> None:
        """Serve every stream to completion (or until a simulated crash)."""
        clock = self.system.clock
        batcher = self.batcher
        heap: list = []
        push_seq = itertools.count()

        def park(requests) -> None:
            req = self._serve(requests)
            if req is not None:
                heapq.heappush(heap, (req.arrival, next(push_seq), requests, req))

        for stream in streams:
            park(iter(stream.requests))
        # The loop's logical "now".  Advancing the clock to a target time
        # adds a tiny delta to a much larger float and can be absorbed by
        # rounding, leaving the clock one ulp short of the target forever;
        # the cursor tracks the target exactly, so linger deadlines and
        # arrivals are compared against a value that actually reaches them.
        cursor = clock.now
        while heap or batcher.pending:
            cursor = max(cursor, clock.now)
            if batcher.should_flush(cursor):
                batcher.flush(self.crash_injector)
                cursor = max(cursor, clock.now)
            else:
                t = batcher.next_deadline()
                if heap and (t is None or heap[0][0] < t):
                    t = heap[0][0]
                if t > clock.now:
                    clock.advance(t - clock.now)
                cursor = max(cursor, clock.now, t)
            due = []
            while heap and heap[0][0] <= cursor:
                due.append(heapq.heappop(heap))
            for _, _, requests, req in due:
                self._offer(req)
                park(requests)
