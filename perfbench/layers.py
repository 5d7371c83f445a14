"""The per-layer metrics of the traced run, and the calls they wrap.

Each span wraps one public function of one simulator layer.  The traced
iteration runs with every wrapper installed and with :class:`EventCounter`
attached to every event bus, then :func:`layer_metrics` folds the spans,
counts and the workload's own facts into the metrics named in
``BENCHMARK.json``'s ``per_layer`` list (:data:`METRICS`).  A layer that a
workload never reaches reports 0 calls and 0 seconds.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.check import explorer
from repro.core.recovery import RecoveryManager
from repro.gpu.device import Gpu
from repro.host.cap import CapEngine
from repro.host.cpu import Cpu
from repro.host.dma import DmaEngine
from repro.host.filesystem import DaxFilesystem
from repro.serve.batcher import Batcher
from repro.serve.frontend import Frontend
from repro.serve.store import ShardedKvStore
from repro.sim import config as sim_config
from repro.sim import optane
from repro.sim.cache import LastLevelCache
from repro.sim.events import LlcEvict, OptaneEpoch
from repro.sim.memory import Region
from repro.sim.trace import record_events

from spans import Patches, Tracer

#: (owner, attribute, span name) for every wrapped method or function.
#: A function is wrapped only where its owning module binds it, which is
#: where the named layer calls it: ``repro.sim.optane.merge_segments`` is
#: what ``OptaneModel.write_epoch`` calls, while the GPU drain's own
#: imported binding stays unwrapped and its merging stays in the launch.
SPANS = (
    (LastLevelCache, "install_writes", "sim.cache.install_writes"),
    (LastLevelCache, "drop_range", "sim.cache.drop_range"),
    (LastLevelCache, "flush_range", "sim.cache.flush_range"),
    (optane.OptaneModel, "write_epoch", "sim.optane.write_epoch"),
    (optane.OptaneModel, "write_epochs", "sim.optane.write_epochs"),
    (optane, "merge_segments", "sim.optane.merge_segments"),
    (Region, "persist_range", "sim.memory.persist_range"),
    (Region, "persist_ranges", "sim.memory.persist_ranges"),
    (Region, "write_from", "sim.memory.write_from"),
    (Gpu, "stream_copy", "gpu.stream_copy"),
    (Gpu, "scatter_store_bulk", "gpu.scatter_store_bulk"),
    (CapEngine, "persist_output", "host.cap.persist_output"),
    (DmaEngine, "device_to_host", "host.dma"),
    (DmaEngine, "host_to_device", "host.dma"),
    (Cpu, "persist_range", "host.cpu.persist_range"),
    (Cpu, "persist_scattered", "host.cpu.persist_scattered"),
    (DaxFilesystem, "fsync", "host.filesystem.fsync"),
    (Frontend, "run", "serve.frontend.run"),
    (Batcher, "flush", "serve.batcher.flush"),
    (ShardedKvStore, "set_batch", "serve.store.set_batch"),
    (ShardedKvStore, "get_batch", "serve.store.get_batch"),
    (ShardedKvStore, "delete_batch", "serve.store.delete_batch"),
    (explorer.CrashExplorer, "record", "check.record"),
    (explorer, "explore_frontier", "check.explore_frontier"),
    (RecoveryManager, "run", "core.recovery.run"),
)

#: The root span of a traced iteration; its self time is the residual.
ROOT = "workload"

_CALLS_AND_SELF = (
    "sim.cache.install_writes", "sim.cache.drop_range", "sim.cache.flush_range",
    "sim.optane.write_epoch", "sim.optane.write_epochs",
    "sim.optane.merge_segments",
    "sim.memory.persist_range", "sim.memory.persist_ranges",
    "sim.memory.write_from",
    "host.cap.persist_output", "host.dma", "host.cpu.persist_range",
    "host.cpu.persist_scattered", "host.filesystem.fsync",
    "serve.frontend.run", "serve.batcher.flush", "serve.store.set_batch",
    "serve.store.get_batch", "serve.store.delete_batch",
    "check.record", "check.explore_frontier",
)
_SELF_ONLY = (
    "gpu.launch.warp", "gpu.launch.scalar", "gpu.stream_copy",
    "gpu.scatter_store_bulk", "core.recovery.run", ROOT,
)

#: Every per-layer metric, in ``BENCHMARK.json`` order: (name, unit).
METRICS = tuple(
    [(f"{span}.{kind}", unit) for span in _CALLS_AND_SELF
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"{span}.self_s", "s") for span in _SELF_ONLY]
    + [
        ("sim.cache.evictions", "lines"),
        ("sim.optane.lines_per_call", "lines/call"),
        ("sim.events.emitted", "count"),
        ("sim.events.host_us_per_event", "us"),
        ("serve.batcher.occupancy", "ratio"),
        ("serve.batcher.flush.p95_us", "us"),
        ("check.explored_over_recorded", "ratio"),
        ("trace.overhead_s", "s"),
    ]
)


class EventCounter:
    """Event-bus subscriber counting what the traced iteration emits."""

    def __init__(self) -> None:
        self.emitted = 0
        self.evicted_lines = 0
        self.optane_media_bytes = 0

    def __call__(self, ts: float, event) -> None:
        self.emitted += 1
        kind = type(event)
        if kind is LlcEvict:
            self.evicted_lines += event.lines
        elif kind is OptaneEpoch:
            self.optane_media_bytes += event.media_bytes


def _launch_lane(result) -> str:
    return f"gpu.launch.{result.lane}"


@contextmanager
def instrumented(tracer: Tracer, counter: EventCounter):
    """Every layer wrapper installed and ``counter`` on every new event bus."""
    with Patches() as patches, record_events(counter):
        for owner, attr, name in SPANS:
            patches.replace(owner, attr, lambda fn, n=name: tracer.wrap(fn, n))
        # A launch that raises was crashed by an armed injector, which
        # always forces the scalar lane.
        patches.replace(Gpu, "launch", lambda fn: tracer.wrap(
            fn, "gpu.launch.scalar", rename=_launch_lane))
        yield


def _p95(samples: list[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.95))]


def layer_metrics(tracer: Tracer, counter: EventCounter, facts: dict,
                  untraced_wall_s: float, traced_wall_s: float) -> dict:
    """Every metric of :data:`METRICS`, as ``{name: value}``.

    ``facts`` holds what the workload's own outputs report: the serve
    summary's batch occupancy and the exploration's frontier counts.
    """
    values: dict[str, float] = {}
    for span in _CALLS_AND_SELF:
        values[f"{span}.calls"] = tracer.calls.get(span, 0)
    for span in _CALLS_AND_SELF + _SELF_ONLY:
        values[f"{span}.self_s"] = tracer.self_s.get(span, 0.0)
    epoch_calls = (tracer.calls.get("sim.optane.write_epoch", 0)
                   + tracer.calls.get("sim.optane.write_epochs", 0))
    xpline = sim_config.DEFAULT_CONFIG.pm_xpline_bytes
    values["sim.cache.evictions"] = counter.evicted_lines
    values["sim.optane.lines_per_call"] = (
        counter.optane_media_bytes / xpline / epoch_calls if epoch_calls else 0.0)
    values["sim.events.emitted"] = counter.emitted
    values["sim.events.host_us_per_event"] = (
        untraced_wall_s / counter.emitted * 1e6 if counter.emitted else 0.0)
    values["serve.batcher.occupancy"] = facts.get("serve.batcher.occupancy", 0.0)
    values["serve.batcher.flush.p95_us"] = _p95(
        tracer.durations.get("serve.batcher.flush", [])) * 1e6
    recorded = facts.get("check.frontiers_recorded", 0)
    values["check.explored_over_recorded"] = (
        facts.get("check.frontiers_explored", 0) / recorded if recorded else 0.0)
    values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return values


def traced_tracer(clock=time.perf_counter) -> Tracer:
    """A tracer that keeps the durations the derived metrics need."""
    return Tracer(clock=clock, keep_durations=("serve.batcher.flush",))
