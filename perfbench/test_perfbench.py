"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import signal
from pathlib import Path

import pytest

from run import import_simulator

import_simulator()

import cells  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
from repro.gpu import device, kernel  # noqa: E402
from repro.sim import optane  # noqa: E402
from repro.sim.cache import LastLevelCache  # noqa: E402
from repro.workloads import GpKvs, GraphBfs, KvsConfig, Mode, make_system  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _small_kvs_cell() -> cells.Cell:
    config = KvsConfig(n_sets=256, ways=8, batch_size=96, set_batches=2,
                       block_dim=32)
    cell = cells.Cell(GpKvs(config), Mode.GPM)
    cells.execute([cell])
    return cell


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_nested_spans_subtract_only_direct_children():
    # outer [0, 20]; a [1, 9] holding b [2, 5]; a again [10, 12]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 5, 9, 10, 12, 20]))
    tracer.begin("outer")
    tracer.begin("a")
    tracer.begin("b")
    tracer.end()
    tracer.end()
    tracer.begin("a")
    tracer.end()
    tracer.end()
    assert tracer.calls == {"outer": 1, "a": 2, "b": 1}
    assert tracer.self_s == {"b": 3, "a": (8 - 3) + 2, "outer": 20 - 8 - 2}


def test_renamed_span_keeps_parent_arithmetic():
    tracer = Tracer(clock=FakeClock([0, 1, 4, 6]))
    traced = tracer.wrap(lambda: "warp", "lane.scalar",
                         rename=lambda out: f"lane.{out}")
    tracer.begin("outer")
    assert traced() == "warp"
    tracer.end()
    assert tracer.self_s == {"lane.warp": 3, "outer": 3}
    assert "lane.scalar" not in tracer.calls


def _reference(units) -> dict:
    return {op.name: cells.digest(op.record)
            for op in cells.iteration_ops(units, None)}


def test_perturbed_record_is_counted_as_failed():
    cell = _small_kvs_cell()
    expected = _reference([cell])
    assert cells.failures(cells.iteration_ops([cell], expected)) == []

    unperturbed = cell.checked_ops

    def perturbed():
        ops = unperturbed()
        ops[0].record["window"]["stats"]["system_fences"] += 1
        return ops

    cell.checked_ops = perturbed
    failed = cells.failures(cells.iteration_ops([cell], expected))
    assert [op.name for op in failed] == ["gpKVS/gpm"]


def _exploration() -> cells.Exploration:
    unit = cells.Exploration("kvs", Mode.GPM, max_frontiers=4)
    cells.execute([unit])
    return unit


def test_exploration_short_of_its_reference_is_counted_as_failed():
    unit = _exploration()
    expected = _reference([unit])
    assert len(expected) > 1
    dropped = unit.report.results.pop()
    ops = cells.iteration_ops([unit], expected)
    assert len(ops) == len(expected)
    assert [op.name for op in cells.failures(ops)] == \
        [f"{unit.name}/{dropped.frontier.spec()}"]


def test_raised_exploration_fails_every_reference_frontier():
    unit = _exploration()
    expected = _reference([unit])
    unit.error = "RuntimeError: injected"
    ops = cells.iteration_ops([unit], expected)
    assert sorted(op.name for op in cells.failures(ops)) == sorted(expected)
    assert len(ops) == len(expected)


def test_seed_without_reference_keeps_functional_checks():
    cell = _small_kvs_cell()
    cell.workload.verify = lambda: False
    ops = cells.iteration_ops([cell], None)
    assert [op.problems for op in cells.failures(ops)] == [["verify() failed"]]


def test_references_cover_every_workload_and_seed():
    references = cells.load_references()
    assert sorted(references) == sorted(cells.WORKLOADS)
    for name in cells.WORKLOADS:
        assert sorted(map(int, references[name])) == \
            list(cells.REFERENCE_SEEDS), name


def test_seed_zero_keeps_repro_all_inputs():
    assert cells.reseed(GpKvs(), 0).config == GpKvs().config
    assert cells.reseed(GpKvs(), 3).config.seed == GpKvs().config.seed + 3
    sources = {cells.reseed(GraphBfs(), s).config.source for s in range(4)}
    assert cells.reseed(GraphBfs(), 0).config.source == GraphBfs().config.source
    assert len(sources) == 4


def test_untraced_runs_keep_the_event_bus_fast_path():
    original = LastLevelCache.__dict__["install_writes"]
    with layers.instrumented(layers.traced_tracer(), layers.EventCounter()):
        assert LastLevelCache.__dict__["install_writes"] is not original
        assert len(make_system(Mode.GPM).events.subscribers) == 2
    assert LastLevelCache.__dict__["install_writes"] is original
    assert len(make_system(Mode.GPM).events.subscribers) == 1


def test_merge_segments_is_wrapped_only_where_optane_calls_it():
    original = optane.merge_segments
    with layers.instrumented(layers.traced_tracer(), layers.EventCounter()):
        assert optane.merge_segments is not original
        assert device.merge_segments is original
        assert kernel.merge_segments is original
    assert optane.merge_segments is original


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(cells.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"norm_wall_s", "setup_s", "peak_rss_mb"}


def test_reference_speed_removes_probe_time_and_rescales():
    ref = hostspeed.REF_PROBE_S
    # at the reference speed only the probes' own time is taken out
    assert hostspeed.at_reference_speed(1.0, [ref] * 10) == \
        pytest.approx(1.0 - 10 * ref)
    # a host running at half speed halves what is left
    assert hostspeed.at_reference_speed(2.0, [2 * ref] * 10) == \
        pytest.approx((2.0 - 20 * ref) / 2)
    # half the time at each speed: the mean rate of progress is 3/4
    assert hostspeed.at_reference_speed(1.0, [ref, 2 * ref]) == \
        pytest.approx((1.0 - 3 * ref) * 0.75)


def test_sampler_probes_while_running_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedSampler() as sampler:
        hostspeed.time.sleep(10 * hostspeed.INTERVAL_S)
    assert len(sampler.samples) >= 3
    assert sampler.probe_s == pytest.approx(sum(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_span_clock_leaves_probes_out():
    with hostspeed.SpeedSampler() as sampler:
        start, span_start = hostspeed.time.perf_counter(), sampler.clock()
        while len(sampler.samples) < 3:
            hostspeed.probe()
        wall = hostspeed.time.perf_counter() - start
        span = sampler.clock() - span_start
    assert span == pytest.approx(wall - sampler.probe_s, abs=1e-4)
