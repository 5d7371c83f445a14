#!/usr/bin/env python3
"""Host-time benchmark of the GPM simulator, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the simulator is imported from ``src/``.
With ``--trace 0`` the run measures set-up (``setup_s``, the median of
five fresh processes that import ``repro`` and build the inputs), then one
untimed warm-up iteration, then timed iterations for about ``--seconds``
(at least one), and reports the median iteration time (``norm_wall_s``)
and the process's peak resident memory (``peak_rss_mb``).  Both times are
host seconds rescaled to a fixed reference host speed that is sampled
while they run (:mod:`hostspeed`); the raw wall times are in the
``detail`` line.  With ``--trace 1`` it
runs the same untimed and timed iterations, then one more with every layer
wrapper and an event counter installed, and reports the per-layer metrics
of :mod:`layers`.  Every operation of every iteration is checked; the
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
#: numpy's BLAS runs single-threaded, so each run is one busy thread.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 reproduces the repro all inputs")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed-iteration budget (at least one iteration)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_simulator() -> None:
    """Put ``src/`` first on the path; fail unless ``repro`` loads from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, "
                         f"not {SRC}")


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time importing ``repro`` and building the inputs.

    Prints the raw and the reference-speed seconds.
    """
    def build() -> None:
        import_simulator()
        import cells

        cells.WORKLOADS[workload](seed).build_inputs()

    print(json.dumps(hostspeed.timed(build)))


def measure_setup(workload: str, seed: int) -> list[list[float]]:
    """``SETUP_SAMPLES`` (raw, reference-speed) set-up times."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def timed_iterations(workload, seconds: float, expected: dict | None,
                     ops: list) -> tuple[list[float], list[float]]:
    """Timed iterations until the next one would overrun ``seconds``.

    Returns each iteration's raw and reference-speed seconds.

    Each starts from a collected heap.  Dead simulated machines hold
    reference cycles, so without the collection the garbage of earlier
    iterations piles up until a full collection happens to run: peak
    memory would grow with the iteration count and that collection would
    land in some iteration's time.
    """
    import cells

    walls: list[float] = []
    refs: list[float] = []
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        units = workload.units()
        gc.collect()
        wall_s, ref_s = hostspeed.timed(lambda: cells.execute(units))
        walls.append(wall_s)
        refs.append(ref_s)
        ops.extend(cells.iteration_ops(units, expected))
    return walls, refs


def traced_iteration(workload, untraced_s: float, expected: dict | None,
                     ops: list) -> tuple[dict, dict]:
    """One iteration under every layer wrapper; returns (metrics, simulated).

    ``untraced_s`` is the timed iterations' median at the reference speed.
    The sampler runs here too, so the traced iteration is compared at the
    same speed; the spans' clock leaves the probes out.
    """
    import cells
    import layers

    counter = layers.EventCounter()
    units = workload.units()
    gc.collect()
    with hostspeed.SpeedSampler() as sampler:
        tracer = layers.traced_tracer(clock=sampler.clock)
        with layers.instrumented(tracer, counter):
            start = time.perf_counter()
            tracer.begin(layers.ROOT)
            cells.execute(units)
            tracer.end()
            traced_wall_s = time.perf_counter() - start
    traced_s = hostspeed.at_reference_speed(traced_wall_s, sampler.samples)
    ops.extend(cells.iteration_ops(units, expected))
    facts: dict = {}
    simulated: dict = {}
    for unit in units:
        facts.update(unit.facts)
        if unit.error is None:
            simulated[unit.name] = unit.simulated()
    values = layers.layer_metrics(tracer, counter, facts, untraced_s, traced_s)
    metrics = {name: {"value": values[name], "unit": metric_unit}
               for name, metric_unit in layers.METRICS}
    return metrics, simulated


def host_context() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(SINGLE_THREADED)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_simulator()
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    import cells

    if args.workload not in cells.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(cells.WORKLOADS)}")
    workload = cells.WORKLOADS[args.workload](args.seed)
    workload.build_inputs()
    expected = cells.expected_digests(cells.load_references(), args.workload,
                                      args.seed)

    ops: list = []
    warmup = workload.units()
    cells.execute(warmup)
    ops.extend(cells.iteration_ops(warmup, expected))
    walls, refs = timed_iterations(workload, args.seconds, expected, ops)
    wall = quartiles(walls)
    norm_wall = quartiles(refs)

    simulated = None
    if args.trace:
        metrics, simulated = traced_iteration(workload, norm_wall["median"],
                                              expected, ops)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "norm_wall_s": {"value": norm_wall["median"], "unit": "s"},
            "setup_s": {"value": statistics.median(ref for _, ref in
                                                   setup_samples),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    failed = cells.failures(ops)
    for op in failed:
        print(f"FAILED {op.name}: {'; '.join(op.problems)}", file=sys.stderr)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "wall_s": wall, "norm_wall_s": norm_wall,
        "setup_s_samples": setup_samples,
        "digest_check": "unavailable" if expected is None else "checked",
        "error_rate": len(failed) / len(ops), "host": host_context(),
    }
    if simulated is not None:
        detail["simulated"] = simulated
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
