"""The benchmark's four workloads, their seeded inputs, and the output checks.

A workload iteration is a list of *units* - one workload run under one
mode, one served window, or one crash exploration - each calling the
simulator's public entry points directly (never the experiment runner's
memo or disk cache).  After the timer stops, every unit turns into
*operations* (:class:`Op`): one per cell, one per served window, one per
explored crash frontier.  An operation fails if its unit raised, if its
functional check failed, or if the digest of its simulated record differs
from the reference kept in ``references.json`` for this workload and seed;
a reference operation that the iteration did not produce fails too.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.check import explore
from repro.experiments.diskcache import result_to_record
from repro.serve import ServiceConfig, run_service
from repro.serve.store import serve_invariants
from repro.serve.traffic import TrafficGenerator
from repro.workloads import (
    BlackScholes,
    DnnTraining,
    GraphBfs,
    LeNet,
    Mode,
    gpmbench_suite,
    make_road_graph,
    make_system,
    synthetic_mnist,
)

REFERENCES = Path(__file__).with_name("references.json")
#: The seeds ``references.json`` holds digests for, for every workload.
REFERENCE_SEEDS = range(20)


@dataclass
class Op:
    """One checked operation: its simulated record and any failures."""

    name: str
    record: object = None
    problems: list[str] = field(default_factory=list)


def digest(record) -> str:
    """Short, exact digest of a JSON-able simulated record."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# seeded inputs
# --------------------------------------------------------------------------


def reseed(workload, seed: int):
    """Derive a GPMbench workload's inputs from the benchmark seed.

    Seed 0 leaves every input as ``python -m repro all`` builds it.  Other
    seeds offset each workload's own input seed, so the values change but
    the amount of work does not.  BFS has no random input at its default
    (shortcut-free) scale; its seed picks one of the grid's four corners
    as the source, which keeps the level count and frontier sizes.  CFD
    and HS take no seed and stay fixed.
    """
    if isinstance(workload, GraphBfs):
        cfg = workload.config
        corners = (0, cfg.cols - 1, (cfg.rows - 1) * cfg.cols,
                   cfg.rows * cfg.cols - 1)
        cfg.source = corners[seed % 4]
    elif hasattr(getattr(workload, "config", None), "seed"):
        workload.config.seed += seed
    elif hasattr(workload, "seed"):
        workload.seed += seed
    return workload


def build_bfs_graph(bfs: GraphBfs) -> None:
    """Build (and cache) the road graph the BFS run reads."""
    cfg = bfs.config
    make_road_graph(cfg.rows, cfg.cols, cfg.seed, cfg.shortcut_fraction)


def build_dnn_inputs(dnn: DnnTraining) -> None:
    """Build the MNIST batches and pay the first training pass's lazy set-up.

    The first LeNet step of a process costs about 0.8 s more than later
    ones (numpy's first-touch set-up), which belongs to set-up time rather
    than to any measured iteration.
    """
    images, labels = synthetic_mnist(dnn.dataset_size, seed=dnn.seed,
                                     size=LeNet.IMAGE_SIZE)
    LeNet(seed=dnn.seed).train_step(images[:dnn.batch_size],
                                    labels[:dnn.batch_size])


# --------------------------------------------------------------------------
# units
# --------------------------------------------------------------------------


class Unit:
    """One timed piece of an iteration; :meth:`ops` checks it afterwards."""

    name = ""

    def __init__(self) -> None:
        self.error: str | None = None
        #: values the traced run's per-layer metrics read from the outputs
        self.facts: dict = {}

    def execute(self) -> None:
        try:
            self.run()
        except Exception:  # a failed operation is counted, not fatal
            self.error = traceback.format_exc(limit=4)

    def run(self) -> None:
        raise NotImplementedError

    def ops(self, expected: dict | None = None) -> list[Op]:
        """The unit's checked operations.

        A unit that raised fails every operation ``expected`` (the
        reference's op name -> digest) holds for it, so an exploration
        that raised counts once per frontier it should have explored.
        """
        if self.error is None:
            return self.checked_ops()
        names = [name for name in expected or ()
                 if name == self.name or name.startswith(self.name + "/")]
        return [Op(name, problems=[f"raised: {self.error}"])
                for name in names or [self.name]]

    def checked_ops(self) -> list[Op]:
        raise NotImplementedError

    def simulated(self) -> dict:
        """Deterministic simulated figures of a unit that ran, for the trace."""
        raise NotImplementedError


class Cell(Unit):
    """One GPMbench workload run under one persistence mode."""

    def __init__(self, workload, mode: Mode) -> None:
        super().__init__()
        self.workload = workload
        self.mode = mode
        self.name = f"{workload.name}/{mode.value}"

    def run(self) -> None:
        self.result = self.workload.run(self.mode, system=make_system(self.mode))

    def checked_ops(self) -> list[Op]:
        op = Op(self.name, result_to_record(self.result))
        verify = getattr(self.workload, "verify", None)
        if verify is not None and not verify():
            op.problems.append("verify() failed")
        return [op]

    def simulated(self) -> dict:
        # Simulated seconds and the cell's MachineStats delta.
        return {"elapsed": self.result.elapsed,
                "stats": result_to_record(self.result)["window"]["stats"]}


class ServeWindow(Unit):
    """One open-loop served window over the sharded gpKVS store."""

    def __init__(self, config: ServiceConfig) -> None:
        super().__init__()
        self.config = config
        self.name = f"serve/{config.mode}"

    def run(self) -> None:
        self.system = make_system(Mode.from_name(self.config.mode))
        self.out = run_service(self.config, system=self.system)

    def checked_ops(self) -> list[Op]:
        summary = self.out["summary"]
        self.facts["serve.batcher.occupancy"] = summary["batch_occupancy"]
        op = Op(self.name, summary)
        for name, _desc, check in serve_invariants(self.system):
            ok, detail = check()
            if not ok:
                op.problems.append(f"{name}: {detail}")
        return [op]

    def simulated(self) -> dict:
        summary = self.out["summary"]
        return {key: summary[key]
                for key in ("elapsed", "completed", "batches", "shed")}


class Exploration(Unit):
    """``repro.check.explore`` of one target; one operation per frontier."""

    def __init__(self, target: str, mode: Mode, max_frontiers: int) -> None:
        super().__init__()
        self.target = target
        self.mode = mode
        self.max_frontiers = max_frontiers
        self.name = f"check/{target}/{mode.value}"

    def run(self) -> None:
        self.report = explore(self.target, self.mode,
                              max_frontiers=self.max_frontiers)

    def checked_ops(self) -> list[Op]:
        report = self.report
        self.facts["check.frontiers_recorded"] = report.frontiers_recorded
        self.facts["check.frontiers_explored"] = report.frontiers_explored
        ops = []
        for result in report.results:
            spec = result.frontier.spec()
            record = {
                "frontiers_recorded": report.frontiers_recorded,
                "frontier": spec,
                "kind": result.frontier.kind,
                "status": result.status,
                "verdicts": [[v.name, v.ok] for v in result.verdicts],
            }
            op = Op(f"{self.name}/{spec}", record)
            if result.status != "ok":
                op.problems.append(f"{result.status}: {result.error}".strip())
            ops.append(op)
        return ops

    def simulated(self) -> dict:
        return {"frontiers_recorded": self.report.frontiers_recorded,
                "frontiers_explored": self.report.frontiers_explored}


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Workload:
    """A named, seeded set of units the benchmark times as one iteration."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build_inputs(self) -> None:
        """Build what an iteration reads; timed as part of ``setup_s``."""

    def units(self) -> list[Unit]:
        raise NotImplementedError


class CkptOptane(Workload):
    """BLK under gpm-eadr and DNN under gpm-ndp: both routes into Optane."""

    name = "ckpt-optane"

    def _blk(self):
        return reseed(BlackScholes(), self.seed)

    def _dnn(self):
        return reseed(DnnTraining(), self.seed)

    def build_inputs(self) -> None:
        # The option set lives in the workload's simulated device memory,
        # so it is built on a throwaway machine.
        self._blk().setup(make_system(Mode.GPM_EADR))
        build_dnn_inputs(self._dnn())

    def units(self) -> list[Unit]:
        return [Cell(self._blk(), Mode.GPM_EADR),
                Cell(self._dnn(), Mode.GPM_NDP)]


class BfsCapFs(Workload):
    """BFS under cap-fs: the workload where the LLC model dominates."""

    name = "bfs-capfs"

    def _bfs(self):
        return reseed(GraphBfs(), self.seed)

    def build_inputs(self) -> None:
        build_bfs_graph(self._bfs())

    def units(self) -> list[Unit]:
        return [Cell(self._bfs(), Mode.CAP_FS)]


class GpmLineup(Workload):
    """The eleven Fig. 9 workloads under gpm: the warp-lane control."""

    name = "gpm-lineup"

    def _suite(self):
        return [reseed(w, self.seed) for w in gpmbench_suite()]

    def build_inputs(self) -> None:
        for w in self._suite():
            if isinstance(w, GraphBfs):
                build_bfs_graph(w)
            elif isinstance(w, DnnTraining):
                build_dnn_inputs(w)

    def units(self) -> list[Unit]:
        return [Cell(w, Mode.GPM) for w in self._suite()]


class KvsServeCheck(Workload):
    """One served window, then a 40-frontier crash exploration of gpKVS."""

    name = "kvs-serve-check"
    #: ServiceConfig's own seed; benchmark seed 0 keeps it.
    BASE_SEED = ServiceConfig().seed

    def _service(self) -> ServiceConfig:
        # Every traffic parameter is spelled out so that a change of
        # ServiceConfig's defaults cannot silently change this workload.
        return ServiceConfig(mode="gpm", tenants=2, rate=500_000.0,
                             duration=10e-3, theta=0.99, read_fraction=0.5,
                             delete_fraction=0.05,
                             seed=self.BASE_SEED + self.seed)

    def build_inputs(self) -> None:
        TrafficGenerator(self._service().traffic()).streams()

    def units(self) -> list[Unit]:
        # The exploration's gpKVS keys are fixed by repro.check's pinned
        # oracle; the seed moves the served traffic's keys and arrivals.
        return [ServeWindow(self._service()),
                Exploration("kvs", Mode.GPM, max_frontiers=40)]


WORKLOADS = {w.name: w for w in (CkptOptane, BfsCapFs, GpmLineup, KvsServeCheck)}


# --------------------------------------------------------------------------
# iterations and the output check
# --------------------------------------------------------------------------


def execute(units: list[Unit]) -> None:
    for unit in units:
        unit.execute()


def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)


def iteration_ops(units: list[Unit], expected: dict | None) -> list[Op]:
    """The checked operations of one executed iteration.

    ``expected`` maps every operation of the reference iteration to the
    digest of its simulated record.  An operation fails if its digest
    differs or it has no reference, and every reference operation the
    iteration did not produce is added as a failed one.  With ``expected``
    None (no reference for this seed) the digest check is unavailable and
    only the functional checks count.
    """
    ops = [op for unit in units for op in unit.ops(expected)]
    if expected is None:
        return ops
    for op in ops:
        if op.record is None:
            continue
        want = expected.get(op.name)
        got = digest(op.record)
        if want is None:
            op.problems.append("no reference digest for this operation")
        elif got != want:
            op.problems.append(f"simulated record digest {got} != reference {want}")
    produced = {op.name for op in ops}
    ops.extend(Op(name, problems=["missing: the reference iteration produced it"])
               for name in expected if name not in produced)
    return ops


def failures(ops: list[Op]) -> list[Op]:
    """The failed operations; ``len(failures) / len(ops)`` is the error rate."""
    return [op for op in ops if op.problems]


def expected_digests(references: dict, workload: str, seed: int) -> dict | None:
    return references.get(workload, {}).get(str(seed))
