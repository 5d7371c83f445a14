"""Differential test: the columnar LLC against the ``OrderedDict`` oracle.

``llc_oracle.LastLevelCache`` is the dirty set as one ``OrderedDict`` entry
per line with one ``write_epoch`` per written-back line.  Two machines, one
with each cache, run the same operations over several PM regions at an
8-line DDIO window, so eviction bursts are frequent and mix regions.  Their
event streams (as JSONL), dirty sets and persisted images must match
exactly - including at every crash frontier of a fixed scenario, where a
crash can land inside an eviction burst or a flush.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from llc_oracle import LastLevelCache as OracleCache
from repro.sim import Machine, SystemConfig
from repro.sim.crash import CrashInjector, SimulatedCrash
from repro.sim.trace import TraceRecorder

LINE = 64
CONFIG = SystemConfig().with_overrides(llc_ddio_bytes=8 * LINE)
#: Two regions end in a short line; one is line-aligned.
SIZES = {"a": 40 * LINE + 24, "b": 24 * LINE, "c": 6 * LINE + 8}


class Rig:
    """One machine, its event stream, and the live regions by name."""

    def __init__(self, oracle: bool, eadr: bool) -> None:
        self.machine = Machine(CONFIG, persistency="eadr" if eadr else "strict")
        if oracle:
            m = self.machine
            m.llc = OracleCache(CONFIG, m.events, m.optane)
        self.trace = TraceRecorder()
        self.machine.events.subscribe(self.trace)
        self.regions = {name: self.machine.alloc_pm(name, size)
                        for name, size in SIZES.items()}
        self.serial = 0

    def _store(self, region, start: int, length: int) -> None:
        # Fresh bytes per store, so a write-back of stale or missing data
        # shows in the persisted image.
        self.serial += 1
        end = min(start + length, region.size)
        region.visible[start:end] = self.serial % 251 + 1

    def apply(self, op: tuple) -> None:
        kind, name, *args = op
        m = self.machine
        region = self.regions[name]
        if kind == "install":
            segments = [(s % region.size, n) for s, n in args[0]]
            segments = [(s, min(n, region.size - s)) for s, n in segments]
            for s, n in segments:
                self._store(region, s, n)
            m.llc.install_writes(region, [s for s, _ in segments],
                                 [n for _, n in segments])
        elif kind in ("flush", "drop"):
            offset, size = args
            offset %= region.size
            size = min(size, region.size - offset)
            if kind == "flush":
                m.llc.flush_range(region, offset, size)
            else:
                m.llc.drop_range(region, offset, size)
        elif kind == "free":
            m.free(region)
            self.regions[name] = m.alloc_pm(name, SIZES[name])
        elif kind == "crash":
            m.crash()

    def state(self) -> tuple:
        return (
            len(self.machine.llc),
            {n: self.machine.llc.dirty_lines(r) for n, r in self.regions.items()},
            {n: r.persisted.tobytes() for n, r in self.regions.items()},
            {n: r.visible.tobytes() for n, r in self.regions.items()},
        )


names = st.sampled_from(sorted(SIZES))
segment = st.tuples(st.integers(0, 45 * LINE), st.integers(0, 5 * LINE))
ops = st.one_of(
    st.tuples(st.just("install"), names, st.lists(segment, min_size=1, max_size=4)),
    # One segment longer than two DDIO windows takes the streaming path.
    st.tuples(st.just("install"), names,
              st.lists(st.tuples(st.integers(0, 8 * LINE),
                                 st.integers(17 * LINE, 40 * LINE)),
                       min_size=1, max_size=2)),
    st.tuples(st.sampled_from(["flush", "drop"]), names,
              st.integers(0, 45 * LINE), st.integers(0, 12 * LINE)),
    st.tuples(st.just("free"), names),
    st.tuples(st.just("crash"), names),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(ops, max_size=25), eadr=st.booleans())
def test_random_programs_match_the_oracle(program, eadr):
    new, ref = Rig(oracle=False, eadr=eadr), Rig(oracle=True, eadr=eadr)
    for op in program:
        new.apply(op)
        ref.apply(op)
        assert new.state() == ref.state(), op
    new.machine.crash()
    ref.machine.crash()
    assert new.state() == ref.state()
    assert new.trace.to_jsonl() == ref.trace.to_jsonl()


#: Evictions from one region and from interleaved regions, hits that
#: reorder the LRU, flushes and drops of partly dirty ranges, and a free.
SCENARIO = (
    ("install", "a", [(0, 6 * LINE)]),
    ("install", "b", [(0, 2 * LINE), (5 * LINE, 2 * LINE)]),
    ("install", "a", [(LINE, LINE)]),
    ("install", "c", [(0, 3 * LINE), (LINE, 2 * LINE)]),
    ("flush", "a", 0, 3 * LINE),
    ("install", "b", [(10 * LINE, 4 * LINE), (2 * LINE, 40)]),
    ("drop", "b", 0, 6 * LINE),
    ("install", "a", [(20 * LINE, 5 * LINE)]),
    ("flush", "b", 0, SIZES["b"]),
    ("install", "c", [(5 * LINE, LINE + 8)]),
    ("free", "a"),
    ("install", "b", [(0, 7 * LINE), (12 * LINE, 3 * LINE)]),
    ("install", "a", [(30 * LINE, 4 * LINE)]),
    ("flush", "c", 0, SIZES["c"]),
)


def run_scenario(oracle: bool, eadr: bool, frontier: int | None) -> Rig:
    rig = Rig(oracle=oracle, eadr=eadr)
    if frontier is not None:
        CrashInjector(rig.machine).arm_at_frontier(frontier)
    try:
        for op in SCENARIO:
            rig.apply(op)
        rig.machine.crash()
    except SimulatedCrash:
        pass
    return rig


@pytest.mark.parametrize("eadr", [False, True], ids=["adr", "eadr"])
def test_every_crash_frontier_matches_the_oracle(eadr):
    ref = run_scenario(oracle=True, eadr=eadr, frontier=None)
    frontiers = sum(1 for _, ev in ref.trace.records
                    if type(ev).frontier_kind is not None)
    assert frontiers >= 20
    for n in range(frontiers):
        new = run_scenario(oracle=False, eadr=eadr, frontier=n)
        ref = run_scenario(oracle=True, eadr=eadr, frontier=n)
        assert new.trace.to_jsonl() == ref.trace.to_jsonl(), n
        assert new.state() == ref.state(), n


def test_scenario_crashes_inside_eviction_bursts():
    # The frontier sweep above is only meaningful if some crash lands on
    # a victim's epoch while later victims are still in flight.
    ref = run_scenario(oracle=True, eadr=True, frontier=None)
    evictions = [ev.lines for _, ev in ref.trace.records
                 if ev.etype == "llc_evict"]
    assert max(evictions) >= 3
    assert sum(1 for lines in evictions if lines > 1) >= 2
