"""Differential test: ``OptaneModel.write_epochs`` against per-group epochs.

``write_epochs`` copies a call's bytes once, when the call ends, and
relies on ``Machine.crash()`` settling the groups already emitted before
it applies crash semantics.  The reference drains the same groups with one
``write_epoch`` call each, which persists every group before emitting its
event.  Both must leave identical event streams, per-group media times,
persisted and visible images and stream state - also when a crash lands on
any frontier event inside the call, with a dirty LLC that eADR drains.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Machine, SystemConfig
from repro.sim.crash import CrashInjector, SimulatedCrash
from repro.sim.events import OptaneEpoch, TraceMark, WarpDrain
from repro.sim.optane import merge_segments_grouped
from repro.sim.trace import TraceRecorder

LINE = 64
CONFIG = SystemConfig().with_overrides(llc_ddio_bytes=8 * LINE)
SIZE = 48 * LINE + 40


def grouped_runs(groups):
    """Pre-merged ``(starts, lengths, group_ids)`` runs of raw groups."""
    starts, lengths, ids = [], [], []
    for g, segments in enumerate(groups):
        for start, length in segments:
            starts.append(start)
            lengths.append(min(length, SIZE - start))
            ids.append(g)
    return merge_segments_grouped(np.array(starts), np.array(lengths),
                                  np.array(ids), SIZE + 1)


class Rig:
    """A machine with two PM regions of distinct fresh bytes."""

    def __init__(self, eadr: bool = False) -> None:
        self.machine = Machine(CONFIG, persistency="eadr" if eadr else "strict")
        self.trace = TraceRecorder()
        self.machine.events.subscribe(self.trace)
        self.region = self.machine.alloc_pm("r", SIZE)
        self.other = self.machine.alloc_pm("o", SIZE)
        self.region.visible[:] = np.arange(SIZE) % 251 + 1
        self.other.visible[:] = np.arange(SIZE) % 241 + 7

    def drain(self, runs, batched: bool, hooks: bool = False):
        """Drain ``runs`` as one ``write_epochs`` call or per-group epochs.

        With ``hooks``, each group is bracketed by frontier events the way
        the launch engine (a ``WarpDrain`` first) and the machine (an
        event after the epoch) bracket theirs.
        """
        starts, lengths, groups = runs
        n_groups = int(groups[-1]) + 1
        bounds = np.searchsorted(groups, np.arange(n_groups + 1))
        emit = self.machine.events.emit
        name = self.region.name

        def before(g: int) -> None:
            lo, hi = bounds[g], bounds[g + 1]
            emit(WarpDrain(region=name, round_no=g, segments=int(hi - lo),
                           nbytes=int(lengths[lo:hi].sum()),
                           starts=starts[lo:hi], lengths=lengths[lo:hi]))

        def after(g: int, logical_bytes: int) -> None:
            emit(TraceMark(category="test", label=f"{g}:{logical_bytes}"))

        optane = self.machine.optane
        if batched:
            return optane.write_epochs(
                self.region, starts, lengths, groups, n_groups,
                after_group=after if hooks else None,
                before_group=before if hooks else None).tolist()
        times = []
        for g in range(n_groups):
            lo, hi = bounds[g], bounds[g + 1]
            if hooks:
                before(g)
            times.append(optane.write_epoch(self.region, starts[lo:hi], lengths[lo:hi]))
            if hooks:
                after(g, int(lengths[lo:hi].sum()))
        return times

    def state(self) -> tuple:
        optane = self.machine.optane
        names = {r.token: r.name for r in self.machine.regions}
        return (
            self.trace.to_jsonl(),
            len(self.machine.llc),
            (optane._last_line, names.get(optane._last_region)),
            self.region.persisted.tobytes(), self.region.visible.tobytes(),
            self.other.persisted.tobytes(), self.other.visible.tobytes(),
        )


segment = st.tuples(st.integers(0, SIZE - 1), st.integers(1, 5 * LINE))
#: Groups overlap each other freely; within a group the merge makes the
#: runs disjoint, as ``write_epochs`` requires.
groups = st.lists(st.lists(segment, min_size=1, max_size=4), min_size=1, max_size=10)


@settings(max_examples=150, deadline=None)
@given(groups=groups, prior=st.sampled_from(["none", "same", "other"]),
       hooks=st.booleans())
def test_grouped_drain_matches_per_group_epochs(groups, prior, hooks):
    runs = grouped_runs(groups)
    new, ref = Rig(), Rig()
    times = []
    for rig, batched in ((new, True), (ref, False)):
        # The stream state the first group chains from.
        if prior == "same":
            rig.machine.optane.write_epoch(rig.region, [5 * LINE], [LINE])
        elif prior == "other":
            rig.machine.optane.write_epoch(rig.other, [0], [LINE])
        times.append(rig.drain(runs, batched, hooks))
    assert times[0] == times[1]
    assert new.state() == ref.state()


#: Five groups over ``r``'s lines 0-24, overlapping across groups; group 3
#: reaches back behind the stream, group 4 ends on an XPLine boundary.
SCENARIO = [
    [(0, 3 * LINE)],
    [(2 * LINE, 3 * LINE), (9 * LINE, 40)],
    [(4 * LINE + 8, 4 * LINE)],
    [(LINE, 2 * LINE), (14 * LINE, LINE), (17 * LINE, 20)],
    [(16 * LINE, 8 * LINE)],
]
#: Dirty lines the eADR drain writes back after the crash: some of ``r``
#: right after (and inside) the groups' lines, so the drain's sequentiality
#: depends on where the settled prefix left the stream, and one of ``o``.
DIRTY = [("r", 24 * LINE, 3 * LINE), ("r", 6 * LINE, LINE), ("o", 0, 2 * LINE)]
#: Frontier events inside the call: WarpDrain, OptaneEpoch, TraceMark.
FRONTIERS_PER_GROUP = 3


def run_crash_scenario(batched: bool, eadr: bool, frontier: int) -> Rig:
    rig = Rig(eadr=eadr)
    for name, offset, size in DIRTY:
        region = rig.machine.region(name)
        region.visible[offset:offset + size] ^= 0x5A
        rig.machine.cpu_store_arrival(region, offset, size)
    CrashInjector(rig.machine).arm_at_frontier(frontier)
    with pytest.raises(SimulatedCrash):
        rig.drain(grouped_runs(SCENARIO), batched, hooks=True)
    return rig


@pytest.mark.parametrize("eadr", [False, True], ids=["adr", "eadr"])
def test_every_frontier_inside_the_call_matches_per_group_epochs(eadr):
    for n in range(len(SCENARIO) * FRONTIERS_PER_GROUP):
        new = run_crash_scenario(batched=True, eadr=eadr, frontier=n)
        ref = run_crash_scenario(batched=False, eadr=eadr, frontier=n)
        assert new.state() == ref.state(), n


def test_scenario_crash_images_differ_by_frontier():
    # The sweep above only means something if the crash images differ
    # between frontiers and the eADR drain's pricing depends on the
    # settled stream position.
    images = {run_crash_scenario(True, False, n).region.persisted.tobytes()
              for n in range(len(SCENARIO) * FRONTIERS_PER_GROUP)}
    assert len(images) == len(SCENARIO) + 1

    def drain_epochs(frontier):
        rig = run_crash_scenario(True, True, frontier)
        crash = next(i for i, (_, ev) in enumerate(rig.trace.records)
                     if ev.etype == "crash")
        return [(ev.region, ev.random_starts) for _, ev in rig.trace.records[crash:]
                if ev.etype == "optane_epoch"]

    # Crashing on group 4's WarpDrain leaves the stream behind line 24;
    # crashing on its epoch leaves it right before.
    assert drain_epochs(12) != drain_epochs(13)


class Boom(Exception):
    pass


@pytest.mark.parametrize("at_epoch", [0, 2, 4])
def test_exception_mid_call_persists_the_emitted_groups(at_epoch):
    """A non-crash exception from a subscriber settles the finished prefix.

    Otherwise a later crash would copy whatever ``visible`` holds then.
    """
    rigs = []
    for batched in (True, False):
        rig = Rig()
        seen = []

        def explode(ts, event, seen=seen):
            if type(event) is OptaneEpoch:
                seen.append(event)
                if len(seen) == at_epoch + 1:
                    raise Boom

        rig.machine.events.subscribe(explode)
        with pytest.raises(Boom):
            rig.drain(grouped_runs(SCENARIO), batched)
        rig.machine.events.unsubscribe(explode)
        rig.region.visible[:] = 0xEE
        rig.machine.crash()
        rigs.append(rig)
    new, ref = rigs
    assert new.state() == ref.state()
    # The model takes the next call as usual.
    for rig in rigs:
        rig.drain(grouped_runs(SCENARIO[:2]), batched=rig is new)
    assert new.state() == ref.state()
