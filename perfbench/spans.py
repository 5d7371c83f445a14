"""Span recording for the traced run: per-name call counts and self time.

Spans are opened and closed around calls into the simulator by wrappers the
benchmark installs on public classes and functions for the length of one
traced iteration (:class:`Patches`); nothing under ``src/`` knows about them.
Spans nest on one stack, so a layer's *self* time is its span time minus the
time its direct child spans cover - work done inside a nested layer is
charged to that layer only.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Aggregates nested spans by name, in memory."""

    def __init__(self, clock=time.perf_counter, keep_durations=()) -> None:
        self._clock = clock
        self._keep = frozenset(keep_durations)
        #: name -> number of closed spans
        self.calls: dict[str, int] = {}
        #: name -> summed self time (seconds)
        self.self_s: dict[str, float] = {}
        #: name -> every span duration, for the names in ``keep_durations``
        self.durations: dict[str, list[float]] = {}
        self._stack: list[list] = []  # [name, start, child seconds]

    def begin(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def end(self, name: str | None = None) -> float:
        """Close the innermost span, optionally renaming it; returns its duration."""
        frame = self._stack.pop()
        duration = self._clock() - frame[1]
        name = name or frame[0]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
        if name in self._keep:
            self.durations.setdefault(name, []).append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def wrap(self, fn, name: str, rename=None):
        """``fn`` inside a span; ``rename(result)`` may rename a returning span."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(name)
            renamed = None
            try:
                out = fn(*args, **kwargs)
                if rename is not None:
                    renamed = rename(out)
                return out
            finally:
                end(renamed)

        return traced


class Patches:
    """Attribute replacements that are undone on exit, in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (a class's method or a module's function)
        with ``make(original)``.

        Only this one binding changes: a module that imported the function
        under its own name keeps calling the original.
        """
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
