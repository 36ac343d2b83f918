"""Outside-in host-time attribution: wrap layer entry points, measure self time.

The benchmark never edits the simulator to trace it.  Instead a
:class:`LayerTracer` temporarily replaces the public entry point of each
model layer (a method on its class) with a timing wrapper, and restores
the original on exit.  Wrapped calls nest — ``MiniNova.run`` calls
``ParavirtUcos.step`` calls ``GuestExecutor.bulk`` calls
``MemorySystem.sample_block`` — so each span records its *self* time: its
own duration minus the durations of the wrapped spans it directly
contains.  Self times of all spans therefore add up to the wall time of
the outermost span, and a slowdown planted inside one layer's function
shows up in that layer's self time only.

A :class:`Point` may also carry a ``count`` hook that turns the call's
arguments (or its result) into exact work counts, such as the number of
sampled accesses in a ``sample_block`` call.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Point:
    """One wrapped entry point: ``owner.attr`` reported as span ``name``.

    ``timed=False`` only counts calls: the call's time stays with the
    enclosing span, which keeps a very hot, very short function from
    being charged mostly wrapper overhead.  ``count(tracer, args,
    kwargs, result)`` adds extra exact counts after each call.
    """

    owner: type
    attr: str
    name: str
    timed: bool = True
    count: Callable[..., None] | None = None
    #: Keep every call's duration (for per-call percentiles).
    keep_durations: bool = False


class LayerTracer:
    """Installs timing wrappers for a set of :class:`Point` and collects
    per-span self time, call counts and extra counts.

    Use as a context manager; the wrappers exist only inside the
    ``with`` block, so runs outside it execute the unmodified program.
    """

    def __init__(self, points: tuple[Point, ...],
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.points = points
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        #: Child-time accumulators of the open timed spans, innermost last.
        self._stack: list[list[float]] = []
        self._saved: list[tuple[type, str, Any]] = []

    def __enter__(self) -> "LayerTracer":
        try:
            for p in self.points:
                original = p.owner.__dict__[p.attr]
                self._saved.append((p.owner, p.attr, original))
                setattr(p.owner, p.attr, self._wrap(p, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, p: Point, fn: Callable[..., Any]) -> Callable[..., Any]:
        name, count = p.name, p.count
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = self.clock
        durations = self.durations[name] if p.keep_durations else None

        if not p.timed:
            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                calls[name] += 1
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self, args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - child[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dt
                if durations is not None:
                    durations.append(dt)
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return timed
