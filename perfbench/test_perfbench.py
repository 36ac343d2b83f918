"""Self-checks of the benchmark's host-time attribution.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import time

import pytest

import run as bench
from hosttrace import LayerTracer, Point
from layers import trace_points
from workloads import Rep


# -- synthetic nesting ---------------------------------------------------------

class FakeClock:
    """A clock the synthetic layers advance by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


CLOCK = FakeClock()


class Layers:
    """outer (1 s own) -> 2 x middle (2 s own) -> inner (3 s own)."""

    def outer(self) -> None:
        CLOCK.now += 1.0
        self.middle()
        self.middle()

    def middle(self) -> None:
        CLOCK.now += 2.0
        self.inner()

    def inner(self) -> None:
        CLOCK.now += 3.0

    def fails(self) -> None:
        CLOCK.now += 4.0
        raise ValueError("boom")


def synthetic_points() -> tuple[Point, ...]:
    return (Point(Layers, "outer", "outer"),
            Point(Layers, "middle", "middle"),
            Point(Layers, "inner", "inner", keep_durations=True),
            Point(Layers, "fails", "fails"))


def test_nested_self_times_are_exact():
    tracer = LayerTracer(synthetic_points(), clock=CLOCK)
    with tracer:
        Layers().outer()
    assert dict(tracer.self_s) == {"outer": 1.0, "middle": 4.0,
                                   "inner": 6.0}
    assert dict(tracer.calls) == {"outer": 1, "middle": 2, "inner": 2}
    assert tracer.durations["inner"] == [3.0, 3.0]
    # Self times partition the outermost span's wall time.
    assert sum(tracer.self_s.values()) == 11.0


def test_exception_closes_span_and_charges_parent():
    tracer = LayerTracer(synthetic_points(), clock=CLOCK)

    def outer_that_fails(self):
        CLOCK.now += 1.0
        try:
            self.fails()
        except ValueError:
            pass

    Layers.outer_that_fails = outer_that_fails
    try:
        points = synthetic_points() + (
            Point(Layers, "outer_that_fails", "parent"),)
        tracer = LayerTracer(points, clock=CLOCK)
        with tracer:
            Layers().outer_that_fails()
    finally:
        del Layers.outer_that_fails
    assert dict(tracer.self_s) == {"fails": 4.0, "parent": 1.0}


def test_wrappers_are_removed_on_exit_and_on_error():
    originals = {p.attr: Layers.__dict__[p.attr] for p in synthetic_points()}
    with pytest.raises(ValueError):
        with LayerTracer(synthetic_points(), clock=CLOCK):
            assert Layers.__dict__["inner"] is not originals["inner"]
            Layers().fails()
    assert {a: Layers.__dict__[a] for a in originals} == originals


# -- untraced runs execute the unmodified program --------------------------------

def _installed() -> list[str]:
    """Entry points that currently carry a wrapper."""
    return [p.name for p in trace_points()
            if hasattr(p.owner.__dict__[p.attr], "__wrapped__")]


class ProbeWorkload:
    """Records, from inside its timed phase, which wrappers are active."""

    def __init__(self) -> None:
        self.seen: list[list[str]] = []

    def build(self, seed):
        return seed

    def run(self, built, clock):
        self.seen.append(_installed())
        time.sleep(0.001)

    def evaluate(self, built, clock):
        return Rep(cycles=1, slices=clock.slices, refs=clock.refs,
                   report={}, model={}, fingerprint="same")

    def close(self, built):
        pass


def test_untraced_repetitions_run_without_wrappers():
    assert _installed() == []
    wl = ProbeWorkload()
    untraced, traced, _ = bench.measure(wl, seed=1, seconds=0.01, traced=True)
    assert len(untraced) == len(traced) == bench.MIN_TRACE_PAIRS
    every = [p.name for p in trace_points()]
    # measure() alternates: untraced, traced, untraced, traced.
    assert wl.seen == [[], every, [], every]
    assert _installed() == []


# -- a planted slowdown is attributed to its layer --------------------------------

def _traced_run(plant: str | None = None,
                delay_s: float = 0.0) -> LayerTracer:
    """One traced short dpr_storm-like run, with a busy wait of
    ``delay_s`` planted inside the entry point of span ``plant``."""
    from repro.eval.scenarios import build_virtualized
    points = {p.name: p for p in trace_points()}
    saved = None
    if plant is not None:
        p = points[plant]
        saved = p.owner.__dict__[p.attr]

        def slowed(*args, **kwargs):
            end = time.perf_counter() + delay_s
            while time.perf_counter() < end:
                pass
            return saved(*args, **kwargs)
        setattr(p.owner, p.attr, slowed)
    try:
        sc = build_virtualized(2, seed=3, with_workloads=False, tick_hz=1000)
        tracer = LayerTracer(tuple(points.values()))
        with tracer:
            sc.run_ms(20.0)
    finally:
        if saved is not None:
            setattr(points[plant].owner, points[plant].attr, saved)
    return tracer


# Per-call delays that add about 0.3 s to a run of about 0.13 s.  Host
# noise can double the unplanted layers' self times; the busy wait is
# wall time and does not move with it.
@pytest.mark.parametrize("plant,delay_s", [("hwmgr.step", 0.06),
                                           ("guest.step", 0.01),
                                           ("mem.touch", 0.00003)])
def test_planted_busy_wait_is_attributed_to_its_layer(plant, delay_s):
    base: dict[str, float] = {}
    slow: dict[str, float] = {}
    for _ in range(3):          # interleaved, best of 3 for each side
        for best, tracer in ((base, _traced_run()),
                             (slow, _traced_run(plant, delay_s))):
            for name, s in tracer.self_s.items():
                best[name] = min(best.get(name, s), s)
            calls = dict(tracer.calls)
    planted = calls[plant] * delay_s
    assert planted > 0.25
    rise = {n: slow.get(n, 0.0) - base.get(n, 0.0) for n in base}
    assert rise[plant] >= 0.9 * planted
    others = {n: r for n, r in rise.items() if n != plant}
    assert max(others.values()) < 0.25 * planted, others
