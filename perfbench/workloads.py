"""The benchmark's three seeded workloads, their correctness gate and results.

Each workload is built from ``--seed`` alone and runs one simulated
horizon per repetition.  A repetition is split in two phases:

* **timed** — the simulation itself, cut into slices at fixed
  simulated-time boundaries by an observational engine tap (the same
  hook the telemetry stream uses: it never schedules an event), or after
  each dispatcher tick for the fleet.  A short reference loop is timed
  after every slice, outside it, to measure the host's speed there;
* **untimed** — the correctness gate and the simulated results, reduced
  to a report and a model fingerprint.

A paper horizon must run as **one** ``run_ms`` call: slicing the same
600 ms of ``paper4`` into 12 calls of 50 ms ends at 420,984,481 cycles
instead of 396,121,032, because every call boundary re-enters the kernel
loop and perturbs the schedule.  Slices are therefore *observed*, never
driven.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, ClassVar

#: Table III "Total overhead" of the paper's 4-OS point, in microseconds.
PAPER_TOTAL_OVERHEAD_US = 18.57

#: Simulated length of one host-time slice of the single-machine
#: workloads (the fleet slices at its own dispatcher ticks).
SLICE_MS = 25.0


def reference_loop() -> float:
    """A fixed pure-Python workload (dict updates, calls, small ints),
    independent of the simulator; returns its host duration in seconds.

    Timed next to every slice, it measures how fast this host runs
    interpreter code at that moment."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    x = 0
    for i in range(3000):
        k = i & 127
        d[k] = d.get(k, 0) + i
        x += len(str(i))
    return time.perf_counter() - t0


class HostClock:
    """Host time of consecutive slices of a timed phase, each followed by
    one :func:`reference_loop` timing (not counted in any slice)."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.refs: list[float] = []
        self._t = time.perf_counter()

    def mark(self) -> None:
        """End the current slice and start the next one."""
        self.slices.append(time.perf_counter() - self._t)
        self.refs.append(reference_loop())
        self._t = time.perf_counter()


class SliceClock:
    """Observational engine tap: a :meth:`HostClock.mark` every ``every``
    simulated cycles.

    Duck-types :class:`repro.obs.stream.TelemetryStream` for
    ``Simulator.attach_stream`` — the engine calls :meth:`on_tick` after
    dispatching once its clock has crossed :attr:`next_due`, and no event
    is ever scheduled for it.
    """

    def __init__(self, every: int, clock: HostClock) -> None:
        self.every = every
        self.next_due = every
        self.clock = clock

    def on_tick(self, now: int) -> None:
        self.clock.mark()
        self.next_due = (now // self.every + 1) * self.every


@dataclass
class Rep:
    """One repetition: host timing of the timed phase plus its results."""

    cycles: int                      # simulated cycles, summed over boards
    slices: list[float]              # host seconds per slice, in order
    refs: list[float]                # reference-loop seconds after each
    report: dict[str, Any]           # named simulated results
    model: dict[str, int]            # exact per-layer model counts
    fingerprint: str                 # sha256 of every simulated result
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.slices)


def fingerprint(obj: Any) -> str:
    """sha256 of the canonical JSON of ``obj`` (host time must be absent)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def dist(samples: list[float]) -> dict[str, Any]:
    """Nearest-rank p50/p90, mean and sample count of one latency series
    (all 0.0 for an empty series)."""
    from repro.obs.analytics import percentile_of_samples
    return {"n": len(samples),
            "p50": percentile_of_samples(samples, 0.5) or 0.0,
            "p90": percentile_of_samples(samples, 0.9) or 0.0,
            "mean": sum(samples) / len(samples) if samples else 0.0}


# -- results shared by every workload ----------------------------------------

def kernel_results(kernels: list) -> tuple[dict[str, Any], dict[str, int],
                                           dict[str, Any], list[str]]:
    """Pool the simulated results of every kernel of a run.

    Returns ``(series, model, raw, failures)``: latency samples in µs,
    exact per-layer model counts, the raw material of the fingerprint,
    and the correctness-gate failures (invariant sweeps and the cycle
    ledger of every kernel).
    """
    from repro.eval.measures import extract_overheads
    from repro.hwmgr.invariants import (check_invariants,
                                        check_lifecycle_invariants)
    from repro.obs.aggregate import MetricSnapshot
    from repro.obs.analytics import dpr_chains

    series: dict[str, list[float]] = {
        k: [] for k in ("hwreq_total", "hwreq_exec", "reconfig",
                        "dpr_entry", "dpr_decide", "dpr_pcap", "dpr_resume")}
    model: dict[str, int] = {}
    raw: list[Any] = []
    failures: list[str] = []

    def add(name: str, v: int) -> None:
        model[name] = model.get(name, 0) + int(v)

    for i, k in enumerate(kernels):
        hz = k.machine.params.cpu.hz
        us = 1e6 / hz
        o = extract_overheads(k.tracer)
        chains = dpr_chains(k.tracer)
        series["hwreq_total"] += [c * us for c in o.total]
        series["hwreq_exec"] += [c * us for c in o.execution]
        series["reconfig"] += [c.ready * us for c in chains]
        for stage in ("entry", "decide", "pcap", "resume"):
            series[f"dpr_{stage}"] += [getattr(c, stage) * us
                                       for c in chains]
        m, mem = k.metrics, k.machine.mem
        caches, mmu = mem.caches, mem.mmu
        add("cycles", k.sim.now)
        add("hwreq_chains", len(o.total))
        add("reconfig_chains", len(chains))
        add("kernel.hypercalls", k.hypercall_count)
        add("kernel.vm_switches", k.vm_switch_count)
        add("kernel.irqs", k.irq_count)
        add("sim.events", m.total("sim.events_fired"))
        add("sim.idle_advances", m.total("sim.idle_advances"))
        add("sim.idle_cycles", m.total("sim.idle_cycles"))
        add("hwmgr.requests", m.total("hwmgr.requests"))
        add("hwmgr.restarts", k.supervisor.restarts)
        add("hwmgr.journal_replays", m.total("recovery.journal_replays"))
        add("fpga.pcap.transfers", m.total("pcap.transfers"))
        add("fpga.pcap.bytes", m.total("pcap.bytes_moved"))
        add("fpga.pcap.busy_cycles", m.histogram("pcap.xfer_cycles").sum)
        add("tlb.hits", mmu.tlb.stats.hits)
        add("tlb.misses", mmu.tlb.stats.misses)
        add("l1d.hits", caches.l1d.stats.hits)
        add("l1d.misses", caches.l1d.stats.misses)
        add("l2.hits", caches.l2.stats.hits)
        add("l2.misses", caches.l2.stats.misses)
        add("mmu.walks", mmu.walks)
        add("mmu.walk_memo_hits", mmu.walk_memo_hits)
        add("obs.tracer_events", len(k.tracer.events) + k.tracer.events.dropped)
        add("kernel.checkpoints", m.total("vm.lifecycle.checkpoints"))
        add("kernel.adoptions", m.total("vm.lifecycle.adoptions"))

        violations = check_invariants(k) + check_lifecycle_invariants(k)
        failures += [f"kernel {i}: {v}" for v in violations]
        if m.total("supervisor.invariant_violations"):
            failures.append(f"kernel {i}: supervisor invariant violations")
        acct = k.acct
        acct.settle()
        if acct.total_accounted() != k.sim.now - acct.start_cycle:
            failures.append(
                f"kernel {i}: cycle ledger unbalanced (kernel + idle + VMs "
                f"= {acct.total_accounted()}, simulated "
                f"{k.sim.now - acct.start_cycle})")
        raw.append({"now": k.sim.now,
                    "metrics": MetricSnapshot.of(m).to_dict(),
                    "accounting": acct.snapshot(),
                    "hwreq": [o.entry, o.execution, o.exit, o.plirq],
                    "dpr": [c.as_dict() for c in chains]})
    return series, model, {"kernels": raw}, failures


def series_report(series: dict[str, list[float]]) -> dict[str, Any]:
    """The latency part of the report: distributions with sample counts."""
    return {
        "hwreq_total_us": dist(series["hwreq_total"]),
        "reconfig_us": dist(series["reconfig"]),
        "hwmgr.exec_us": dist(series["hwreq_exec"]),
        **{f"dpr.{s}_us": dist(series[f"dpr_{s}"])
           for s in ("entry", "decide", "pcap", "resume")},
    }


def finish_rep(clock: HostClock, series, model, raw, failures,
               report: dict[str, Any]) -> Rep:
    report = {**series_report(series), **report}
    raw["report"] = report
    raw["model"] = model
    return Rep(cycles=model["cycles"], slices=clock.slices, refs=clock.refs,
               report=report, model=model, fingerprint=fingerprint(raw),
               failures=failures)


# -- the workloads -----------------------------------------------------------

@dataclass(frozen=True)
class VirtWorkload:
    """One Mini-NOVA board with four uC/OS-II guests (Section V setup)."""

    name: str
    why: str
    horizon_ms: float
    build_kwargs: dict[str, Any]
    #: ``service.crash`` on every Nth crashpoint consult (0 = healthy).
    crash_every: int = 0
    #: Report the accuracy against the paper's Table III total overhead.
    table3: bool = False
    #: The modules a fresh process imports before :meth:`build`.
    imports: ClassVar = ("repro.eval.scenarios", "repro.faults.plan",
                         "repro.faults.inject")

    def build(self, seed: int):
        from repro.eval.scenarios import build_virtualized
        from repro.faults.plan import (SERVICE_CRASH, UNLIMITED, FaultPlan,
                                       FaultSpec)
        plan = None
        if self.crash_every:
            plan = FaultPlan([FaultSpec(SERVICE_CRASH, every=self.crash_every,
                                        max_fires=UNLIMITED)], seed=seed)
        return build_virtualized(4, seed=seed, fault_plan=plan,
                                 **self.build_kwargs)

    def run(self, sc, clock: HostClock) -> None:
        sim = sc.kernel.sim
        tap = SliceClock(int(SLICE_MS * 1e-3 * sc.machine.params.cpu.hz),
                         clock)
        sim.attach_stream(tap)
        try:
            sc.run_ms(self.horizon_ms)
        finally:
            sim.detach_stream(tap)

    def evaluate(self, sc, clock: HostClock) -> Rep:
        series, model, raw, failures = kernel_results([sc.kernel])
        stats = [g.thw_stats for g in sc.guests]
        bad = sum(s.verified_bad for s in stats)
        if bad:
            failures.append(f"T_hw verified_bad = {bad}")
        resolved = sum(s.completions + s.busy + s.errors for s in stats)
        failed = sum(s.busy + s.errors for s in stats)
        model["guest.hc_retries"] = sum(s.retries for s in stats)
        report: dict[str, Any] = {
            "hw_requests": sum(s.requests for s in stats),
            "fail_frac": failed / resolved if resolved else 0.0,
            "fail_n": resolved,
        }
        if self.table3:
            mean = dist(series["hwreq_total"])["mean"]
            report["table3_err_pct"] = (abs(mean - PAPER_TOTAL_OVERHEAD_US)
                                        / PAPER_TOTAL_OVERHEAD_US * 100.0)
        raw["thw"] = [asdict(s) for s in stats]
        if sc.injector is not None:
            raw["plan"] = sc.injector.plan.summary()
        return finish_rep(clock, series, model, raw, failures, report)

    def close(self, sc) -> None:
        pass


@dataclass
class FleetRun:
    disp: Any
    #: Every board, crashed ones included: their cycles and books are
    #: part of the run even after the dispatcher has dropped them.
    boards: list


@dataclass(frozen=True)
class FleetWorkload:
    """Inline boards behind the supervised dispatcher, with the overload
    plane armed and a fixed board-fault schedule."""

    name: str
    why: str
    boards: int
    tenants_per_board: int
    ticks: int
    kills: int
    #: The board-fault schedule is part of the workload, like dpr_storm's
    #: crash cadence: every seed loses the same boards at the same ticks.
    #: Drawn from ``--seed`` it made the simulated cycle total vary by
    #: seed (a crashed board stops accruing cycles), which moved sim_mcps
    #: by about 10% from seed to seed.
    kill_seed: int = 1
    imports: ClassVar = ("repro.fleet.dispatcher", "repro.fleet.harness",
                         "repro.fleet.overload")

    def build(self, seed: int):
        from repro.fleet.dispatcher import Dispatcher, FleetConfig
        from repro.fleet.harness import make_kill_schedule
        from repro.fleet.overload import OverloadConfig
        cfg = FleetConfig(boards=self.boards,
                          tenants_per_board=self.tenants_per_board,
                          seed=seed, ticks=self.ticks,
                          checkpoint_every_ticks=4, overload=OverloadConfig())
        disp = Dispatcher(cfg, kills=make_kill_schedule(
            cfg, kills=self.kills, seed=self.kill_seed))
        run = FleetRun(disp, [link.host._server for link in disp.links])
        disp.place_initial()
        return run

    def run(self, fr: FleetRun, clock: HostClock) -> None:
        for t in range(fr.disp.cfg.ticks):
            fr.disp.tick(t)
            clock.mark()

    def evaluate(self, fr: FleetRun, clock: HostClock) -> Rep:
        from repro.fleet.harness import _payload
        disp = fr.disp
        # The per-board sweep over the RPC links, exactly as run_fleet
        # does it, so the payload is the program's own verdict.
        board_violations = {}
        for link in disp.links:
            if link.reachable:
                vs = link.call("invariants")
                if vs:
                    board_violations[str(link.board_id)] = vs
        payload = _payload(disp, disp.cfg, board_violations)
        series, model, raw, failures = kernel_results(
            [b.kernel for b in fr.boards])
        if not payload["ok"] or payload["violations"]:
            failures.append("fleet payload not ok: "
                            f"{payload['violations'][:3]} "
                            f"{sorted(board_violations)}")
        m = disp.metrics
        for name in ("fleet.rpc.retries", "fleet.rpc.failures",
                     "fleet.admission.admitted", "fleet.admission.dropped",
                     "fleet.migrations"):
            model[name] = m.total(name)
        model["fleet.checkpoints_pulled"] = m.total("fleet.checkpoints.pulled")
        model["guest.hc_retries"] = 0
        hz = fr.boards[0].machine.params.cpu.hz
        lat_ms = [c * 1e3 / hz for c in disp.latency["all"]]
        req = payload["requests"]
        report = {
            "fleet_latency_ms": dist(lat_ms),
            "fleet_served": req["served"],
            "fail_frac": 1.0 - payload["fleet"]["goodput"] / req["arrived"]
            if req["arrived"] else 0.0,
            "fail_n": req["arrived"],
        }
        raw["payload"] = payload
        return finish_rep(clock, series, model, raw, failures, report)

    def close(self, fr: FleetRun) -> None:
        fr.disp.close()


WORKLOADS: dict[str, VirtWorkload | FleetWorkload] = {w.name: w for w in (
    VirtWorkload(
        name="paper4",
        why="the paper's 4-OS point: GSM+ADPCM+T_hw per guest oversubscribe "
            "L2 and TLB (the Table III mechanism); multi-sample bulk path",
        # 4500 ms gives 102-117 reconfigurations, so p90 has >= 10
        # samples beyond it (3000 ms gives only ~76).
        horizon_ms=4500.0, build_kwargs={}, table3=True),
    VirtWorkload(
        name="dpr_storm",
        why="4 T_hw-only guests at 1 kHz saturate the single PCAP port "
            "while the manager is crashed every 10th consult; 1-sample bulk",
        horizon_ms=700.0,
        build_kwargs={"verify": True, "with_workloads": False,
                      "tick_hz": 1000},
        crash_every=10),
    FleetWorkload(
        name="fleet_churn",
        why="inline fleet under board crash/hang/partition with overload "
            "control: checkpoint images, adopt, RPC retries, admission drops",
        # 15 tenants serve 119-131 requests in 300 ticks (3x2 serve < 50).
        boards=5, tenants_per_board=3, ticks=300, kills=8),
)}


def run_rep(wl, seed: int, tracer=None) -> Rep:
    """Build, run and evaluate one repetition.  ``tracer`` (a
    :class:`hosttrace.LayerTracer`) wraps the timed phase only."""
    built = wl.build(seed)
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            clock = HostClock()
            wl.run(built, clock)
            clock.mark()
        return wl.evaluate(built, clock)
    finally:
        wl.close(built)
