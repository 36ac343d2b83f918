"""Coverage-guided fault-space exploration over the deterministic stack.

PRs 4-9 made every harness byte-deterministic under seeded faults; this
module spends that determinism on *systematic* exploration instead of
random soaking (docs/FAULTS.md §5):

1. **Pilot** — one clean run with a zero-probability *census* plan
   counts how often each consultable site is actually reached and
   harvests trace landmarks (mid-reconfiguration, the hardware-task
   execution window, mid-run) that parameterise the scheduled sites.
2. **Enumeration** — single-fault schedules per registered site (one
   per trigger window, one per ``service.crash`` crashpoint, one per
   ``vm.kill`` policy, persistent variants for the PCAP sites) plus a
   pool of two-fault combinations, executed greedily in order of the
   :class:`~repro.faults.coverage.CoverageTracker`'s predicted novel
   coverage until the schedule budget is spent.
3. **Oracle** — after every run: invariant sweeps (I1-I8 + L1-L6
   inline, F1-F6 + per-board sweeps via the fleet payload), journal
   balance, request conservation, result verification.
4. **Coverage** — each run is fingerprinted by the recovery paths whose
   metrics moved (:func:`~repro.faults.coverage.paths_fired`); the
   final report gates CI on all sites fired and a path-coverage floor.
5. **Failures** are handed to :mod:`repro.faults.shrink` for a minimal,
   twice-revalidated, byte-identical reproducer.

``run_explore(mutate=<name>)`` (``--mutate`` on the CLI) disables one
hardened recovery path before every inline run — the self-test proving
the explorer actually *finds* regressions and shrinks them
(tests/faults/test_shrink.py runs it with ``watchdog_reclaim``).  A
shrunk repro records its ``mutate`` so ``--repro`` replays it as found.

Everything here is a pure function of ``(budget, seed, mutate)``:
same inputs ⇒ byte-identical payload (the CI gate runs it twice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..eval.scenarios import build_virtualized
from ..guest.ucos import Ucos
from ..obs.flight import FlightRecorder
from ..obs.metrics import MetricsRegistry
from .coverage import CoverageTracker, paths_fired
from .matrix import _make_fallback_task
from .plan import (
    BITSTREAM_CORRUPT,
    BOARD_CRASH,
    BOARD_HANG,
    BOARD_PARTITION,
    GUEST_BAD_HYPERCALL,
    GUEST_WILD_POINTER,
    PCAP_HANG,
    PCAP_TRANSFER_ERROR,
    PLIRQ_STORM,
    PRR_HANG,
    PRR_SPURIOUS_DONE,
    RETRY_STORM,
    SERVICE_CRASH,
    SERVICE_HANG,
    TRAFFIC_SURGE,
    UNLIMITED,
    VM_KILL,
    FaultPlan,
    FaultSpec,
)
from .registry import CRASHPOINTS
from .rogue import AUX_TASK_PRIO, add_rogue_vms
from .soak import classify_incident, sweep

EXPLORE_SCHEMA_VERSION = 1

#: Sites the injector consults at code sites on a single machine — the
#: census plan counts their occurrence budget in the pilot.
_CONSULTED = (PCAP_TRANSFER_ERROR, PCAP_HANG, BITSTREAM_CORRUPT, PRR_HANG,
              PRR_SPURIOUS_DONE, SERVICE_CRASH, SERVICE_HANG)


# -- mutation mode (the explorer's self-test) ---------------------------------


def _mutate_watchdog_reclaim(sc) -> None:
    """Disable watchdog arming: a hung PRR is never reclaimed, so any
    ``prr.hang`` schedule must end with a stuck-BUSY invariant hit."""
    sc.machine.prr_controller._arm_watchdog = lambda *a, **k: None


#: Named recovery-path regressions ``mutate`` can plant.
MUTATIONS: dict[str, Callable[[Any], None]] = {
    "watchdog_reclaim": _mutate_watchdog_reclaim,
}


def _make_release_task(directory: dict[str, int]):
    """Aux guest task that exercises HWTASK_RELEASE: request a task,
    then give it straight back.  ``alloc.release`` journals an
    ``OP_RELEASE`` entry before its ``release.pre_commit`` crashpoint,
    so crashing there forces the supervisor's journal *replay* path —
    unreachable from the standard workloads, which never release."""
    from ..guest import layout_guest as GL
    from ..guest.actions import Finish, HwRelease, HwRequest

    def fn(os_: Ucos):
        yield HwRequest(task_id=directory["fft256"],
                        iface_va=GL.PRR_IFACE_VA,
                        data_va=GL.HWDATA_VA, want_irq=False)
        yield HwRelease(task_id=directory["fft256"])
        yield Finish()

    return fn


# -- schedules ----------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """One candidate fault schedule: ``faults`` are JSON-stable dicts —
    :meth:`FaultSpec.as_dict` for ``inline``, ``KillSpec.as_dict`` for
    ``fleet`` — so schedules round-trip through repro files."""

    sid: str
    kind: str                       # "inline" | "fleet"
    faults: tuple[dict, ...]
    note: str = ""

    def sites(self) -> tuple[str, ...]:
        return tuple(sorted({f["site"] for f in self.faults}))

    def as_dict(self) -> dict[str, Any]:
        return {"id": self.sid, "kind": self.kind, "note": self.note,
                "faults": [dict(sorted(f.items())) for f in self.faults]}


# -- executors ----------------------------------------------------------------


def run_inline_schedule(faults, *, seed: int, mutate: str | None = None,
                        flight: FlightRecorder | None = None
                        ) -> dict[str, Any]:
    """Execute one inline schedule against the standard two-guest
    scenario; returns a JSON-stable result with oracle checks and the
    run's recovery-path fingerprint.  A failing run is offered to
    ``flight``, which keeps the first bundle."""
    specs = tuple(FaultSpec.from_dict(dict(f)) for f in faults)
    sites = {s.site for s in specs}
    persistent = any(s.max_fires == UNLIMITED and s.site in
                     (PCAP_TRANSFER_ERROR, PCAP_HANG, BITSTREAM_CORRUPT)
                     for s in specs)
    plan = FaultPlan(specs, seed=seed)
    sc = build_virtualized(
        2, seed=seed,
        # Poll mode when a hang is armed: the watchdog must detect it,
        # not an IRQ that will never come (matrix hw-hang precedent).
        use_irq=PRR_HANG not in sites,
        verify=not persistent, with_workloads=False, iterations=3,
        task_set=("fft256", "qam16"), fault_plan=plan)
    if mutate is not None:
        MUTATIONS[mutate](sc)
    kernel = sc.kernel
    add_rogue_vms(sc, sites, seed=seed, fuzz_iterations=40)
    if any(s.site == SERVICE_CRASH
           and (s.params or {}).get("point") == "release.pre_commit"
           for s in specs):
        sc.guests[0].os.create_task(
            "releaser", AUX_TASK_PRIO, _make_release_task(sc.directory))
    fallback: dict[str, Any] = {}
    if persistent:
        # The fabric is permanently down: progress means the adaptive
        # APIs degrade to correct software (pcap_abort + sw_fallback).
        sc.guests[0].os.create_task(
            "fallback", AUX_TASK_PRIO,
            _make_fallback_task(sc.directory, fallback, seed=seed))
        sc.run_ms(220.0)
    else:
        sc.run_until_completions(6, max_ms=500.0)

    checks, violations = sweep(sc, slack=1 + plan.fires(VM_KILL))
    checks["results_verified"] = all(g.thw_stats.verified_bad == 0
                                     for g in sc.guests)
    if SERVICE_CRASH in sites:
        checks["restarted_per_crash"] = (
            kernel.supervisor.restarts >= plan.fires(SERVICE_CRASH))
    if persistent:
        checks["fallback_correct"] = (bool(fallback.get("fft_correct"))
                                      and bool(fallback.get("qam_correct")))
    else:
        checks["made_progress"] = sc.total_completions() >= 1
    ok = all(checks.values())
    if flight is not None and not ok:
        flight.arm(kernel, seed=seed,
                   context={"harness": "explore", "mutate": mutate or ""})
        flight.dump("explore_failure",
                    checks={k: bool(v) for k, v in sorted(checks.items())})
    return {
        "kind": "inline",
        "seed": seed,
        "cycles": kernel.sim.now,
        "fired_sites": sorted(s for s in sites if plan.fires(s) > 0),
        "fired": plan.summary(),
        "paths": list(paths_fired(kernel.metrics.total)),
        "checks": {k: bool(v) for k, v in sorted(checks.items())},
        "violations": list(violations),
        "completions": sc.total_completions(),
        "ok": ok,
    }


def run_fleet_exec(faults, *, seed: int,
                   flight: FlightRecorder | None = None) -> dict[str, Any]:
    """Execute one board-fault schedule via the fleet harness's
    programmatic entry; same result shape as the inline executor."""
    from ..fleet.dispatcher import KillSpec
    from ..fleet.harness import (FLEET_TOTALS, payload_violations,
                                 run_fleet_schedule)
    kills = tuple(KillSpec(**dict(f)) for f in faults)
    payload = run_fleet_schedule(kills, seed=seed, flight=flight)
    fleet = payload["fleet"]
    totals = {metric: fleet[key] for key, metric in FLEET_TOTALS}
    violations = payload_violations(payload)
    checks = {
        "invariants_hold": not violations,
        "tenants_accounted": payload["tenants_accounted"],
        "fleet_ok": payload["ok"],
    }
    return {
        "kind": "fleet",
        "seed": seed,
        "fired_sites": sorted({k["site"] for k in payload["kills_fired"]}),
        "fired": payload["fault_summary"],
        "paths": list(paths_fired(lambda n: totals.get(n, 0))),
        "checks": {k: bool(v) for k, v in sorted(checks.items())},
        "violations": violations,
        "fleet": {k: fleet[k] for k in sorted(
            ("boards_declared_dead", "migrations", "boards_rejoined",
             "fresh_restarts", "tenants_shed"))},
        "ok": all(checks.values()),
    }


def execute_schedule(kind: str, faults, *, seed: int,
                     mutate: str | None = None,
                     flight: FlightRecorder | None = None) -> dict[str, Any]:
    """Kind-dispatching executor (the shrinker's and ``--repro``'s entry)."""
    if kind == "fleet":
        return run_fleet_exec(faults, seed=seed, flight=flight)
    return run_inline_schedule(faults, seed=seed, mutate=mutate,
                               flight=flight)


# -- pilot --------------------------------------------------------------------


def run_pilot(seed: int) -> dict[str, Any]:
    """One clean run with a zero-probability census plan: counts each
    consultable site's occurrence budget (``after`` windows are drawn
    from it) and harvests trigger-cycle landmarks from the trace."""
    plan = FaultPlan([FaultSpec(s, probability=0.0, max_fires=UNLIMITED)
                      for s in _CONSULTED], seed=seed)
    sc = build_virtualized(2, seed=seed, verify=True, with_workloads=False,
                           iterations=3, task_set=("fft256", "qam16"),
                           fault_plan=plan)
    sc.run_until_completions(6, max_ms=500.0)
    occurrences = {s: plan.summary()[s]["occurrences"] for s in _CONSULTED}
    events = list(sc.kernel.tracer.events)

    def first(name):
        return next((e.t for e in events if e.name == name), None)

    def last(name):
        ts = [e.t for e in events if e.name == name]
        return ts[-1] if ts else None

    xs, xe = first("pcap_xfer_start"), first("pcap_xfer_end")
    done = first("hwreq_done")
    cycles = sc.kernel.sim.now
    landmarks = {
        # Mid-flight of the first reconfiguration (PCAP transfer).
        "reconfig_mid": ((xs + xe) // 2 if xs is not None and xe is not None
                         else 50_000),
        # Mid-flight of the first hardware-task execution window.
        "exec_mid": ((xe + done) // 2 if xe is not None and done is not None
                     else 100_000),
        "mid_run": cycles // 2,
        "late": last("hwreq_done") or 200_000,
    }
    return {"occurrences": occurrences, "landmarks": landmarks,
            "cycles": cycles, "completions": sc.total_completions()}


# -- enumeration --------------------------------------------------------------


def _windows(n: int) -> tuple[int, ...]:
    """Candidate ``after`` values inside an occurrence budget of ``n``."""
    if n <= 1:
        return (0,)
    return tuple(sorted({0, n // 3, (2 * n) // 3}))


def _inline_singles(pilot: dict[str, Any]) -> list[tuple[tuple, str]]:
    occ, lm = pilot["occurrences"], pilot["landmarks"]

    def S(site, **kw):
        return FaultSpec(site, **kw).as_dict()

    out: list[tuple[tuple, str]] = []
    for site in (PCAP_TRANSFER_ERROR, PCAP_HANG, BITSTREAM_CORRUPT):
        for a in _windows(occ[site]):
            out.append(((S(site, after=a),), f"{site} @occ {a}"))
    for site in (PCAP_TRANSFER_ERROR, BITSTREAM_CORRUPT):
        out.append(((S(site, max_fires=UNLIMITED),), f"{site} persistent"))
    for a in _windows(occ[PRR_HANG]):
        out.append(((S(PRR_HANG, after=a),), f"prr.hang @occ {a}"))
    for a in _windows(occ[PRR_SPURIOUS_DONE]):
        out.append(((S(PRR_SPURIOUS_DONE, after=a, max_fires=2),),
                    f"prr.spurious_done @occ {a}"))
    for a in _windows(occ[SERVICE_HANG]):
        out.append(((S(SERVICE_HANG, after=a),), f"service.hang @occ {a}"))
    for a in _windows(occ[SERVICE_CRASH]):
        out.append(((S(SERVICE_CRASH, after=a),),
                    f"service.crash @occ {a}"))
    for pt in CRASHPOINTS:
        out.append(((S(SERVICE_CRASH, params={"point": pt}),),
                    f"service.crash @{pt}"))
    storm = {"line": 15, "count": 8, "spacing": 2_000}
    out.append(((S(PLIRQ_STORM, params={**storm,
                                        "at": lm["reconfig_mid"]}),),
                "plirq.storm unowned mid-reconfig"))
    out.append(((S(PLIRQ_STORM, params={**storm, "at": lm["mid_run"]}),),
                "plirq.storm unowned mid-run"))
    # Owned line, small burst: must stay under the client's bounded
    # re-pend budget (4) so a correct client survives by re-waiting.
    out.append(((S(PLIRQ_STORM, params={"line": 0, "count": 2,
                                        "spacing": 1_500,
                                        "at": lm["exec_mid"]}),),
                "plirq.storm owned exec window"))
    for policy, at in (("restart", lm["reconfig_mid"]),
                       ("restart", lm["mid_run"]),
                       ("restart_from_checkpoint", lm["mid_run"]),
                       ("halt", lm["mid_run"])):
        out.append(((S(VM_KILL, params={"at": at, "count": 1,
                                        "spacing": 150_000, "vm_index": 0,
                                        "policy": policy, "budget": 2}),),
                    f"vm.kill {policy}"))
    out.append(((S(GUEST_BAD_HYPERCALL, max_fires=UNLIMITED),),
                "rogue hypercall fuzzer"))
    out.append(((S(GUEST_WILD_POINTER, max_fires=UNLIMITED),),
                "rogue wild pointer"))
    return out


def _fleet_singles() -> list[tuple[tuple, str]]:
    def K(tick, board, site, dur=0):
        return {"tick": tick, "board": board, "site": site,
                "duration_ticks": dur}

    # deadline_ticks is 3: duration 2 heals before the detector declares
    # the board dead; duration 6 crosses it (fence, then rejoin/migrate).
    # The overload sites ride the armed EXPLORE_OVERLOAD plane: a surge
    # exercises admission_shed/rate_degrade, a storm retry_budget/
    # breaker_trip (docs/FLEET.md §11).
    return [
        ((K(8, 1, BOARD_CRASH),), "board.crash mid-run"),
        ((K(3, 0, BOARD_CRASH),), "board.crash early"),
        ((K(8, 1, BOARD_HANG, 2),), "board.hang transient"),
        ((K(8, 1, BOARD_HANG, 6),), "board.hang past deadline"),
        ((K(8, 2, BOARD_PARTITION, 2),), "board.partition transient"),
        ((K(8, 2, BOARD_PARTITION, 6),), "board.partition past deadline"),
        ((K(6, 0, TRAFFIC_SURGE, 6),), "traffic.surge sustained"),
        ((K(8, 1, RETRY_STORM, 2),), "retry.storm transient"),
    ]


def _pair_pool(inline_singles, fleet_singles) -> list[tuple[str, tuple, str]]:
    """Two-fault candidates: every pair of distinct inline sites (up to
    two window variants each) plus cross-site fleet pairs.  Returned
    unranked — the explorer picks by predicted coverage gain."""
    reps: dict[str, list[dict]] = {}
    for faults, _note in inline_singles:
        spec = faults[0]
        # Persistent variants change the executor's progress oracle;
        # keep pairs on the bounded-window representatives.
        if spec["max_fires"] == UNLIMITED and \
                spec["site"] not in (GUEST_BAD_HYPERCALL,
                                     GUEST_WILD_POINTER):
            continue
        reps.setdefault(spec["site"], [])
        if len(reps[spec["site"]]) < 2:
            reps[spec["site"]].append(spec)
    pool: list[tuple[str, tuple, str]] = []
    sites = sorted(reps)
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            for v in range(2):
                if v and (len(reps[a]) < 2 or len(reps[b]) < 2):
                    continue
                sa = reps[a][min(v, len(reps[a]) - 1)]
                sb = reps[b][min(v, len(reps[b]) - 1)]
                pool.append(("inline", (sa, sb), f"{a} + {b} (v{v})"))
    fleet_reps = {f[0][0]["site"]: f[0][0] for f in reversed(fleet_singles)}
    fsites = sorted(fleet_reps)
    for i, a in enumerate(fsites):
        for b in fsites[i + 1:]:
            ka = dict(fleet_reps[a])
            kb = {**fleet_reps[b], "tick": fleet_reps[b]["tick"] + 4,
                  "board": (fleet_reps[b]["board"] + 1) % 3}
            pool.append(("fleet", (ka, kb), f"{a} + {b}"))
    return pool


# -- the explorer -------------------------------------------------------------


def run_explore(*, budget: int = 150, seed: int = 7, floor: float = 0.9,
                mutate: str | None = None, include_fleet: bool = True,
                max_shrinks: int = 5, stream=None,
                flight_path: str | None = None) -> dict[str, Any]:
    """The whole pipeline: pilot → enumerate → execute under budget →
    coverage report → shrink failures.  Returns the JSON-stable explore
    payload (``python -m repro explore``)."""
    from .shrink import result_fingerprint, shrink_schedule
    if mutate is not None and mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r} "
                         f"(known: {', '.join(sorted(MUTATIONS))})")
    reg = MetricsRegistry()
    c_sched = reg.counter("explore.schedules")
    c_fail = reg.counter("explore.failures")
    c_novel = reg.counter("explore.novel")
    c_pairs = reg.counter("explore.pairs")
    c_shrink = reg.counter("explore.shrink_runs")

    pilot = run_pilot(seed)
    singles = [("inline", faults, note)
               for faults, note in _inline_singles(pilot)]
    fleet_singles = _fleet_singles()
    if include_fleet:
        singles += [("fleet", faults, note)
                    for faults, note in fleet_singles]
    pool_raw = _pair_pool(_inline_singles(pilot),
                          fleet_singles if include_fleet else [])
    schedules = [Schedule(f"s{i:03d}", kind, faults, note)
                 for i, (kind, faults, note)
                 in enumerate(singles + pool_raw)]
    single_scheds = schedules[:len(singles)]
    pool = list(schedules[len(singles):])

    tracker = CoverageTracker()
    executed: list[dict[str, Any]] = []
    failures: list[tuple[Schedule, dict[str, Any]]] = []
    flight = FlightRecorder(flight_path) if flight_path else None

    def execute(sched: Schedule) -> None:
        res = execute_schedule(sched.kind, sched.faults, seed=seed,
                               mutate=mutate, flight=flight)
        c_sched.inc()
        novel = tracker.observe(res["fired_sites"], res["paths"])
        if novel:
            c_novel.inc()
        if not res["ok"]:
            c_fail.inc()
            failures.append((sched, res))
        executed.append({**sched.as_dict(),
                         "fired_sites": res["fired_sites"],
                         "paths": res["paths"], "novel": novel,
                         "ok": res["ok"]})
        if stream is not None:
            stream.emit_explore_schedule(
                sched.sid, sites=list(sched.sites()),
                fired=res["fired_sites"], paths=res["paths"],
                novel=novel, ok=res["ok"], kind=sched.kind)

    count = 0
    for sched in single_scheds:
        if count >= budget:
            break
        execute(sched)
        count += 1
    n_singles = count
    while count < budget and pool:
        pool.sort(key=lambda s: (-tracker.predicted_gain(s.sites()),
                                 s.sid))
        sched = pool.pop(0)
        execute(sched)
        c_pairs.inc()
        count += 1

    all_violations: list[str] = []
    for sched, res in failures:
        all_violations.extend(f"{sched.sid}: {v}"
                              for v in res.get("violations", ()))

    repros: list[dict[str, Any]] = []
    for sched, res in failures[:max_shrinks]:
        def runner(faults, _k=sched.kind):
            c_shrink.inc()
            return execute_schedule(_k, faults, seed=seed, mutate=mutate)

        shrunk = shrink_schedule(sched.faults, runner=runner)
        repro = {
            "schema_version": EXPLORE_SCHEMA_VERSION,
            "from_schedule": sched.sid,
            "kind": sched.kind,
            "seed": seed,
            "mutate": mutate,
            "faults": shrunk["faults"],
            "fingerprint": shrunk["fingerprint"],
            "replayed_identical": shrunk["replayed_identical"],
            "reasons": shrunk["reasons"],
            "original_fingerprint": result_fingerprint(res),
            "original_faults": len(sched.faults),
        }
        repros.append(repro)
        if stream is not None:
            stream.emit_explore_failure(
                sched.sid, reasons=shrunk["reasons"],
                shrunk_to=len(shrunk["faults"]),
                replayed_identical=shrunk["replayed_identical"],
                kind=sched.kind)

    report = tracker.report(floor=floor)
    incident = classify_incident(all_violations, not failures, count > 0,
                                 coverage_ok=report["floor_ok"])
    return {
        "schema_version": EXPLORE_SCHEMA_VERSION,
        "seed": seed,
        "budget": budget,
        "mutate": mutate,
        "pilot": pilot,
        "schedules": executed,
        "totals": {
            "executed": count,
            "singles": n_singles,
            "pairs": count - n_singles,
            "pool_left": len(pool),
            "failures": len(failures),
        },
        "coverage": report,
        "failures": [{"id": sched.sid, "kind": sched.kind,
                      "faults": list(sched.faults),
                      "checks": res["checks"],
                      "violations": res["violations"]}
                     for sched, res in failures],
        "repros": repros,
        "metrics": {name: reg.total(name) for name in
                    ("explore.schedules", "explore.failures",
                     "explore.novel", "explore.pairs",
                     "explore.shrink_runs")},
        "incident": incident,
        "ok": incident is None,
    }


def replay_repro(repro: dict[str, Any], *,
                 flight_path: str | None = None) -> dict[str, Any]:
    """Re-execute a shrunk repro twice; ``reproduced`` is True iff both
    runs are byte-identical to each other *and* to the recorded
    fingerprint (``python -m repro explore --repro``)."""
    from .shrink import result_fingerprint
    mutate = repro.get("mutate")
    first = execute_schedule(repro["kind"], repro["faults"],
                             seed=int(repro["seed"]), mutate=mutate,
                             flight=(FlightRecorder(flight_path)
                                     if flight_path else None))
    second = execute_schedule(repro["kind"], repro["faults"],
                              seed=int(repro["seed"]), mutate=mutate)
    fp1, fp2 = result_fingerprint(first), result_fingerprint(second)
    return {
        "schema_version": EXPLORE_SCHEMA_VERSION,
        "kind": repro["kind"],
        "seed": repro["seed"],
        "mutate": mutate,
        "faults": list(repro["faults"]),
        "result": first,
        "fingerprint": fp1,
        "expected_fingerprint": repro.get("fingerprint"),
        "deterministic": fp1 == fp2,
        "still_failing": not first["ok"],
        "reproduced": (fp1 == fp2 == repro.get("fingerprint")
                       and not first["ok"]),
    }
