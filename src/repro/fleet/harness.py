"""Fleet run harnesses: traffic runs, chaos soak, migration proof, bench.

Three entry points sit behind ``python -m repro fleet``:

* :func:`run_fleet` — one open-loop traffic run over a
  :class:`~repro.fleet.dispatcher.FleetConfig`, with an optional board
  kill schedule.  Returns a JSON-stable payload (byte-identical across
  same-seed reruns — the CI gate diffs two of them).
* :func:`run_fleet_soak` — the chaos harness: repeated small fleet runs
  under seeded board kills until the target fire count is reached, with
  fleet F1-F6 **and** per-board I1-I8/L1-L6 sweeps after every run.
* :func:`run_migration_demo` — the acceptance proof: a restartable
  FFT/QAM tenant is killed mid-run with its board and must finish on
  another board with **bit-exact** final output.

:func:`run_fleet_bench` produces a schema-v3 bench artifact
(``BENCH_fleet_quick.json``) that CI ``cmp``s against the committed
baseline, with ``tools/bench_compare.py`` printing the latency diff.
"""

from __future__ import annotations

from typing import Any

from ..common.rng import make_rng
from ..eval.bench import SCHEMA_VERSION
from ..faults.plan import (BOARD_CRASH, BOARD_HANG, BOARD_PARTITION,
                           RETRY_STORM, TRAFFIC_SURGE)
from ..faults.soak import SoakRun, classify_incident, drive_soak
from ..obs.aggregate import MetricSnapshot
from ..obs.analytics import SeriesSummary
from ..obs.flight import FlightRecorder
from .dispatcher import Dispatcher, FleetConfig, KillSpec
from .overload import OverloadConfig
from .tenant import BESTEFFORT, CRITICAL, DEAD, RUNNING, SHED, TenantSpec

#: The board faults a kill schedule draws from, in draw-index order.
_KILL_SITES = (BOARD_CRASH, BOARD_HANG, BOARD_PARTITION)

#: Payload schema for fleet runs/soaks (independent of the bench schema).
FLEET_SCHEMA_VERSION = 1


def make_kill_schedule(cfg: FleetConfig, *, kills: int,
                       seed: int | None = None) -> tuple[KillSpec, ...]:
    """A seeded board-fault schedule: ``kills`` candidate events, fixed
    draw count each, spread over the run's middle ticks."""
    rng = make_rng(cfg.seed if seed is None else seed, stream="fleet-kills")
    hi = max(3, cfg.ticks - cfg.deadline_ticks - 2)
    out = []
    for _ in range(kills):
        tick = int(rng.integers(1, hi))
        board = int(rng.integers(0, cfg.boards))
        site = _KILL_SITES[int(rng.integers(0, len(_KILL_SITES)))]
        duration = 1 + int(rng.integers(0, cfg.deadline_ticks + 2))
        out.append(KillSpec(tick=tick, board=board, site=site,
                            duration_ticks=duration))
    return tuple(sorted(out, key=lambda k: (k.tick, k.board, k.site)))


def run_fleet(cfg: FleetConfig, *, kills: tuple[KillSpec, ...] = (),
              stream=None, flight_path: str | None = None) -> dict[str, Any]:
    """One fleet run; returns the JSON-stable payload.

    ``stream`` (a record bus) receives one ``shard`` record per
    surviving board plus the dispatcher's own registry, and the merged
    ``aggregate`` view (the PR 8 merge law).  ``flight_path`` writes the
    run's invariant-violation bundle, if any.
    """
    return _run_fleet(cfg, kills=kills, stream=stream,
                      flight=(FlightRecorder(flight_path) if flight_path
                              else None))[0]


def _run_fleet(cfg: FleetConfig, *, kills: tuple[KillSpec, ...] = (),
               stream=None, flight: FlightRecorder | None = None
               ) -> tuple[dict[str, Any], MetricSnapshot]:
    """:func:`run_fleet` for harnesses that run many: returns the
    payload and the merged registry snapshot, and hands the bundle a
    board built on a fleet invariant violation to ``flight`` (the
    caller's one recorder, which keeps the first)."""
    disp = Dispatcher(cfg, kills=kills)
    try:
        disp.place_initial()
        for t in range(cfg.ticks):
            disp.tick(t)
        # Per-board ground-truth sweep (I1-I8 + L1-L6) on every board
        # the fleet can still reach.
        board_violations: dict[str, list[str]] = {}
        for link in disp.links:
            if not link.reachable:
                continue
            vs = link.call("invariants")
            if vs:
                board_violations[str(link.board_id)] = vs
        # Fold per-board registries into the fleet aggregate.
        merged = MetricSnapshot.empty()
        shards = 0
        for board_id, snap_dict in disp.board_snapshots():
            snap = MetricSnapshot.from_dict(snap_dict)
            merged = merged.merge(snap)
            shards += 1
            if stream is not None:
                stream.emit_shard(f"board-{board_id}", snap,
                                  harness="fleet", seed=cfg.seed)
        fleet_snap = MetricSnapshot.of(disp.metrics)
        merged = merged.merge(fleet_snap)
        if stream is not None:
            stream.emit_shard("dispatcher", fleet_snap, harness="fleet",
                              seed=cfg.seed)
            stream.emit_aggregate(merged, shards=shards + 1,
                                  harness="fleet", seed=cfg.seed)
            if disp.overload is not None:
                _emit_overload_records(stream, disp)
        if flight is not None and disp.flight_bundle is not None:
            flight.keep(disp.flight_bundle)
        return _payload(disp, cfg, board_violations), merged
    finally:
        disp.close()


#: The payload's ``fleet`` block: (payload key, label-summed metric).
FLEET_TOTALS = (
    ("placements", "fleet.placements"),
    ("migrations", "fleet.migrations"),
    ("fresh_restarts", "fleet.restarts.fresh"),
    ("checkpoints_pulled", "fleet.checkpoints.pulled"),
    ("tenants_shed", "fleet.tenants.shed"),
    ("tenants_dead", "fleet.tenants.dead"),
    ("boards_declared_dead", "fleet.boards.declared_dead"),
    ("boards_rejoined", "fleet.boards.rejoined"),
    ("heartbeats_ok", "fleet.heartbeats.ok"),
    ("heartbeats_missed", "fleet.heartbeats.missed"),
    ("rpc_calls", "fleet.rpc.calls"),
    ("rpc_failures", "fleet.rpc.failures"),
    ("rpc_retries", "fleet.rpc.retries"),
    ("rpc_backoff_cycles", "fleet.rpc.backoff_cycles"),
    ("goodput", "fleet.goodput"),
    ("admission_admitted", "fleet.admission.admitted"),
    ("admission_dropped", "fleet.admission.dropped"),
    ("admission_degraded", "fleet.admission.degraded"),
    ("admission_restored", "fleet.admission.restored"),
    ("overload_kills", "fleet.admission.overload_kills"),
    ("rpc_retries_denied", "fleet.rpc.retries_denied"),
    ("breaker_opens", "fleet.breaker.opens"),
    ("breaker_half_opens", "fleet.breaker.half_opens"),
    ("breaker_closes", "fleet.breaker.closes"),
    ("breaker_short_circuits", "fleet.breaker.short_circuits"),
    ("boards_stormed", "fleet.boards.stormed"),
    ("traffic_surges", "fleet.traffic.surges"),
)


def _payload(disp: Dispatcher, cfg: FleetConfig,
             board_violations: dict[str, list[str]]) -> dict[str, Any]:
    m = disp.metrics
    tenants = {name: rec.as_dict()
               for name, rec in sorted(disp.tenants.items())}
    accounted = all(rec.state in (RUNNING, SHED, DEAD)
                    for rec in disp.tenants.values())
    ok = (not disp.violations and not board_violations and accounted)
    return {
        "schema_version": FLEET_SCHEMA_VERSION,
        "config": cfg.as_dict(),
        "kills_scheduled": [k.as_dict() for k in disp.kills],
        "kills_fired": disp.kills_fired,
        "fault_summary": disp.plan.summary(),
        "boards": {
            str(link.board_id): {
                "crashed": link.crashed,
                "fenced": link.fenced,
                "declared_dead":
                    link.board_id in disp.detector.declared,
            } for link in disp.links},
        "tenants": tenants,
        "requests": {
            "arrived": m.total("fleet.requests.arrived"),
            "served": m.total("fleet.requests.served"),
            "shed": m.total("fleet.requests.shed"),
            "latency": {cls: SeriesSummary.from_samples(s).as_dict()
                        for cls, s in sorted(disp.latency.items())},
        },
        "fleet": {key: m.total(metric) for key, metric in FLEET_TOTALS},
        "overload": _overload_block(disp),
        "violations": list(disp.violations),
        "board_violations": board_violations,
        "tenants_accounted": accounted,
        "flight_dumped": disp.flight_bundle is not None,
        "ok": ok,
    }


def payload_violations(payload: dict[str, Any]) -> list[str]:
    """A run payload's fleet violations, then every board's sweep
    violations as ``"board <id>: <violation>"``."""
    return (list(payload["violations"])
            + [f"board {b}: {v}"
               for b, vs in sorted(payload["board_violations"].items())
               for v in vs])


def _overload_block(disp: Dispatcher) -> dict[str, Any]:
    """The payload's overload-plane view: degrade/restore events, every
    breaker transition, and drops by reason (all empty when idle)."""
    drops: dict[str, int] = {}
    for rec in disp.tenants.values():
        for reason, n in rec.dropped.items():
            drops[reason] = drops.get(reason, 0) + n
    transitions = []
    for link in disp.links:
        br = getattr(link, "breaker", None)
        if br is None:
            continue
        transitions.extend(
            {"board": link.board_id, "tick": tick, "from": frm, "to": to}
            for tick, frm, to in br.transitions)
    return {
        "enabled": disp.overload is not None,
        "events": list(disp.shedder.events) if disp.shedder else [],
        "breaker_transitions": transitions,
        "drops_by_reason": {k: drops[k] for k in sorted(drops)},
    }


def _emit_overload_records(stream, disp: Dispatcher) -> None:
    """Mirror the overload block onto the record bus: one
    ``overload_transition`` per shedder event / breaker transition and
    one end-of-run ``overload_summary`` (docs/OBSERVABILITY.md §10)."""
    ov = _overload_block(disp)
    for ev in ov["events"]:
        stream.emit_overload_transition(ev["kind"], tick=ev["tick"],
                                        tenant=ev["tenant"],
                                        level=ev["level"])
    for tr in ov["breaker_transitions"]:
        stream.emit_overload_transition("breaker", tick=tr["tick"],
                                        board=tr["board"],
                                        frm=tr["from"], to=tr["to"])
    m = disp.metrics
    stream.emit_overload_summary(
        admitted=m.total("fleet.admission.admitted"),
        dropped=m.total("fleet.admission.dropped"),
        goodput=m.total("fleet.goodput"),
        drops_by_reason=ov["drops_by_reason"],
        breaker_opens=m.total("fleet.breaker.opens"),
        retries_denied=m.total("fleet.rpc.retries_denied"))


# -- programmatic single-schedule entry (the explorer's fleet executor) -------

#: The overload plane the explorer arms on every fleet schedule, tuned
#: so its recovery paths are *reachable* at explorer scale (24 ticks,
#: detector deadline 3) without changing fault outcomes: the breaker
#: reopens fast enough (cooldown 1) that a healed 2-tick hang still
#: passes its half-open probe before the detector's deadline, and the
#: tight retry budget (floor 1, ratio 0) makes a ``retry.storm`` deny a
#: retry on its very first stormed call.
EXPLORE_OVERLOAD = OverloadConfig(
    admit_rate=1.0, admit_burst=4.0, queue_bound=6, deadline_ticks=4,
    degrade_high_water=3, degrade_low_water=1, degrade_hysteresis_ticks=1,
    degrade_levels=3, kill_after_ticks=0,
    retry_ratio=0.0, retry_floor=1,
    breaker_threshold=2, breaker_cooldown_ticks=1,
    surge_factor=40.0, surge_duration_ticks=6)


def run_fleet_schedule(kills: tuple[KillSpec, ...], *, seed: int,
                       flight: FlightRecorder | None = None
                       ) -> dict[str, Any]:
    """Execute exactly one fleet-fault schedule against a small fleet
    (3 inline boards, 2 tenants each, 24 ticks) and return the
    JSON-stable :func:`run_fleet` payload.

    This is the :mod:`repro.faults.explore` entry point: the explorer
    hands it a candidate ``kills`` tuple and fingerprints the payload's
    ``fleet`` totals for recovery-path coverage.  Same ``(kills, seed)``
    always yields a byte-identical payload.  The overload plane is
    armed (:data:`EXPLORE_OVERLOAD`) so ``traffic.surge`` and
    ``retry.storm`` have recovery paths to hit.  A board's
    invariant-violation bundle goes to ``flight``.
    """
    cfg = FleetConfig(boards=3, seed=seed, ticks=24,
                      overload=EXPLORE_OVERLOAD)
    return _run_fleet(cfg, kills=tuple(sorted(
        kills, key=lambda k: (k.tick, k.board, k.site))), flight=flight)[0]


# -- chaos soak ---------------------------------------------------------------


def run_fleet_soak(*, seed: int = 1, board_kills: int = 100,
                   boards: int = 8, per_run_kills: int = 4,
                   max_runs: int | None = None, workers: str = "inline",
                   ticks: int = 32, tenants_per_board: int = 2,
                   stream=None,
                   flight_path: str | None = None) -> dict[str, Any]:
    """Chaos soak: repeated seeded fleet runs until ``board_kills``
    board faults have actually fired, asserting F1-F6 + per-board
    invariants after each.  Deterministic: the i-th run is a pure
    function of ``seed + i``, so the payload is byte-identical across
    reruns (the CI gate).  Runs on :func:`~repro.faults.soak.drive_soak`.
    """
    flight = FlightRecorder(flight_path) if flight_path else None

    def step(i: int) -> SoakRun:
        cfg = FleetConfig(boards=boards, seed=seed + i, ticks=ticks,
                          tenants_per_board=tenants_per_board,
                          workers=workers)
        kills = make_kill_schedule(cfg, kills=per_run_kills)
        payload, merged = _run_fleet(cfg, kills=kills, flight=flight)
        fired = len(payload["kills_fired"])
        fleet = payload["fleet"]
        violations = payload_violations(payload)
        return SoakRun(
            {"seed": seed + i, "kills_scheduled": len(kills),
             "kills_fired": fired,
             **{k: fleet[k] for k in ("boards_declared_dead", "migrations",
                                      "fresh_restarts", "tenants_shed",
                                      "tenants_dead")},
             "served": payload["requests"]["served"],
             "shed": payload["requests"]["shed"],
             "violations": len(violations),
             "tenants_accounted": payload["tenants_accounted"],
             "ok": payload["ok"]},
            [f"run {i}: {v}" for v in violations], merged)

    if max_runs is None:
        max_runs = max(4 * board_kills // max(1, per_run_kills) + 4, 4)
    return {"kill_target": board_kills, "boards": boards,
            "workers": workers,
            **drive_soak(step, seed=seed, target=board_kills,
                         max_runs=max_runs,
                         totals={k: k for k in ("kills_fired", "migrations",
                                                "tenants_shed")},
                         harness="fleet-soak", stream=stream)}


# -- migration proof ----------------------------------------------------------


def run_migration_demo(*, seed: int = 7,
                       workers: str = "inline") -> dict[str, Any]:
    """Kill a restartable 6-frame FFT tenant's board mid-run; it must
    finish on the surviving board with bit-exact output (docs/FLEET.md
    §7)."""
    from ..workloads.restartable import expected_output
    kind, frames = "fft", 6
    spec = TenantSpec(name="demo", tclass=CRITICAL, kind=kind,
                      seed=seed, frames=frames, checkpoint_every=2)
    cfg = FleetConfig(boards=2, tenants_per_board=1, seed=seed,
                      ticks=0, tick_ms=2.0, checkpoint_every_ticks=2,
                      deadline_ticks=2, workers=workers,
                      rate_per_tick=0.0)
    disp = Dispatcher(cfg, tenants=[spec])
    try:
        disp.place_initial()
        rec = disp.tenants["demo"]
        source = rec.board
        t = 0
        # Phase 1: run on the source board until at least one checkpoint
        # covers real progress.
        while (rec.checkpointed < 2 or rec.progress < frames // 2) \
                and t < 200:
            disp.tick(t)
            t += 1
        progress_at_kill = rec.progress
        # Phase 2: the board dies for real; the detector declares it and
        # the dispatcher migrates the tenant from its checkpoint.
        disp.links[source].inject(BOARD_CRASH)
        while rec.progress < frames and t < 500:
            disp.tick(t)
            t += 1
        finished = rec.progress >= frames
        output = b""
        if rec.state == RUNNING and rec.board is not None:
            output = disp.links[rec.board].call("read_output", rec.vm_id,
                                                frames)
        bit_exact = output == expected_output(kind, frames=frames,
                                              seed=seed)
        return {
            "kind": kind,
            "frames": frames,
            "source_board": source,
            "target_board": rec.board,
            "progress_at_kill": progress_at_kill,
            "resumed_from_frame": rec.checkpointed,
            "migrations": rec.migrations,
            "epochs": disp.epoch_log["demo"],
            "finished": finished,
            "bit_exact": bit_exact,
            "violations": list(disp.violations),
            "ok": finished and bit_exact and not disp.violations,
        }
    finally:
        disp.close()


# -- bench --------------------------------------------------------------------


def run_fleet_bench(*, seed: int = 1,
                    workers: str = "inline") -> dict[str, Any]:
    """The ``fleet_quick`` bench artifact: a small fleet with one board
    crash mid-run; request latency percentiles are the gated series."""
    cfg = FleetConfig(boards=3, tenants_per_board=2, seed=seed, ticks=32,
                      workers=workers)
    kills = (KillSpec(tick=10, board=1, site=BOARD_CRASH),)
    payload = run_fleet(cfg, kills=kills)
    lat = payload["requests"]["latency"]
    series: dict[str, Any] = {
        "fleet_request_latency_cycles": lat["all"],
        "fleet_critical_latency_cycles": lat["critical"],
        "fleet_besteffort_latency_cycles": lat["besteffort"],
        "fleet_requests_served": {
            "count": 1, "kind": "value", "unit": "requests",
            "direction": "higher",
            "value": payload["requests"]["served"]},
        "fleet_goodput": {
            "count": 1, "kind": "value", "unit": "requests",
            "direction": "higher",
            "value": payload["fleet"]["goodput"]},
        "fleet_migrations": {
            "count": 1, "kind": "value", "unit": "migrations",
            "direction": "none",
            "value": payload["fleet"]["migrations"]},
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "name": "fleet_quick",
        "scenario": {**cfg.as_dict(),
                     "kills": [k.as_dict() for k in kills]},
        "totals": {
            "arrived": payload["requests"]["arrived"],
            "served": payload["requests"]["served"],
            "shed": payload["requests"]["shed"],
            "migrations": payload["fleet"]["migrations"],
            "boards_declared_dead":
                payload["fleet"]["boards_declared_dead"],
            "violations": len(payload["violations"]),
        },
        "series": series,
    }


# -- surge soak (overload control plane acceptance) ---------------------------

#: The overload plane the surge soak arms.  A tenant serves about one
#: frame per 9 fleet ticks at ``tick_ms=2.0``, so ``admit_rate=0.1``
#: matches the *offered* (and sustainable) rate — a surge saturates
#: the bucket rather than the queue, which keeps per-tenant admissions
#: and queue depths the same loaded or unloaded.  ``deadline_ticks``
#: sits *below* the frame period on purpose: served latency then
#: saturates the deadline cap in the unloaded baseline too, so the
#: "critical p99 within 10% of baseline" gate measures protection, not
#: the luck of queue alignment.  The tight retry budget (2% + floor 2)
#: makes the 2-tick ``retry.storm`` hit a budget denial rather than
#: amplify into the fleet.
SOAK_OVERLOAD = OverloadConfig(
    admit_rate=0.1, admit_burst=2.0, queue_bound=6, deadline_ticks=6,
    degrade_high_water=2, degrade_low_water=1, degrade_hysteresis_ticks=2,
    degrade_levels=3, kill_after_ticks=0,
    retry_ratio=0.02, retry_floor=2,
    breaker_threshold=2, breaker_cooldown_ticks=1,
    surge_factor=8.0, surge_duration_ticks=12)

#: Escalating offered-load multipliers: one loaded run each, so the
#: payload carries a *series* of best-effort goodput fractions that must
#: degrade progressively while critical p99 stays within slack.
SURGE_FACTORS = (4.0, 8.0, 16.0)
#: The surge soak's fleet: 3 inline boards, 2 tenants each, 96 ticks.
SURGE_BOARDS = 3
SURGE_TICKS = 96
#: Gates: loaded critical p99 at most this multiple of the baseline's,
#: and loaded critical goodput ratio at least this fraction of it.
SURGE_P99_SLACK = 1.10
SURGE_GOODPUT_FLOOR = 0.55


def _class_totals(payload: dict[str, Any]) -> dict[str, dict[str, int]]:
    """Per-criticality-class request accounting from a run payload."""
    out = {cls: {"arrived": 0, "admitted": 0, "served": 0,
                 "goodput": 0, "dropped": 0}
           for cls in (CRITICAL, BESTEFFORT)}
    for td in payload["tenants"].values():
        agg = out[td["class"]]
        agg["arrived"] += td["arrived"]
        agg["admitted"] += td["admitted"]
        agg["served"] += td["served"]
        agg["goodput"] += td["goodput"]
        agg["dropped"] += sum(td["dropped"].values())
    return out


def run_surge_soak(*, seed: int = 1, workers: str = "inline",
                   stream=None,
                   flight_path: str | None = None) -> dict[str, Any]:
    """Overload chaos soak: seeded surges + a retry storm + a board kill.

    Three phases (docs/RECOVERY.md §11):

    * **Baseline** — the same fleet, overload plane armed, no faults:
      yields the unloaded critical p99 and best-effort goodput fraction.
    * **Loaded** — one run per factor in :data:`SURGE_FACTORS`, each
      with a ``traffic.surge`` window, a transient ``retry.storm`` on
      board 1 and a ``board.crash`` on board 2.  Gates: zero F1-F6/O1-O5
      violations, critical p99 within :data:`SURGE_P99_SLACK` of
      baseline, critical goodput/admitted at least
      :data:`SURGE_GOODPUT_FLOOR` times the
      *baseline* ratio (criticals keep their goodput under overload;
      the shared :func:`~repro.obs.slo.evaluate_rate_floor`
      predicate), and the
      best-effort goodput fraction non-increasing as factors escalate.
    * **Brownout** — :func:`run_brownout_demo`: best-effort hardware
      tasks reroute to the bit-identical software path under fabric
      pressure and return to hardware when it clears (O5).

    Deterministic: every run is a pure function of ``seed``, so the
    payload is byte-identical across reruns (CI runs it twice and
    ``cmp``\\ s).  Latency/goodput breaches classify as ``slo_breach``
    (exit 3); structural check failures as ``checks_failed`` (exit 1);
    any invariant violation as ``invariant_violation`` (exit 4).
    """
    from ..obs.slo import evaluate_rate_floor

    flight = FlightRecorder(flight_path) if flight_path else None

    def one_run(overload: OverloadConfig,
                kills: tuple[KillSpec, ...]) -> dict[str, Any]:
        return _run_fleet(FleetConfig(boards=SURGE_BOARDS, seed=seed,
                                      ticks=SURGE_TICKS, workers=workers,
                                      overload=overload),
                          kills=kills, stream=stream, flight=flight)[0]

    def be_fraction(cls: dict[str, dict[str, int]]) -> float | None:
        be = cls[BESTEFFORT]
        return (round(be["goodput"] / be["arrived"], 6)
                if be["arrived"] else None)

    # Phase A: unloaded baseline (same seed, same plane, no faults).
    base = one_run(SOAK_OVERLOAD, ())
    base_cls = _class_totals(base)
    base_p99 = base["requests"]["latency"][CRITICAL].get("p99")
    base_be_frac = be_fraction(base_cls)
    base_crit = base_cls[CRITICAL]
    base_crit_ratio = (round(base_crit["goodput"] / base_crit["admitted"],
                             6) if base_crit["admitted"] else None)
    # The floor the loaded runs must hold: a fraction of the baseline's
    # own goodput ratio, not an absolute — the absolute ratio is pinned
    # by deadline-vs-frame-period geometry, identical in every run.
    crit_floor = (round(SURGE_GOODPUT_FLOOR * base_crit_ratio, 6)
                  if base_crit_ratio is not None else SURGE_GOODPUT_FLOOR)
    all_violations = [f"baseline: {v}" for v in payload_violations(base)]

    # Phase B: escalating surges, each with a storm and a board kill.
    kills = (
        KillSpec(tick=16, board=0, site=TRAFFIC_SURGE, duration_ticks=12),
        KillSpec(tick=34, board=1, site=RETRY_STORM, duration_ticks=2),
        KillSpec(tick=44, board=2, site=BOARD_CRASH),
    )
    runs: list[dict[str, Any]] = []
    be_fracs: list[float] = []
    worst_p99: float | None = None
    worst_crit_ratio: float | None = None
    for factor in SURGE_FACTORS:
        payload = one_run(SOAK_OVERLOAD.scaled_surge(factor), kills)
        cls = _class_totals(payload)
        p99 = payload["requests"]["latency"][CRITICAL].get("p99")
        crit_ratio, _ = evaluate_rate_floor(
            cls[CRITICAL]["goodput"], cls[CRITICAL]["admitted"],
            min_ratio=crit_floor, min_denominator=8)
        frac = be_fraction(cls)
        violations = payload_violations(payload)
        all_violations.extend(f"surge x{factor:g}: {v}" for v in violations)
        if p99 is not None and (worst_p99 is None or p99 > worst_p99):
            worst_p99 = p99
        if crit_ratio is not None and (worst_crit_ratio is None
                                       or crit_ratio < worst_crit_ratio):
            worst_crit_ratio = round(crit_ratio, 6)
        if frac is not None:
            be_fracs.append(frac)
        fired_sites = [k["site"] for k in payload["kills_fired"]]
        runs.append({
            "surge_factor": factor,
            "kills_fired": fired_sites,
            "critical": cls[CRITICAL],
            "besteffort": cls[BESTEFFORT],
            "critical_p99": p99,
            "critical_goodput_ratio": (None if crit_ratio is None
                                       else round(crit_ratio, 6)),
            "besteffort_goodput_fraction": frac,
            "admission_dropped": payload["fleet"]["admission_dropped"],
            "degrades": payload["fleet"]["admission_degraded"],
            "breaker_opens": payload["fleet"]["breaker_opens"],
            "breaker_short_circuits":
                payload["fleet"]["breaker_short_circuits"],
            "retries_denied": payload["fleet"]["rpc_retries_denied"],
            "boards_stormed": payload["fleet"]["boards_stormed"],
            "traffic_surges": payload["fleet"]["traffic_surges"],
            "migrations": payload["fleet"]["migrations"],
            "violations": len(violations),
            "ok": payload["ok"],
        })

    # Phase C: brownout — pressure reroutes best-effort hardware tasks
    # to the bit-identical software fallback, then back.
    demo = run_brownout_demo(seed=seed)

    # Gates.  All faults must actually fire, the plane must visibly
    # engage, best-effort goodput must fall monotonically with offered
    # load, and every run must hold its invariants.
    eps = 1e-9
    progressive = (
        bool(be_fracs) and base_be_frac is not None
        and all(b <= a + eps for a, b in zip(be_fracs, be_fracs[1:]))
        and be_fracs[-1] < base_be_frac)
    checks = {
        "runs_ok": bool(runs) and all(r["ok"] for r in runs)
        and base["ok"],
        "surge_fired": all(TRAFFIC_SURGE in r["kills_fired"]
                           for r in runs),
        "storm_fired": all(RETRY_STORM in r["kills_fired"] for r in runs),
        "board_killed": all(BOARD_CRASH in r["kills_fired"]
                            for r in runs),
        "admission_engaged": all(r["admission_dropped"] > 0
                                 for r in runs),
        "shedder_engaged": any(r["degrades"] >= 1 for r in runs),
        "breaker_engaged": all(r["breaker_opens"] >= 1 for r in runs),
        "retry_budget_engaged": all(r["retries_denied"] >= 1
                                    for r in runs),
        "besteffort_degrades": progressive,
        "brownout_demo_ok": demo["ok"],
    }
    slo = {
        "critical_p99": {
            "baseline": base_p99, "worst": worst_p99,
            "slack": SURGE_P99_SLACK,
            "ok": (base_p99 is not None and worst_p99 is not None
                   and worst_p99 <= SURGE_P99_SLACK * base_p99),
        },
        "critical_goodput_floor": {
            "baseline_ratio": base_crit_ratio,
            "relative_floor": SURGE_GOODPUT_FLOOR,
            "min_ratio": crit_floor, "worst": worst_crit_ratio,
            "ok": (worst_crit_ratio is not None
                   and worst_crit_ratio >= crit_floor),
        },
    }
    checks_ok = all(checks.values())
    slo_ok = all(gate["ok"] for gate in slo.values())
    incident = classify_incident(all_violations, checks_ok, True,
                                 slo_ok=slo_ok)
    return {
        "schema_version": FLEET_SCHEMA_VERSION,
        "seed": seed,
        "boards": SURGE_BOARDS,
        "ticks": SURGE_TICKS,
        "workers": workers,
        "overload": SOAK_OVERLOAD.as_dict(),
        "surge_factors": list(SURGE_FACTORS),
        "baseline": {
            "critical": base_cls[CRITICAL],
            "besteffort": base_cls[BESTEFFORT],
            "critical_p99": base_p99,
            "besteffort_goodput_fraction": base_be_frac,
            "ok": base["ok"],
        },
        "runs": runs,
        "brownout": demo,
        "checks": checks,
        "slo": slo,
        "violations": all_violations,
        "incident": incident,
        "ok": incident is None,
    }


# -- brownout proof -----------------------------------------------------------


def run_brownout_demo(*, seed: int = 9) -> dict[str, Any]:
    """Fabric-pressure brownout: best-effort work degrades to the
    bit-identical software path, then returns to hardware (O5).

    One virtualized machine, two guests.  vm1 runs two driver tasks
    that each allocate a PRR (FFT and QAM) and hold it — the
    allocated-PRR fraction crosses the brownout threshold at the
    second allocation.  vm2 iterates a *best-effort* QAM through the
    adaptive API: while brownout is active the task is rerouted to
    software before touching the fabric; once the drivers release
    their regions the controller observes the pressure drop, exits,
    and the same call runs on a PRR again.  Every iteration's output
    is compared against the golden model — identical bytes on both
    substrates is the O5 proof.
    """
    from ..dsp import qam as qam_golden
    from ..eval.scenarios import build_virtualized
    from ..guest import api
    from ..guest.actions import Delay, Finish, HwRelease
    from ..hwmgr.brownout import BrownoutConfig, BrownoutController
    import numpy as np

    sc = build_virtualized(2, seed=seed, with_workloads=False,
                           iterations=0, task_set=("fft256", "qam16"))
    ctl = BrownoutController(BrownoutConfig(
        enter_occupancy=0.5, enter_queue_depth=8,
        exit_occupancy=0.25, exit_queue_depth=0))
    sc.kernel.brownout = ctl
    directory = sc.directory
    results: dict[str, Any] = {"iters": []}

    def make_driver(task: str, prio: int):
        def fn(os_):
            rng = make_rng(seed, stream=f"brownout-driver-{task}")
            if task.startswith("fft"):
                x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
                data = x.astype(np.complex64).tobytes()
            else:
                data = rng.integers(0, 256, size=512,
                                    dtype=np.uint8).tobytes()
            # Phase 1: allocate and hold a PRR — the second driver's
            # allocation pushes occupancy over the enter threshold.
            yield from api.hw_task_run(os_, directory[task], task, data)
            # Hold window: the best-effort client gets rerouted.
            yield Delay(20)
            # Phase 2: give the region back; the release request's
            # pressure observation drops occupancy below the exit
            # threshold and brownout ends.
            yield HwRelease(task_id=directory[task])
            yield Finish()
        return fn

    def besteffort_fn(os_):
        rng = make_rng(seed, stream="brownout-besteffort")
        qam_in = rng.integers(0, 256, size=512, dtype=np.uint8).tobytes()
        want = qam_golden.modulate(
            qam_golden.pack_bits_to_symbols(qam_in, 16), 16).tobytes()
        yield Delay(2)              # let the drivers pile up first
        for i in range(3):
            h = yield from api.qam_compute(os_, directory["qam16"],
                                          "qam16", qam_in,
                                          besteffort=True)
            results["iters"].append({
                "i": i,
                "software": h.prr_id is None,
                "status": int(h.status),
                "correct": h.output == want,
            })
            yield Delay(15)
        yield Finish()

    drv_os = sc.guests[0].os
    drv_os.create_task("drv-fft", 20, make_driver("fft256", 20))
    drv_os.create_task("drv-qam", 21, make_driver("qam16", 21))
    sc.guests[1].os.create_task("besteffort", 20, besteffort_fn)
    sc.run_ms(600.0)

    iters = results["iters"]
    m = sc.kernel.metrics
    checks = {
        "entered": ctl.entries >= 1,
        "exited": ctl.exits >= 1,
        "rerouted": ctl.reroutes >= 1,
        "first_iter_software": bool(iters) and iters[0]["software"],
        "returned_to_hardware": bool(iters) and not iters[-1]["software"],
        "bit_identical": bool(iters) and all(it["correct"]
                                             for it in iters),
    }
    return {
        "seed": seed,
        "entries": ctl.entries,
        "exits": ctl.exits,
        "reroutes": ctl.reroutes,
        "reroutes_counted": m.total("recovery.brownout_reroutes"),
        "iters": iters,
        "checks": checks,
        "ok": all(checks.values()),
    }
