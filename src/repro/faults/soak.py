"""Crash-recovery soak harnesses and the one soak loop they share.

:func:`drive_soak` is the loop: it calls a per-run step function until
a fire target is met, streams one telemetry shard per run, sums the
totals and classifies the incident.  Three step functions ride on it:
:func:`run_soak` (manager crashes), :func:`run_vm_soak` (VM kills) and
:func:`repro.fleet.harness.run_fleet_soak` (board kills).

:func:`run_soak` replays the seven canned fault scenarios round-robin
while injecting ``service.crash`` / ``service.hang`` faults into the
Hardware Task Manager at randomized-but-seeded points, and asserts the
recovery invariants after every run:

* the board sweep (:func:`repro.hwmgr.invariants.check_board`, I1-I8 +
  L1-L6) reports **zero** violations against hardware ground truth;
* the intent journal balances — every opened entry was committed or
  aborted exactly once (no lost or double-applied operations);
* request conservation per guest: every request the workload issued is
  accounted as completed, busy, or errored (at most one may still be in
  flight when the horizon cuts the run);
* the supervisor restarted the manager for every fired crash, and the
  ``supervisor.invariant_violations`` metric stayed at zero.

All randomness flows through :func:`repro.common.rng.make_rng` with a
dedicated ``soak`` stream and a fixed number of draws per iteration, so
the same ``(seed, crashes)`` always produces the same run sequence and a
byte-identical JSON payload — CI runs the soak twice and diffs it.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from ..common.rng import make_rng
from ..hwmgr.invariants import check_board
from ..obs.aggregate import MetricSnapshot
from ..obs.flight import FlightRecorder
from .matrix import SCENARIOS
from .plan import SERVICE_CRASH, SERVICE_HANG, VM_KILL, FaultSpec

#: Crashpoint-occurrence window the crash index is drawn from.  Small
#: enough that most draws land inside a scenario's consult count, large
#: enough to spread crashes across early and late requests.
_MAX_AFTER = 12

#: CLI exit code for a soak that failed its checks or missed the fault
#: target without any invariant tripping (an inconclusive / weak run).
EXIT_CHECKS_FAILED = 1
#: CLI exit code for a soak whose flight recorder fired on an actual
#: invariant violation — the "stop the line" signal CI treats specially
#: (distinct from :data:`~repro.obs.slo.EXIT_SLO_BREACH` = 3).
EXIT_INVARIANT_VIOLATION = 4
#: CLI exit code for an otherwise-clean explorer run that missed its
#: recovery-path coverage floor — an SLO-style budget miss, so it shares
#: the :data:`~repro.obs.slo.EXIT_SLO_BREACH` value (docs/RECOVERY.md §10).
EXIT_COVERAGE_FLOOR = 3


def classify_incident(violations, runs_ok: bool, reached_target: bool,
                      *, coverage_ok: bool = True,
                      slo_ok: bool = True) -> str | None:
    """The payload's ``incident`` field: what kind of failure, if any.

    ``"invariant_violation"`` when any invariant sweep reported a
    violation (the flight recorder fired), ``"checks_failed"`` for any
    other failure (a per-run check tripped, or the fault target was not
    reached), ``"slo_breach"`` for a clean run that missed a latency or
    goodput objective (the surge soak's gates), ``"coverage_floor"``
    for a clean run that missed its recovery-path coverage floor
    (explorer only), ``None`` for a clean soak.
    """
    if violations:
        return "invariant_violation"
    if not runs_ok or not reached_target:
        return "checks_failed"
    if not slo_ok:
        return "slo_breach"
    if not coverage_ok:
        return "coverage_floor"
    return None


def incident_exit_code(payload: dict[str, Any]) -> int:
    """Map a soak payload's ``incident`` field to a process exit code."""
    incident = payload.get("incident")
    if incident == "invariant_violation":
        return EXIT_INVARIANT_VIOLATION
    if incident in ("coverage_floor", "slo_breach"):
        return EXIT_COVERAGE_FLOOR
    if incident is not None:
        return EXIT_CHECKS_FAILED
    return 0


def sweep(sc, *, slack: int = 1) -> tuple[dict[str, bool], list[str]]:
    """The post-run oracle of every inline harness (the soaks and the
    explorer): the board sweep (I1-I8 + L1-L6), journal balance, the
    supervisor's violation metric, and request conservation per guest —
    every issued request completed, busy or errored, with at most
    ``slack`` unaccounted (one in flight at the horizon cut, plus one
    per VM kill).  Returns ``(checks, violations)``."""
    kernel = sc.kernel
    journal = kernel.manager_journal
    violations = check_board(kernel)
    return {
        "invariants_hold": not violations,
        "journal_balanced": journal is None or journal.balanced(),
        "requests_conserved": all(
            0 <= g.thw_stats.requests - (g.thw_stats.completions
                                         + g.thw_stats.busy
                                         + g.thw_stats.errors) <= slack
            for g in sc.guests),
        "no_violation_metric":
            kernel.metrics.total("supervisor.invariant_violations") == 0,
    }, violations


# -- the soak loop ------------------------------------------------------------


class SoakRun(NamedTuple):
    """One soak iteration, as its step function reports it: the
    payload's ``runs[i]`` record (it must carry ``"ok"``;
    :func:`drive_soak` adds ``"run": i``), its violation strings as the
    payload shows them, and its registry image for the ``shard`` record."""

    record: dict[str, Any]
    violations: list[str]
    snapshot: MetricSnapshot


def drive_soak(step: Callable[[int], SoakRun], *, seed: int, target: int,
               max_runs: int, totals: dict[str, str], harness: str,
               stream=None, shard_keys: tuple[str, ...] = ()
               ) -> dict[str, Any]:
    """The one soak loop: call ``step(i)`` until the fire target is met.

    ``totals`` maps each payload total to the record field it sums; the
    first counts toward ``target``, and the loop stops there or after
    ``max_runs`` runs.  Every run's snapshot goes to ``stream`` (a
    record bus) as a ``shard`` carrying the record's ``shard_keys``, and
    the merged view as one ``aggregate`` at the end.  Returns the
    payload the soaks share, with the :func:`classify_incident` verdict.
    """
    fired_key = next(iter(totals.values()))
    merged = MetricSnapshot.empty()
    runs: list[dict[str, Any]] = []
    violations: list[str] = []
    fired = i = 0
    while fired < target and i < max_runs:
        record, run_violations, snapshot = step(i)
        runs.append({"run": i, **record})
        fired += record[fired_key]
        violations.extend(run_violations)
        if stream is not None:
            merged = merged.merge(snapshot)
            stream.emit_shard(f"run-{i}", snapshot, harness=harness,
                              seed=seed + i, ok=record["ok"],
                              **{k: record[k] for k in shard_keys})
        i += 1
    if stream is not None:
        stream.emit_aggregate(merged, shards=len(runs), harness=harness,
                              seed=seed)
    runs_ok = bool(runs) and all(r["ok"] for r in runs)
    incident = classify_incident(violations, runs_ok, fired >= target)
    return {
        "seed": seed,
        "runs": runs,
        "totals": {"runs": len(runs),
                   **{name: sum(r[key] for r in runs)
                      for name, key in totals.items()},
                   "invariant_violations": len(violations)},
        "violations": violations,
        "reached_target": fired >= target,
        "incident": incident,
        "ok": incident is None,
    }


# -- the inline soaks ---------------------------------------------------------

def _inline_run(i: int, seed: int, spec: FaultSpec, *, harness: str,
                flight: FlightRecorder | None, vm_kills: bool = False,
                **context: Any) -> tuple[Any, int, SoakRun]:
    """Run the ``i``-th scenario of the round-robin under ``spec`` and
    check it.  Returns ``(sc, fired, run)``; the caller adds its own
    fields to ``run.record``.

    The manager soak checks that every fired crash was handled and
    restarted; the VM soak (``vm_kills``) adds the kill count and the
    cycle ledger instead.  A run qualifies for the flight bundle on an
    invariant violation, a failed check, or a fault that actually fired
    (the seeded-crash replay CI validates); the soak's one recorder
    keeps the first.  The soak payload itself is untouched, so the
    byte-identity gate keeps holding.
    """
    names = list(SCENARIOS)
    name = names[i % len(names)]
    sc = SCENARIOS[name](seed + i, extra_specs=(spec,))[0]
    kernel = sc.kernel
    plan = sc.injector.plan
    if vm_kills:
        fired = plan.fires(VM_KILL)
        checks, violations = sweep(sc, slack=1 + fired)
        acct = kernel.acct
        acct.settle()
        checks["kills_counted"] = (
            kernel.metrics.total("kernel.vm_kills") >= fired)
        checks["ledger_balanced"] = (
            not acct.bound
            or acct.total_accounted() == kernel.sim.now - acct.start_cycle)
    else:
        fired = plan.fires(SERVICE_CRASH) + plan.fires(SERVICE_HANG)
        checks, violations = sweep(sc)
        crashes = plan.fires(SERVICE_CRASH)
        checks["crashes_all_handled"] = kernel.supervisor.crashes == crashes
        # Every crash restarts synchronously.  A hang only forces a
        # restart when the stall outlives the deadline — a fresh request
        # can resume the wedged service first, in which case it recovers
        # on its own and the conservation/invariant checks above are the
        # ones that matter.
        checks["restarted_per_crash"] = kernel.supervisor.restarts >= crashes
    ok = all(checks.values())
    checks = {k: bool(v) for k, v in sorted(checks.items())}
    run = SoakRun({"scenario": name, "checks": checks, "ok": ok},
                  violations, MetricSnapshot.of(kernel.metrics))
    if flight is not None and (violations or not ok or fired):
        flight.arm(kernel, seed=seed + i, plan=plan,
                   context={"harness": harness, "run": i,
                            "scenario": name, **context})
        flight.dump("invariant_violation" if violations
                    else "soak_checks_failed" if not ok
                    else "soak_replay", fired=fired, checks=checks)
    return sc, fired, run


def run_soak(*, seed: int = 1, crashes: int = 100,
             max_runs: int | None = None, stream=None,
             flight_path: str | None = None) -> dict[str, Any]:
    """Run the scenario matrix under seeded manager crashes/hangs.

    Keeps cycling scenarios until at least ``crashes`` supervision
    faults have actually fired (bounded by ``max_runs``, default
    ``4 * crashes``).  Returns a JSON-serializable payload with per-run
    check maps; ``ok`` is their conjunction.

    ``stream`` (a :class:`~repro.obs.stream.TelemetryStream` record bus)
    receives one ``shard`` record per run plus the merged ``aggregate``
    view; ``flight_path`` arms a flight recorder (see
    :func:`_inline_run`).  Both leave the payload byte-identical.
    """
    rng = make_rng(seed, stream="soak")
    flight = FlightRecorder(flight_path) if flight_path else None

    def step(i: int) -> SoakRun:
        # Fixed draw count per iteration keeps the stream aligned no
        # matter what each run does with the faults.
        mode = "hang" if int(rng.integers(0, 4)) == 0 else "crash"
        after = int(rng.integers(0, _MAX_AFTER))
        fires = 1 + int(rng.integers(0, 2))
        if mode == "crash":
            spec = FaultSpec(SERVICE_CRASH, after=after, max_fires=fires)
        else:
            spec = FaultSpec(SERVICE_HANG, after=after, max_fires=1)
        sc, fired, run = _inline_run(i, seed, spec, harness="soak",
                                     flight=flight, mode=mode)
        total = sc.kernel.metrics.total
        run.record.update(mode=mode, after=after, fired=fired,
                          restarts=sc.kernel.supervisor.restarts,
                          bounced=total("recovery.bounced_requests"),
                          rollbacks=total("recovery.journal_rollbacks"),
                          replays=total("recovery.journal_replays"),
                          reconciles=total("recovery.reconcile_reclaims"))
        return run

    if max_runs is None:
        max_runs = max(4 * crashes, len(SCENARIOS))
    return {"crash_target": crashes,
            **drive_soak(step, seed=seed, target=crashes, max_runs=max_runs,
                         totals={"faults_fired": "fired",
                                 "restarts": "restarts"},
                         harness="soak", stream=stream,
                         shard_keys=("scenario",))}


# -- VM crash/restore soak (docs/RECOVERY.md §9) ------------------------------

#: Restart policies the VM soak cycles through, indexed by a seeded draw.
_VM_POLICIES = ("restart", "restart_from_checkpoint", "halt")


def run_vm_soak(*, seed: int = 1, kills: int = 100,
                max_runs: int | None = None, stream=None,
                flight_path: str | None = None) -> dict[str, Any]:
    """Run the scenario matrix under seeded VM kills.

    Each iteration arms a :data:`~repro.faults.plan.VM_KILL` spec with a
    seeded kill time, kill count, victim rotation and restart policy,
    then asserts the board sweep (I1-I8 + the VM-lifecycle L1-L6: no
    leaked PRR, no dead-epoch vIRQ), the kill count and a balanced cycle
    ledger after every run.  Deterministic like :func:`run_soak`: four
    RNG draws per iteration, JSON-stable payload.  ``stream`` /
    ``flight_path`` behave as in :func:`run_soak`.
    """
    rng = make_rng(seed, stream="vm-soak")
    flight = FlightRecorder(flight_path) if flight_path else None

    def step(i: int) -> SoakRun:
        # Fixed draw count per iteration keeps the stream aligned.
        policy = _VM_POLICIES[int(rng.integers(0, len(_VM_POLICIES)))]
        at = 50_000 + int(rng.integers(0, 8)) * 25_000
        count = 1 + int(rng.integers(0, 2))
        vm_index = int(rng.integers(0, 4))
        spec = FaultSpec(VM_KILL, max_fires=count, params={
            "at": at, "count": count, "spacing": 150_000,
            "vm_index": vm_index, "policy": policy, "budget": 2})
        sc, fired, run = _inline_run(i, seed, spec, harness="vm-soak",
                                     flight=flight, vm_kills=True,
                                     policy=policy)
        lc = sc.kernel.lifecycle
        total = sc.kernel.metrics.total
        run.record.update(
            policy=policy, at=at, kills=fired, restarts=lc.restart_count,
            halts=lc.halt_count,
            checkpoints=total("vm.lifecycle.checkpoints"),
            restores=total("vm.lifecycle.restores"),
            virqs_dropped=total("vm.lifecycle.virqs_dropped"),
            virqs_dead_epoch=total("vm.lifecycle.virqs_dead_epoch"),
            client_reclaims=total("vm.lifecycle.client_reclaims"))
        return run

    if max_runs is None:
        max_runs = max(4 * kills, len(SCENARIOS))
    return {"kill_target": kills,
            **drive_soak(step, seed=seed, target=kills, max_runs=max_runs,
                         totals={"vms_killed": "kills",
                                 "restarts": "restarts", "halts": "halts"},
                         harness="vm-soak", stream=stream,
                         shard_keys=("scenario",))}
