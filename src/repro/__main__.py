"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — run a virtualized (or native) scenario and print a report;
  ``--trace-out FILE`` additionally writes a Chrome trace-event JSON
  (load it in chrome://tracing or https://ui.perfetto.dev) and
  ``--metrics`` prints the kernel's counter/histogram registry
  (see docs/OBSERVABILITY.md for the event and metric catalog)
* ``table3``   — regenerate Table III (+ Fig. 9) and print both
* ``bench``    — run the paper scenario and write a schema-versioned
  ``BENCH_<name>.json`` latency/accounting artifact (``--quick`` for the
  CI smoke profile; see docs/BENCHMARKS.md and tools/bench_compare.py)
* ``inventory``— list the hardware-task library and the fabric floorplan
* ``faults``   — run the deterministic fault-injection matrix
  (``--list`` for the scenario and fault-site catalogs, ``--scenario
  NAME|all`` to execute; output is seeded, sorted-keys JSON —
  byte-identical across runs, which the CI ``fault-matrix`` job checks.
  See docs/FAULTS.md)
* ``soak``     — run the fault matrix while crashing/hanging the Hardware
  Task Manager at seeded points, asserting the recovery invariants after
  every run (``--crashes N`` sets the fault budget; ``--vm-kills N``
  runs the VM crash/restore soak instead; docs/RECOVERY.md)
* ``fleet``    — run a supervised multi-board fleet with open-loop tenant
  traffic (docs/FLEET.md): placement, heartbeat failure detection and
  checkpoint-based live migration across board fault domains.
  ``--soak-board-kills N`` runs the chaos soak, ``--soak-surge`` runs
  the overload surge soak (admission control, retry budgets, brownout;
  docs/FLEET.md §11), ``--migration-demo`` proves a cross-board
  migration bit-exact, ``--bench`` writes the
  ``BENCH_fleet_quick.json`` latency artifact
* ``explore``  — coverage-guided fault-space exploration (docs/FAULTS.md
  §5): a clean pilot harvests trigger windows, then single- and
  two-fault schedules are executed deterministically under ``--budget``
  with invariant sweeps as the oracle, gated on a recovery-path
  coverage floor; failing schedules are delta-debugged to minimal
  repro JSONs replayable via ``--repro``
* ``postmortem`` — validate and pretty-print a flight-recorder bundle
  (docs/OBSERVABILITY.md §13)

``soak``, ``fleet`` and ``explore`` distinguish failure classes in
their exit code: an actual invariant violation (the flight recorder
fired) exits 4, any other failed check exits 1, and an ``explore`` run
that is clean but misses its coverage floor exits 3
(docs/RECOVERY.md §10).

``--stream-out FILE`` writes the JSONL telemetry stream
(docs/OBSERVABILITY.md §10; an unwritable path exits 2): metric deltas
for ``run``/``bench``, which take ``--slo FILE`` to evaluate a
declarative SLO config on it (any breach exits 3), and shard or
schedule records for the harnesses.  ``run`` and ``faults`` keep a
flight recorder armed: an invariant violation, failed check or
unhandled exception dumps a post-mortem bundle (default
``FLIGHT_<cmd>.json``; ``--flight-out`` overrides, and on ``soak``,
``fleet`` and ``explore`` enables it).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .common.units import cycles_to_ms


class _Exit(Exception):
    """Ends a command early with exit status ``code`` (see :func:`main`)."""

    def __init__(self, code: int) -> None:
        super().__init__(code)
        self.code = code


def _open_sink(path: str):
    """Open a ``--stream-out`` file; exits 2 if it cannot be written."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write stream to {path}: {exc}",
              file=sys.stderr)
        raise _Exit(2)


def _load_slo(path: str):
    """Load a ``--slo`` config; exits 2 if it is unreadable."""
    from .obs.slo import load_slo_config

    try:
        return load_slo_config(path)
    except (OSError, ValueError) as exc:
        print(f"error: bad SLO config {path}: {exc}", file=sys.stderr)
        raise _Exit(2)


@contextlib.contextmanager
def _record_bus(args, *, source: str):
    """``--stream-out`` as a pure record bus (``None`` without the flag).

    The harness emits ``shard``/``aggregate`` (or explore) records on
    it.  Exits 2 if the file cannot be opened; on a clean exit, closes
    the bus and reports its record count.
    """
    if not args.stream_out:
        yield None
        return
    from .obs.stream import TelemetryStream

    with _open_sink(args.stream_out) as sink:
        stream = TelemetryStream(None, interval_cycles=1, sink=sink,
                                 source=source, seed=args.seed)
        try:
            yield stream
        finally:
            stream.close()
    print(f"wrote {stream.records} telemetry records "
          f"to {args.stream_out}", file=sys.stderr)


def _emit_json(payload, out: str | None, *, announce: bool = True) -> None:
    """Write ``payload`` as sorted-keys JSON to ``out`` (saying so with
    ``announce``), or to stdout without it; exits 1 if ``out`` cannot be
    written."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        raise _Exit(1)
    if announce:
        print(f"wrote {out}")


def _incident_exit(label: str, incident: str | None) -> int:
    """Report a harness incident; return its exit code (RECOVERY.md §10)."""
    from .faults.soak import incident_exit_code

    if incident is not None:
        print(f"{label}: {incident}", file=sys.stderr)
    return incident_exit_code({"incident": incident})


def _report_slo(s: dict) -> int:
    """Print an SLO summary's verdict; return the command exit code."""
    from .obs.slo import EXIT_SLO_BREACH

    if s["ok"]:
        print(f"SLO: {len(s['rules'])} rule(s), {s['evaluations']} "
              f"evaluations, no breaches")
        return 0
    print(f"SLO BREACH: {len(s['breaches'])} breach(es) across "
          f"{len(s['rules'])} rule(s)", file=sys.stderr)
    for b in s["breaches"]:
        print(f"  {b['slo']} ({b['kind']}) at cycle {b['t']}: "
              f"observed {b['observed']} vs limit {b['limit']}",
              file=sys.stderr)
    return EXIT_SLO_BREACH


def cmd_run(args: argparse.Namespace) -> int:
    from .eval.report import scenario_report
    from .eval.scenarios import build_native, build_virtualized
    from .kernel.core import KernelConfig
    from .obs.stream import live_stream

    if args.native:
        sc = build_native(seed=args.seed, verify=args.verify)
    else:
        kcfg = KernelConfig(trace_verbose=args.trace_verbose)
        sc = build_virtualized(args.guests, seed=args.seed,
                               verify=args.verify, kernel_config=kcfg)
        # Always-on incident recording: a violation or crash during the
        # run dumps a deterministic post-mortem bundle (§13).
        from .obs.flight import FlightRecorder
        FlightRecorder(args.flight_out or "FLIGHT_run.json").arm(
            sc.kernel, seed=args.seed,
            context={"command": "run", "guests": args.guests, "ms": args.ms})
    rules = _load_slo(args.slo) if args.slo else None
    sink = _open_sink(args.stream_out) if args.stream_out else None
    with live_stream(sc, sink=sink, interval_ms=args.stream_interval_ms,
                     slo_rules=rules, source="run",
                     seed=args.seed) as (stream, engine):
        sc.run_ms(args.ms)
    print(scenario_report(sc))
    if args.trace_out:
        from .obs.export import write_chrome_trace
        try:
            n = write_chrome_trace(sc.tracer, args.trace_out,
                                   hz=sc.machine.params.cpu.hz)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace_out}: {exc}",
                  file=sys.stderr)
            return 1
        dropped = sc.tracer.dropped
        print(f"\nwrote {n} trace events to {args.trace_out}"
              + (f" ({dropped} oldest events dropped by the ring)"
                 if dropped else ""))
    if args.metrics:
        print()
        print(sc.metrics.render())
    if stream is not None and args.stream_out:
        print(f"wrote {stream.records} telemetry records "
              f"({stream.deltas} deltas) to {args.stream_out}")
    if engine is not None:
        return _report_slo(engine.summary())
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    from .eval.fig9 import degradation_from_table3
    from .eval.table3 import run_table3

    t3 = run_table3(completions_per_config=args.completions, seed=args.seed)
    print(t3.format())
    print()
    print(degradation_from_table3(t3).format())
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .eval.bench import default_artifact_path, run_bench
    from .obs.analytics import SeriesSummary

    name = "quick" if args.quick else args.name
    payload = run_bench(name, guests=args.guests, ms=args.ms, seed=args.seed,
                        stream_out=args.stream_out,
                        stream_interval_ms=args.stream_interval_ms,
                        slo_rules=_load_slo(args.slo) if args.slo else None)
    out = args.out or default_artifact_path(name)
    _emit_json(payload, out, announce=False)
    hz = payload["scenario"]["cpu_hz"]
    print(f"bench '{name}': {payload['scenario']['guests']} guests, "
          f"{payload['scenario']['ms']:g} ms simulated "
          f"({payload['totals']['cycles']} cycles) -> {out}")
    print(f"{'series':26} {'count':>6} {'p50':>10} {'p90':>10} "
          f"{'p99':>10}  unit")
    for sname, s in payload["series"].items():
        if not s["count"]:
            continue
        us = SeriesSummary(**s).scaled(1e6 / hz, "us")
        print(f"{sname:26} {us.count:>6} {us.p50:>10.2f} {us.p90:>10.2f} "
              f"{us.p99:>10.2f}  {us.unit}")
    acct = payload["accounting"]
    print(f"accounting: {len(acct['vms'])} VMs, "
          f"kernel {acct['kernel_cycles']} cycles, "
          f"idle {acct['idle_cycles']} cycles, "
          f"accounted {acct['total_accounted']} cycles")
    if args.stream_out:
        print(f"wrote telemetry stream to {args.stream_out}")
    if "slo" in payload:
        return _report_slo(payload["slo"])
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from .faults.matrix import SCENARIOS, run_all, run_scenario

    if args.list_sites:
        from .faults.registry import SITES

        print("fault sites (FaultSpec.site; docs/FAULTS.md §1):")
        for name, s in SITES.items():
            print(f"  {name:22s} [{s.layer}] {s.effect}")
            if s.targets:
                print(f"  {'':22s}   {s.target_param}: "
                      f"{', '.join(s.targets)}")
            print(f"  {'':22s}   recovery: {', '.join(s.recovery_paths)}")
        return 0
    if args.list:
        from .faults.plan import SITE_EFFECTS

        print("fault scenarios (docs/FAULTS.md):")
        for name, fn in SCENARIOS.items():
            doc = (fn.__doc__ or "").strip().split("\n")[0]
            print(f"  {name:14s} {doc}")
        print()
        print("fault sites (FaultSpec.site):")
        for site, effect in SITE_EFFECTS.items():
            print(f"  {site:22s} {effect}")
        return 0
    flight_path = args.flight_out or "FLIGHT_faults.json"
    if args.scenario == "all":
        payload = run_all(args.seed, flight_path=flight_path)
    else:
        try:
            payload = run_scenario(args.scenario, args.seed,
                                   flight_path=flight_path)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    _emit_json(payload, args.out)
    ok = payload["ok"]
    if not ok:
        print("FAULT MATRIX: one or more checks failed "
              f"(post-mortem bundle: {flight_path})", file=sys.stderr)
    return 0 if ok else 1


def cmd_soak(args: argparse.Namespace) -> int:
    from .faults.soak import run_soak, run_vm_soak

    with _record_bus(args, source="soak") as stream:
        if args.vm_kills is not None:
            payload = run_vm_soak(seed=args.seed, kills=args.vm_kills,
                                  max_runs=args.max_runs, stream=stream,
                                  flight_path=args.flight_out)
            t = payload["totals"]
            summary = (f"vm-soak: {t['runs']} runs, {t['vms_killed']} VMs "
                       f"killed, {t['restarts']} restarts, {t['halts']} "
                       f"halts, {t['invariant_violations']} invariant "
                       f"violations")
        else:
            payload = run_soak(seed=args.seed, crashes=args.crashes,
                               max_runs=args.max_runs, stream=stream,
                               flight_path=args.flight_out)
            t = payload["totals"]
            summary = (f"soak: {t['runs']} runs, {t['faults_fired']} "
                       f"manager faults, {t['restarts']} restarts, "
                       f"{t['invariant_violations']} invariant violations")
        _emit_json(payload, args.out)
        print(summary, file=sys.stderr)
    return _incident_exit("SOAK", payload["incident"])


def cmd_fleet(args: argparse.Namespace) -> int:
    from .faults.soak import classify_incident
    from .fleet.dispatcher import FleetConfig
    from .fleet.harness import (make_kill_schedule, payload_violations,
                                run_fleet, run_fleet_bench, run_fleet_soak,
                                run_migration_demo, run_surge_soak)

    if args.migration_demo:
        demo = run_migration_demo(seed=args.seed, workers=args.workers)
        _emit_json(demo, None)
        if not demo["ok"]:
            print("MIGRATION DEMO: resumed output not bit-exact or "
                  "tenant did not finish", file=sys.stderr)
        return 0 if demo["ok"] else 1

    if args.bench:
        from .eval.bench import default_artifact_path

        payload = run_fleet_bench(seed=args.seed, workers=args.workers)
        out = args.out or default_artifact_path(payload["name"])
        _emit_json(payload, out, announce=False)
        lat = payload["series"]["fleet_request_latency_cycles"]
        print(f"fleet bench: {lat['count']} requests served, "
              f"p50 {lat['p50']:.0f} / p99 {lat['p99']:.0f} cycles -> {out}")
        return 0

    soak = args.soak_surge or args.soak_board_kills is not None
    with _record_bus(args, source="fleet") as stream:
        if args.soak_surge:
            # The surge soak is a fixed, calibrated scenario (escalating
            # surge factors against a tuned admission config), so it
            # takes only the seed and worker mode from the CLI.
            payload = run_surge_soak(seed=args.seed, workers=args.workers,
                                     stream=stream,
                                     flight_path=args.flight_out)
            s = payload["slo"]
            summary = (f"surge-soak: {len(payload['runs'])} loaded runs, "
                       f"critical p99 {s['critical_p99']['worst']} vs "
                       f"baseline {s['critical_p99']['baseline']} (slack "
                       f"{s['critical_p99']['slack']}), goodput ratio "
                       f"{s['critical_goodput_floor']['worst']} (floor "
                       f"{s['critical_goodput_floor']['min_ratio']}), "
                       f"{len(payload['violations'])} invariant violations")
        elif soak:
            payload = run_fleet_soak(
                seed=args.seed, board_kills=args.soak_board_kills,
                boards=args.boards, workers=args.workers,
                ticks=args.ticks, tenants_per_board=args.tenants_per_board,
                stream=stream, flight_path=args.flight_out)
            t = payload["totals"]
            summary = (f"fleet-soak: {t['runs']} runs, {t['kills_fired']} "
                       f"board kills, {t['migrations']} migrations, "
                       f"{t['tenants_shed']} tenants shed, "
                       f"{t['invariant_violations']} invariant violations")
        else:
            cfg = FleetConfig(boards=args.boards, seed=args.seed,
                              ticks=args.ticks, tick_ms=args.tick_ms,
                              tenants_per_board=args.tenants_per_board,
                              rate_per_tick=args.rate,
                              workers=args.workers)
            kills = (make_kill_schedule(cfg, kills=args.kills)
                     if args.kills else ())
            payload = run_fleet(cfg, kills=kills, stream=stream,
                                flight_path=args.flight_out)
            f, r = payload["fleet"], payload["requests"]
            summary = (f"fleet: {len(payload['kills_fired'])} kills fired, "
                       f"{f['boards_declared_dead']} boards declared dead, "
                       f"{f['migrations']} migrations, {r['served']} "
                       f"requests served, {len(payload['violations'])} "
                       f"violations")
        _emit_json(payload, args.out)
        print(summary, file=sys.stderr)
    if soak:
        return _incident_exit("FLEET-SOAK", payload["incident"])
    return _incident_exit("FLEET", classify_incident(
        payload_violations(payload), payload["ok"], True))


def cmd_explore(args: argparse.Namespace) -> int:
    import os

    from .faults.explore import replay_repro, run_explore

    if args.repro:
        try:
            with open(args.repro, encoding="utf-8") as f:
                repro = json.load(f)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read repro {args.repro}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            result = replay_repro(repro, flight_path=args.flight_out)
        except (KeyError, ValueError) as exc:
            print(f"error: malformed repro {args.repro}: {exc}",
                  file=sys.stderr)
            return 2
        _emit_json(result, None)
        if result["reproduced"]:
            print("REPRO: failure reproduced byte-identically",
                  file=sys.stderr)
            return 0
        print("REPRO: did not reproduce (deterministic="
              f"{result['deterministic']}, still_failing="
              f"{result['still_failing']})", file=sys.stderr)
        return 1

    # Record bus: one ``explore_schedule`` record per executed schedule,
    # one ``explore_failure`` per shrunk failure.
    with _record_bus(args, source="explore") as stream:
        try:
            payload = run_explore(
                budget=args.budget, seed=args.seed,
                floor=args.coverage_floor, mutate=args.mutate,
                include_fleet=not args.no_fleet, stream=stream,
                flight_path=args.flight_out)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise _Exit(2)
        _emit_json(payload, args.out)
        if args.repro_out and payload["repros"]:
            try:
                os.makedirs(args.repro_out, exist_ok=True)
                for repro in payload["repros"]:
                    path = os.path.join(
                        args.repro_out,
                        f"REPRO_{repro['from_schedule']}.json")
                    with open(path, "w", encoding="utf-8") as f:
                        json.dump(repro, f, indent=2, sort_keys=True)
                        f.write("\n")
                    print(f"wrote {path}", file=sys.stderr)
            except OSError as exc:
                print(f"error: cannot write repros to {args.repro_out}: "
                      f"{exc}", file=sys.stderr)
                raise _Exit(1)
        t = payload["totals"]
        cov = payload["coverage"]
        print(f"explore: {t['executed']} schedules ({t['singles']} "
              f"singles, {t['pairs']} pairs), {t['failures']} failures, "
              f"sites {cov['site_fraction']:.0%}, "
              f"paths {cov['path_fraction']:.0%} "
              f"(floor {cov['floor']:.0%})", file=sys.stderr)
    return _incident_exit("EXPLORE", payload["incident"])


def cmd_postmortem(args: argparse.Namespace) -> int:
    from .obs.flight import load_bundle, render_bundle, validate_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read bundle {args.bundle}: {exc}",
              file=sys.stderr)
        return 2
    problems = validate_bundle(bundle)
    if problems:
        print(f"invalid post-mortem bundle {args.bundle}:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(bundle, None)
    else:
        print(render_bundle(bundle))
    return 0


def cmd_inventory(args: argparse.Namespace) -> int:
    from .machine import Machine

    m = Machine()
    print("hardware-task library:")
    for name in sorted(m.bitstreams.tasks()):
        core = m.bitstreams.core(name)
        bit = m.bitstreams.get(name)
        fits = [p.prr_id for p in m.prrs if core.resources.fits_in(p.capacity)]
        ms = cycles_to_ms(m.pcap.transfer_cycles(bit.size), m.params.cpu.hz)
        print(f"  {name:8s} bitstream {bit.size:>7d} B  reconfig {ms:5.2f} ms"
              f"  PRRs {fits}")
    print("fabric floorplan:")
    for p in m.prrs:
        c = p.capacity
        print(f"  PRR{p.prr_id}: {c.luts} LUTs, {c.bram} BRAM, {c.dsp} DSP")
    return 0


def main(argv: list[str] | None = None) -> int:
    from .eval.bench import PROFILES
    from .obs.stream import DEFAULT_INTERVAL_MS

    ap = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    # Output options, declared once and shared through ``parents=``.
    out_p = argparse.ArgumentParser(add_help=False)
    out_p.add_argument("--out", metavar="FILE", default=None,
                       help="write the JSON result to FILE instead of "
                            "stdout (bench artifacts: default "
                            "BENCH_<name>.json)")
    stream_p = argparse.ArgumentParser(add_help=False)
    stream_p.add_argument("--stream-out", metavar="FILE", default=None,
                          help="write the JSONL telemetry stream: metric "
                               "deltas (run, bench), per-run shards + the "
                               "merged aggregate (soak, fleet) or schedule "
                               "records (explore); docs/OBSERVABILITY.md "
                               "§10")
    flight_p = argparse.ArgumentParser(add_help=False)
    flight_p.add_argument("--flight-out", metavar="FILE", default=None,
                          help="post-mortem bundle path: run and faults "
                               "always arm a flight recorder (default "
                               "FLIGHT_<cmd>.json), soak, fleet and explore "
                               "only with this flag (first faulted or "
                               "failing run; docs/OBSERVABILITY.md §13)")
    seed_p = argparse.ArgumentParser(add_help=False)
    seed_p.add_argument("--seed", type=int, default=1)
    # Live telemetry options of the single-scenario commands.
    live_p = argparse.ArgumentParser(add_help=False, parents=[stream_p])
    live_p.add_argument("--stream-interval-ms", type=float,
                        default=DEFAULT_INTERVAL_MS, metavar="MS",
                        help="emission cadence in simulated milliseconds "
                             f"(default: {DEFAULT_INTERVAL_MS:g})")
    live_p.add_argument("--slo", metavar="FILE", default=None,
                        help="evaluate a declarative SLO config on the "
                             "stream; any breach exits 3 "
                             "(docs/OBSERVABILITY.md §12)")

    p_run = sub.add_parser("run", parents=[seed_p, live_p, flight_p],
                           help="run a scenario and print a report")
    p_run.add_argument("--guests", type=int, default=2)
    p_run.add_argument("--native", action="store_true")
    p_run.add_argument("--ms", type=float, default=200.0,
                       help="simulated milliseconds")
    p_run.add_argument("--verify", action="store_true",
                       help="check every hardware result against the golden model")
    p_run.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write a Chrome trace-event JSON "
                            "(chrome://tracing / Perfetto) after the run")
    p_run.add_argument("--trace-verbose", action="store_true",
                       help="also emit high-rate events (per-hypercall, "
                            "per-vIRQ; see docs/OBSERVABILITY.md)")
    p_run.add_argument("--metrics", action="store_true",
                       help="print the kernel metrics registry "
                            "(counters, gauges, histograms)")
    p_run.set_defaults(fn=cmd_run)

    p_t3 = sub.add_parser("table3", parents=[seed_p],
                          help="regenerate Table III and Fig. 9")
    p_t3.add_argument("--completions", type=int, default=50)
    p_t3.set_defaults(fn=cmd_table3)

    p_bench = sub.add_parser(
        "bench", parents=[seed_p, out_p, live_p],
        help="run the paper scenario, write BENCH_<name>.json")
    p_bench.add_argument("--name", default="paper", choices=sorted(PROFILES),
                         help="bench profile / artifact name (default: paper)")
    p_bench.add_argument("--quick", action="store_true",
                         help="CI smoke profile (fewer guests, shorter run)")
    p_bench.add_argument("--guests", type=int, default=None,
                         help="override the profile's guest count")
    p_bench.add_argument("--ms", type=float, default=None,
                         help="override the profile's simulated milliseconds")
    p_bench.set_defaults(fn=cmd_bench)

    p_inv = sub.add_parser("inventory", help="task library + floorplan")
    p_inv.set_defaults(fn=cmd_inventory)

    p_faults = sub.add_parser(
        "faults", parents=[seed_p, out_p, flight_p],
        help="run the deterministic fault-injection matrix")
    p_faults.add_argument("--list", action="store_true",
                          help="list the scenario catalog and exit")
    p_faults.add_argument("--list-sites", action="store_true",
                          help="list the fault-site registry (layer, "
                               "valid targets, expected recovery paths) "
                               "and exit")
    p_faults.add_argument("--scenario", default="all", metavar="NAME",
                          help="scenario name, or 'all' (default)")
    p_faults.set_defaults(fn=cmd_faults)

    harness_parents = [out_p, stream_p, flight_p]
    p_soak = sub.add_parser(
        "soak", parents=[seed_p, *harness_parents],
        help="fault matrix under seeded manager crashes "
             "(docs/RECOVERY.md)")
    p_soak.add_argument("--crashes", type=int, default=100,
                        help="run until this many manager faults fired "
                             "(default: 100)")
    p_soak.add_argument("--vm-kills", type=int, default=None, metavar="N",
                        help="run the VM crash/restore soak instead: kill "
                             "guest VMs at seeded points until N kills fired "
                             "(docs/RECOVERY.md §9)")
    p_soak.add_argument("--max-runs", type=int, default=None,
                        help="hard cap on scenario runs (default: 4x faults)")
    p_soak.set_defaults(fn=cmd_soak)

    p_fleet = sub.add_parser(
        "fleet", parents=[seed_p, *harness_parents],
        help="supervised multi-board fleet with live migration "
             "(docs/FLEET.md)")
    p_fleet.add_argument("--boards", type=int, default=4,
                         help="number of boards (default: 4)")
    p_fleet.add_argument("--tenants-per-board", type=int, default=2,
                         help="initial tenants per board (default: 2)")
    p_fleet.add_argument("--ticks", type=int, default=32,
                         help="dispatcher ticks to run (default: 32)")
    p_fleet.add_argument("--tick-ms", type=float, default=2.0,
                         help="simulated milliseconds per tick "
                              "(default: 2.0)")
    p_fleet.add_argument("--rate", type=float, default=0.1,
                         help="mean request arrivals per tenant per tick "
                              "(default: 0.1)")
    p_fleet.add_argument("--kills", type=int, default=0, metavar="N",
                         help="schedule N seeded board faults in this run "
                              "(crash/hang/partition)")
    p_fleet.add_argument("--workers", choices=("inline", "process"),
                         default="inline",
                         help="board hosting: in-process (deterministic "
                              "default) or one worker process per board")
    p_fleet.add_argument("--soak-board-kills", type=int, default=None,
                         metavar="N",
                         help="run the chaos soak instead: repeat seeded "
                              "fleet runs until N board faults fired, "
                              "sweeping F1-F6 + board invariants each run")
    p_fleet.add_argument("--soak-surge", action="store_true",
                         help="run the overload surge soak instead: a "
                              "baseline pass then escalating seeded "
                              "traffic surges + retry storms + a board "
                              "crash, gating O1-O5/F1-F6, the critical "
                              "p99 SLO and the goodput floor "
                              "(docs/FLEET.md §11)")
    p_fleet.add_argument("--migration-demo", action="store_true",
                         help="run the live-migration acceptance proof: "
                              "crash a board mid-workload, finish on a "
                              "survivor, diff the output bit-exactly")
    p_fleet.add_argument("--bench", action="store_true",
                         help="write the fleet quick-bench artifact "
                              "(BENCH_fleet_quick.json) instead of a "
                              "report")
    p_fleet.set_defaults(fn=cmd_fleet)

    p_explore = sub.add_parser(
        "explore", parents=harness_parents,
        help="coverage-guided fault-space exploration with "
             "delta-debugged minimal repros (docs/FAULTS.md §5)")
    p_explore.add_argument("--budget", type=int, default=150,
                           help="schedule budget: max fault schedules to "
                                "execute (default: 150)")
    p_explore.add_argument("--seed", type=int, default=7)
    p_explore.add_argument("--coverage-floor", type=float, default=0.9,
                           metavar="FRAC",
                           help="minimum fraction of registered recovery "
                                "paths that must fire (default: 0.9; all "
                                "sites must always fire)")
    p_explore.add_argument("--mutate", default=None, metavar="NAME",
                           help="disable one recovery path before every "
                                "inline run (self-test mode)")
    p_explore.add_argument("--no-fleet", action="store_true",
                           help="skip the board.* fleet schedules")
    p_explore.add_argument("--repro", metavar="FILE", default=None,
                           help="replay a shrunk repro JSON twice and "
                                "verify the byte-identical failure "
                                "instead of exploring")
    p_explore.add_argument("--repro-out", metavar="DIR", default=None,
                           help="write each shrunk repro as "
                                "DIR/REPRO_<schedule>.json")
    p_explore.set_defaults(fn=cmd_explore)

    p_pm = sub.add_parser(
        "postmortem", help="validate + pretty-print a flight-recorder "
                           "bundle (docs/OBSERVABILITY.md §13)")
    p_pm.add_argument("bundle", help="bundle path (FLIGHT_*.json)")
    p_pm.add_argument("--json", action="store_true",
                      help="dump the validated bundle as JSON instead of "
                           "the summary")
    p_pm.set_defaults(fn=cmd_postmortem)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _Exit as exc:
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
