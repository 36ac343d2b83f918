"""The deterministic fault matrix: one canned scenario per failure class.

Each scenario builds a small virtualized setup around a seeded
:class:`~repro.faults.plan.FaultPlan`, runs it for a bounded horizon, and
returns its scenario object, a ``checks`` map of named pass/fail booleans
and its guest-visible outcome; :func:`run_scenario` turns that into a
JSON-serializable dict with the fault/recovery counters (``ok`` is the
checks' conjunction).  Same seed → byte-identical JSON — the CI
``fault-matrix`` job runs every scenario twice and diffs the output.

Run them via ``python -m repro faults --scenario <name>`` (or ``all``);
``--list`` prints the catalog.  docs/FAULTS.md narrates each recovery
path in prose.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..common.rng import make_rng
from ..dsp import fft as fft_golden
from ..dsp import qam as qam_golden
from ..guest import api
from ..guest.actions import Finish
from ..guest.ucos import Ucos
from ..eval.scenarios import build_virtualized
from ..kernel.hypercalls import HcStatus
from ..obs.flight import FlightRecorder
from .plan import (
    BITSTREAM_CORRUPT,
    FaultPlan,
    FaultSpec,
    GUEST_BAD_HYPERCALL,
    GUEST_WILD_POINTER,
    PCAP_TRANSFER_ERROR,
    PLIRQ_STORM,
    PRR_HANG,
    PRR_SPURIOUS_DONE,
    UNLIMITED,
)
from .rogue import AUX_TASK_PRIO, add_rogue_vms

#: What a scenario returns: its scenario object, its named checks, and
#: its extra result fields.
Outcome = tuple[Any, dict[str, bool], dict[str, Any]]


def _fault_counters(kernel) -> dict[str, int]:
    """The fault/recovery slice of the metrics registry, label-summed."""
    m = kernel.metrics
    return {
        "fault_injected": m.total("fault.injected"),
        "pcap_errors": m.total("pcap.errors"),
        "pcap_retries": m.total("recovery.pcap_retries"),
        "pcap_giveups": m.total("recovery.pcap_giveups"),
        "watchdog_reclaims": m.total("recovery.watchdog_reclaims"),
        "sw_fallbacks": m.total("recovery.sw_fallbacks"),
        "vm_kills": m.total("kernel.vm_kills"),
        "hypercall_faults": m.total("kernel.hypercall_faults"),
        "plirq_spurious": m.total("kernel.plirq_spurious"),
    }


def _thw(sc, i: int = 0) -> dict[str, int]:
    s = sc.guests[i].thw_stats
    return {"requests": s.requests, "completions": s.completions,
            "busy": s.busy, "errors": s.errors, "retries": s.retries,
            "verified_ok": s.verified_ok, "verified_bad": s.verified_bad}


# -- scenarios ----------------------------------------------------------------

def scenario_pcap_retry(seed: int = 1, *, extra_specs=()) -> Outcome:
    """One corrupted bitstream: the PCAP retries and the guest completes."""
    plan = FaultPlan([FaultSpec(BITSTREAM_CORRUPT, max_fires=1),
                      *extra_specs], seed=seed)
    sc = build_virtualized(1, seed=seed, verify=True, with_workloads=False,
                           iterations=3, task_set=("fft256",),
                           fault_plan=plan)
    sc.run_until_completions(3, max_ms=400.0)
    c = _fault_counters(sc.kernel)
    t = _thw(sc)
    checks = {
        "fault_fired": plan.fires(BITSTREAM_CORRUPT) == 1,
        "pcap_retried": c["pcap_retries"] >= 1,
        "no_giveup": c["pcap_giveups"] == 0,
        "guest_completed": t["completions"] >= 3,
        "results_correct": t["verified_bad"] == 0 and t["verified_ok"] >= 3,
    }
    return sc, checks, {"thw": t}


def scenario_pcap_fail(seed: int = 1, *, extra_specs=()) -> Outcome:
    """Persistent PCAP errors: bounded retries, then a VM-visible error
    status — the guest survives, nothing hangs."""
    plan = FaultPlan([FaultSpec(PCAP_TRANSFER_ERROR, max_fires=UNLIMITED),
                      *extra_specs], seed=seed)
    sc = build_virtualized(1, seed=seed, with_workloads=False,
                           iterations=2, task_set=("fft256",),
                           fault_plan=plan)
    sc.run_ms(150.0)
    c = _fault_counters(sc.kernel)
    t = _thw(sc)
    checks = {
        "pcap_gave_up": c["pcap_giveups"] >= 1,
        "errors_surfaced": t["errors"] >= 1,
        "no_completion": t["completions"] == 0,
        "vm_survived": c["vm_kills"] == 0,
        "requests_finished": t["requests"] >= 2,
    }
    return sc, checks, {"thw": t}


def scenario_hw_hang(seed: int = 1, *, extra_specs=()) -> Outcome:
    """A started task never signals DONE: the controller watchdog expires,
    the manager force-reclaims the PRR, the guest re-requests and wins."""
    plan = FaultPlan([FaultSpec(PRR_HANG, max_fires=1), *extra_specs],
                     seed=seed)
    # Poll mode: the hang is detected by the watchdog, not by an IRQ that
    # will never come.
    sc = build_virtualized(1, seed=seed, use_irq=False, verify=True,
                           with_workloads=False, iterations=4,
                           task_set=("fft256",), fault_plan=plan)
    sc.run_until_completions(4, max_ms=600.0)
    c = _fault_counters(sc.kernel)
    t = _thw(sc)
    lat = sc.kernel.metrics.histogram("recovery.latency_cycles")
    free_prrs = sum(1 for p in sc.machine.prrs if p.client_vm is None)
    checks = {
        "hang_fired": plan.fires(PRR_HANG) == 1,
        "watchdog_reclaimed": c["watchdog_reclaims"] == 1,
        "latency_recorded": lat.count == 1,
        "guest_recovered": t["completions"] >= 4,
        "results_correct": t["verified_bad"] == 0,
    }
    return sc, checks, {"thw": t,
                        "recovery_latency_cycles": int(lat.sum),
                        "free_prrs": free_prrs}


def scenario_spurious_done(seed: int = 1, *, extra_specs=()) -> Outcome:
    """Spurious DONE IRQs mid-computation: the client re-waits instead of
    reading a half-written result."""
    plan = FaultPlan([FaultSpec(PRR_SPURIOUS_DONE, max_fires=2),
                      *extra_specs], seed=seed)
    sc = build_virtualized(1, seed=seed, use_irq=True, verify=True,
                           with_workloads=False, iterations=4,
                           task_set=("qam16",), fault_plan=plan)
    sc.run_until_completions(4, max_ms=400.0)
    c = _fault_counters(sc.kernel)
    t = _thw(sc)
    checks = {
        "spurious_fired": plan.fires(PRR_SPURIOUS_DONE) == 2,
        "injections_counted": c["fault_injected"] >= 2,
        "guest_completed": t["completions"] >= 4,
        "results_correct": t["verified_bad"] == 0 and t["verified_ok"] >= 4,
    }
    return sc, checks, {"thw": t}


def scenario_plirq_storm(seed: int = 1, *, extra_specs=()) -> Outcome:
    """A burst of unsolicited PL IRQs on an unowned line: the kernel EOIs
    and counts them; no guest sees a phantom completion."""
    plan = FaultPlan([FaultSpec(PLIRQ_STORM, params={
        "line": 15, "at": 200_000, "count": 8, "spacing": 2_000}),
        *extra_specs], seed=seed)
    sc = build_virtualized(2, seed=seed, verify=True, with_workloads=False,
                           iterations=3, task_set=("fft256", "qam16"),
                           fault_plan=plan)
    sc.run_until_completions(6, max_ms=400.0)
    c = _fault_counters(sc.kernel)
    checks = {
        "storm_fired": plan.fires(PLIRQ_STORM) == 1,
        "spurious_counted": c["plirq_spurious"] >= 1,
        "guests_unaffected": sc.total_completions() >= 6,
        "no_bad_results": all(g.thw_stats.verified_bad == 0
                              for g in sc.guests),
        "no_kills": c["vm_kills"] == 0,
    }
    return sc, checks, {"completions": sc.total_completions()}


def _make_fallback_task(directory: dict[str, int], results: dict, *,
                        seed: int):
    """FFT then QAM through the adaptive APIs while the fabric is down."""

    def fn(os_: Ucos):
        rng = make_rng(seed, stream="fallback-task")
        x = (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        fft_in = x.astype(np.complex64).tobytes()
        h = yield from api.fft_compute(os_, directory["fft256"], "fft256",
                                       fft_in)
        want = fft_golden.fft(
            np.frombuffer(fft_in, dtype=np.complex64)).tobytes()
        results["fft_status"] = int(h.status)
        results["fft_software"] = h.prr_id is None
        results["fft_correct"] = h.output == want

        qam_in = rng.integers(0, 256, size=512, dtype=np.uint8).tobytes()
        h = yield from api.qam_compute(os_, directory["qam16"], "qam16",
                                      qam_in)
        want = qam_golden.modulate(
            qam_golden.pack_bits_to_symbols(qam_in, 16), 16).tobytes()
        results["qam_status"] = int(h.status)
        results["qam_software"] = h.prr_id is None
        results["qam_correct"] = h.output == want
        yield Finish()

    return fn


def scenario_sw_fallback(seed: int = 1, *, extra_specs=()) -> Outcome:
    """Every reconfiguration fails: the adaptive FFT/QAM APIs degrade to
    software with bit-identical output."""
    plan = FaultPlan([FaultSpec(PCAP_TRANSFER_ERROR, max_fires=UNLIMITED),
                      *extra_specs], seed=seed)
    sc = build_virtualized(1, seed=seed, with_workloads=False,
                           iterations=0, fault_plan=plan)
    results: dict[str, Any] = {}
    sc.guests[0].os.create_task(
        "fallback", AUX_TASK_PRIO,
        _make_fallback_task(sc.directory, results, seed=seed))
    sc.run_ms(200.0)
    c = _fault_counters(sc.kernel)
    checks = {
        "both_fell_back": c["sw_fallbacks"] == 2,
        "fft_software_ok": bool(results.get("fft_software"))
        and results.get("fft_status") == int(HcStatus.SUCCESS),
        "fft_correct": bool(results.get("fft_correct")),
        "qam_software_ok": bool(results.get("qam_software"))
        and results.get("qam_status") == int(HcStatus.SUCCESS),
        "qam_correct": bool(results.get("qam_correct")),
        "pcap_gave_up": c["pcap_giveups"] >= 1,
    }
    return sc, checks, {
        "fallback": {k: (bool(v) if isinstance(v, bool) else int(v))
                     for k, v in sorted(results.items())}}


def scenario_rogue_guest(seed: int = 1, *, extra_specs=()) -> Outcome:
    """Three misbehaving guests next to one healthy one: a hypercall
    fuzzer, a wild-DMA client, and a wild-pointer VM.  The fuzzer and the
    DMA client are rejected call-by-call; the wild-pointer VM is killed;
    the healthy guest never notices."""
    plan = FaultPlan([
        FaultSpec(GUEST_BAD_HYPERCALL, max_fires=UNLIMITED),
        FaultSpec(GUEST_WILD_POINTER, max_fires=UNLIMITED),
        *extra_specs,
    ], seed=seed)
    sc = build_virtualized(1, seed=seed, verify=True, with_workloads=False,
                           iterations=3, task_set=("fft256",),
                           fault_plan=plan)
    rogue = add_rogue_vms(sc, (GUEST_BAD_HYPERCALL, GUEST_WILD_POINTER),
                          seed=seed, fuzz_iterations=30)

    sc.run_ms(200.0)
    c = _fault_counters(sc.kernel)
    t = _thw(sc)
    from ..kernel.pd import PdState
    checks = {
        "fuzzer_drained": rogue.fuzzer.issued == 30,
        "wild_vm_killed": rogue.wild_pd.state is PdState.DEAD
        and c["vm_kills"] == 1,
        "dma_blocked": rogue.dma.by_status.get("bounds_blocked") == 1,
        "healthy_guest_ok": t["completions"] >= 3 and t["verified_bad"] == 0,
        "injections_counted": c["fault_injected"] >= 31,
    }
    return sc, checks, {"thw": t,
                        "fuzzer": {"issued": rogue.fuzzer.issued,
                                   "by_status": dict(sorted(
                                       rogue.fuzzer.by_status.items()))}}


#: The catalog, in documentation order.
SCENARIOS: dict[str, Callable[..., Outcome]] = {
    "pcap-retry": scenario_pcap_retry,
    "pcap-fail": scenario_pcap_fail,
    "hw-hang": scenario_hw_hang,
    "spurious-done": scenario_spurious_done,
    "plirq-storm": scenario_plirq_storm,
    "sw-fallback": scenario_sw_fallback,
    "rogue-guest": scenario_rogue_guest,
}


def _run(name: str, seed: int, flight: FlightRecorder | None
         ) -> dict[str, Any]:
    """Run one scenario and build its result; a failing one is offered
    to ``flight``, which keeps the first bundle."""
    sc, checks, extra = SCENARIOS[name](seed)
    result = {
        "scenario": name,
        "seed": seed,
        "cycles": sc.kernel.sim.now,
        "counters": _fault_counters(sc.kernel),
        "plan": sc.injector.plan.summary() if sc.injector else {},
        "checks": {k: bool(v) for k, v in sorted(checks.items())},
        "ok": all(checks.values()),
        **extra,
    }
    if flight is not None and not result["ok"]:
        flight.arm(sc.kernel, seed=seed,
                   context={"harness": "fault-matrix", "scenario": name})
        flight.dump("fault_matrix_failure", checks=result["checks"])
    return result


def run_scenario(name: str, seed: int = 1, *,
                 flight_path: str | None = None) -> dict[str, Any]:
    if name not in SCENARIOS:
        raise KeyError(f"unknown fault scenario {name!r} "
                       f"(known: {', '.join(SCENARIOS)})")
    return _run(name, seed, FlightRecorder(flight_path) if flight_path
                else None)


def run_all(seed: int = 1, *,
            flight_path: str | None = None) -> dict[str, Any]:
    flight = FlightRecorder(flight_path) if flight_path else None
    results = {name: _run(name, seed, flight) for name in SCENARIOS}
    return {
        "seed": seed,
        "scenarios": results,
        "ok": all(r["ok"] for r in results.values()),
    }
