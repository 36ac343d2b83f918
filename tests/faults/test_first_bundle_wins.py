"""One post-mortem per harness invocation: when several runs of one
harness call qualify for a flight bundle, exactly one bundle is written
and it comes from the first qualifying run (docs/OBSERVABILITY.md §13).

``run_soak``'s bundle is pinned in tests/obs/test_flight.py; these cover
the fault matrix, the explorer and the fleet soak."""

import json

import pytest

import repro.obs.flight as flight_mod
from repro.faults import matrix
from repro.faults.explore import run_explore
from repro.fleet.harness import run_fleet_soak
from repro.obs.flight import load_bundle, validate_bundle


@pytest.fixture
def writes(monkeypatch):
    """Every path a flight recorder writes a bundle to, in order."""
    paths: list[str] = []
    real = flight_mod.write_bundle

    def spy(bundle, path):
        paths.append(path)
        real(bundle, path)

    monkeypatch.setattr(flight_mod, "write_bundle", spy)
    return paths


def test_matrix_run_all_keeps_the_first_failing_scenario(monkeypatch,
                                                         tmp_path, writes):
    # Zeroed fault counters fail both scenarios' recovery checks.
    monkeypatch.setattr(matrix, "SCENARIOS", {
        name: matrix.SCENARIOS[name] for name in ("pcap-retry",
                                                  "spurious-done")})
    monkeypatch.setattr(matrix, "_fault_counters",
                        lambda kernel: dict.fromkeys(
                            ("fault_injected", "pcap_errors", "pcap_retries",
                             "pcap_giveups", "watchdog_reclaims",
                             "sw_fallbacks", "vm_kills", "hypercall_faults",
                             "plirq_spurious"), 0))
    out = tmp_path / "matrix.json"
    payload = matrix.run_all(seed=1, flight_path=str(out))
    assert [name for name, r in payload["scenarios"].items()
            if not r["ok"]] == ["pcap-retry", "spurious-done"]
    assert writes == [str(out)]
    bundle = load_bundle(str(out))
    assert validate_bundle(bundle) == []
    assert bundle["reason"] == "fault_matrix_failure"
    assert bundle["context"] == {"harness": "fault-matrix",
                                 "scenario": "pcap-retry"}
    assert bundle["info"]["checks"] == (
        payload["scenarios"]["pcap-retry"]["checks"])


def test_explore_keeps_the_first_failing_schedule(tmp_path, writes):
    # Budget 13 reaches the first two prr.hang windows, and the planted
    # watchdog regression fails both.
    out = tmp_path / "explore.json"
    payload = run_explore(budget=13, seed=7, include_fleet=False,
                          max_shrinks=1, mutate="watchdog_reclaim",
                          flight_path=str(out))
    failures = payload["failures"]
    assert len(failures) == 2
    assert writes == [str(out)]
    bundle = load_bundle(str(out))
    assert validate_bundle(bundle) == []
    assert bundle["reason"] == "explore_failure"
    assert bundle["context"] == {"harness": "explore",
                                 "mutate": "watchdog_reclaim"}
    assert bundle["info"]["checks"] == failures[0]["checks"]
    first = [{k: f[k] for k in ("site", "after", "max_fires", "params")}
             for f in failures[0]["faults"]]
    assert [{k: s[k] for k in ("site", "after", "max_fires", "params")}
            for s in bundle["fault_plan"]["specs"]] == first


def test_fleet_soak_keeps_the_first_violating_run(monkeypatch, tmp_path):
    # Every tick of every run reports a fleet invariant violation, so
    # every run's dispatcher pulls a bundle from one of its boards.
    planted = "F9: planted violation"
    monkeypatch.setattr("repro.fleet.dispatcher.check_fleet_invariants",
                        lambda disp: [planted])
    out = tmp_path / "fleet.json"
    p = run_fleet_soak(seed=2, board_kills=3, boards=2, per_run_kills=1,
                       max_runs=2, ticks=10, flight_path=str(out))
    assert p["totals"]["runs"] == 2
    assert p["incident"] == "invariant_violation"
    assert all(v.startswith(("run 0: ", "run 1: ")) for v in p["violations"])
    assert any(v.startswith("run 1: ") for v in p["violations"])
    bundle = load_bundle(str(out))
    assert validate_bundle(bundle) == []
    assert bundle["reason"] == "fleet_invariant_violation"
    # Board b of run i is seeded (seed + i) * 1000 + b: run 0, board 0.
    assert bundle["seed"] == 2000
    assert bundle["context"]["board"] == 0
    assert bundle["context"]["tick"] == 0
    assert bundle["context"]["violations"] == [planted]
    assert json.loads(out.read_text()) == bundle
