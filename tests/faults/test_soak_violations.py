"""The soak violation path end to end: plant an invariant violation in
the board sweep (``check_board``'s two halves) and pin the payload
strings, the incident class and the exit code (docs/RECOVERY.md §10)."""

import pytest

from repro.faults.soak import (EXIT_INVARIANT_VIOLATION, incident_exit_code,
                               run_soak, run_vm_soak)
from repro.fleet.harness import run_fleet_soak

HW = "I9: planted violation"
LC = "L9: planted violation"
I_HALF = "repro.hwmgr.invariants.check_invariants"
L_HALF = "repro.hwmgr.invariants.check_lifecycle_invariants"

CASES = {
    # Both inline soaks run the whole board sweep: hardware, then
    # lifecycle.
    "soak": (
        {I_HALF: [HW], L_HALF: [LC]},
        lambda: run_soak(seed=11, crashes=3, max_runs=2),
        [HW, LC, HW, LC]),
    "vm-soak": (
        {I_HALF: [HW], L_HALF: [LC]},
        lambda: run_vm_soak(seed=11, kills=3, max_runs=2),
        [HW, LC, HW, LC]),
    # The fleet soak tags each board sweep with its run and board; run 1
    # loses board 1 to its kill, so only board 0 is swept there.
    "fleet-soak": (
        {I_HALF: [HW]},
        lambda: run_fleet_soak(seed=2, board_kills=3, boards=2,
                               per_run_kills=1, max_runs=2, ticks=10),
        [f"run 0: board 0: {HW}", f"run 0: board 1: {HW}",
         f"run 1: board 0: {HW}"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_planted_violation_classifies_as_invariant_violation(monkeypatch,
                                                             name):
    patches, run, expected = CASES[name]
    for target, planted in patches.items():
        monkeypatch.setattr(target, lambda kernel, _p=planted: list(_p))
    p = run()
    assert p["totals"]["runs"] == 2
    assert p["violations"] == expected
    assert p["totals"]["invariant_violations"] == len(expected)
    assert p["incident"] == "invariant_violation"
    assert not p["ok"]
    assert incident_exit_code(p) == EXIT_INVARIANT_VIOLATION == 4
    assert not any(r["ok"] for r in p["runs"])
