"""The CLI output paths of the soak, fleet and explore commands: the
``--out`` file is the harness payload's canonical JSON, and an
unwritable ``--stream-out`` (exit 2) or ``--out`` (exit 1) fails with
the documented status."""

import json

import pytest

from repro.__main__ import main
from repro.faults.explore import run_explore
from repro.faults.soak import incident_exit_code, run_soak, run_vm_soak
from repro.fleet.harness import run_fleet_soak

CASES = {
    "soak": (["soak", "--seed", "3", "--crashes", "1", "--max-runs", "1"],
             lambda: run_soak(seed=3, crashes=1, max_runs=1)),
    "vm-soak": (["soak", "--seed", "3", "--vm-kills", "1",
                 "--max-runs", "1"],
                lambda: run_vm_soak(seed=3, kills=1, max_runs=1)),
    "fleet-soak": (["fleet", "--seed", "3", "--boards", "2", "--ticks", "10",
                    "--soak-board-kills", "1"],
                   lambda: run_fleet_soak(seed=3, board_kills=1, boards=2,
                                          ticks=10)),
    "explore": (["explore", "--seed", "7", "--budget", "2", "--no-fleet"],
                lambda: run_explore(budget=2, seed=7, include_fleet=False)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_file_is_the_canonical_payload(tmp_path, name):
    argv, run = CASES[name]
    out = tmp_path / "out.json"
    payload = run()
    assert main(argv + ["--out", str(out)]) == incident_exit_code(payload)
    assert out.read_text(encoding="utf-8") == \
        json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_unwritable_stream_out_exits_2(tmp_path, name):
    argv, _ = CASES[name]
    bad = tmp_path / "missing" / "stream.jsonl"
    assert main(argv + ["--stream-out", str(bad)]) == 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_unwritable_out_exits_1(tmp_path, name):
    argv, _ = CASES[name]
    bad = tmp_path / "missing" / "out.json"
    assert main(argv + ["--out", str(bad)]) == 1
