"""Decision logic of tools/perf_gate.py, on synthetic benchmark results."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_perf_gate():
    """tools/ is not a package; load the script as a module."""
    path = REPO_ROOT / "tools" / "perf_gate.py"
    spec = importlib.util.spec_from_file_location("perf_gate", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


perf_gate = _load_perf_gate()

#: The bounds and directions the gate judges by, as the repository
#: benchmark declares them.
SPEC = perf_gate.load_spec(REPO_ROOT)

BASE = {"sim_mcps": 600.0, "setup_s": 0.5, "peak_rss_mb": 50.0}


def _result(*, correct=True, failed=0, **metrics):
    values = {**BASE, **metrics}
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {n: {"value": v, "unit": "-"}
                        for n, v in values.items()}}


def _runs(change, base=None, workload="paper4"):
    """Three identical base runs against three ``change`` runs."""
    return {workload: {"base": [base or _result() for _ in range(3)],
                       "change": [change for _ in range(3)]}}


def test_spec_declares_the_gated_metrics():
    gated = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    assert gated == {"sim_mcps": "higher", "setup_s": "lower",
                     "peak_rss_mb": "lower"}


def test_identical_runs_pass():
    failures, lines = perf_gate.judge(_runs(_result()), SPEC)
    assert failures == []
    assert len(lines) == len(SPEC["end_to_end"])
    assert all(line.endswith("ok") for line in lines)


def test_sim_mcps_drop_of_16pct_fails_and_10pct_passes():
    failures, lines = perf_gate.judge(
        _runs(_result(sim_mcps=600.0 * 0.84)), SPEC)
    assert len(failures) == 1 and failures[0].startswith("paper4 sim_mcps")
    assert any("REGRESS" in line and "sim_mcps" in line for line in lines)
    failures, _ = perf_gate.judge(_runs(_result(sim_mcps=600.0 * 0.90)), SPEC)
    assert failures == []


def test_sim_mcps_gain_passes():
    failures, _ = perf_gate.judge(_runs(_result(sim_mcps=1200.0)), SPEC)
    assert failures == []


@pytest.mark.parametrize("name,factor", [("setup_s", 1.30),
                                         ("peak_rss_mb", 1.15)])
def test_lower_is_better_metrics_fail_on_increase(name, factor):
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}[name]
    assert factor - 1.0 > bound
    failures, _ = perf_gate.judge(
        _runs(_result(**{name: BASE[name] * factor})), SPEC)
    assert [f.split(":")[0] for f in failures] == [f"paper4 {name}"]
    # The same relative move downwards is a gain, not a regression.
    failures, _ = perf_gate.judge(
        _runs(_result(**{name: BASE[name] / factor})), SPEC)
    assert failures == []


@pytest.mark.parametrize("side", ["base", "change"])
def test_failed_run_fails_the_gate(side):
    runs = _runs(_result())
    runs["paper4"][side][1] = _result(failed=1)
    failures, _ = perf_gate.judge(runs, SPEC)
    assert failures == [f"paper4 {side} run 1: correct=True failed=1"]


def test_incorrect_run_fails_the_gate():
    failures, _ = perf_gate.judge(_runs(_result(correct=False)), SPEC)
    assert len(failures) == 3
    assert all("correct=False" in f for f in failures)


def test_wide_base_spread_is_flagged_unresolved():
    runs = {"paper4": {
        "base": [_result(sim_mcps=v) for v in (400.0, 600.0, 800.0)],
        "change": [_result() for _ in range(3)]}}
    failures, lines = perf_gate.judge(runs, SPEC)
    assert failures == []
    [line] = [ln for ln in lines if "sim_mcps" in ln]
    assert "unresolved" in line
    assert not any("unresolved" in ln for ln in lines if ln is not line)


def test_parse_run_reads_the_last_line():
    out = "perfbench paper4 seed=1 ...\n  host sim_mcps 600\n" \
        + json.dumps(_result()) + "\n"
    assert perf_gate.parse_run(out, list(BASE)) == _result()


@pytest.mark.parametrize("out", [
    "",
    "perfbench paper4 seed=1\n{not json",
    "[1, 2]",
    json.dumps({"correct": True, "failed": 0}),
    json.dumps({"correct": "yes", "failed": 0, "metrics": {}}),
    json.dumps({"correct": True, "failed": 0,
                "metrics": {"sim_mcps": {"value": "fast"}}}),
    json.dumps({"correct": True, "failed": 0,
                "metrics": {"sim_mcps": {"value": 600.0}}}),
])
def test_malformed_last_line_exits_2(out):
    with pytest.raises(SystemExit) as exc:
        perf_gate.parse_run(out, list(BASE))
    assert exc.value.code == 2


def test_tree_without_benchmark_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        perf_gate.main([str(tmp_path), str(REPO_ROOT)])
    assert exc.value.code == 2
