"""Bench artifact pipeline: payload schema, determinism, regression gate."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.eval.bench import (
    PROFILES,
    SCHEMA_VERSION,
    default_artifact_path,
    run_bench,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_bench_compare():
    """tools/ is not a package; load the script as a module."""
    path = REPO_ROOT / "tools" / "bench_compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench_compare = _load_bench_compare()


@pytest.fixture(scope="module")
def payload():
    """One short real bench run shared by the schema tests."""
    return run_bench("quick", guests=2, ms=40.0, seed=2)


REQUIRED_SERIES = (
    "vm_switch_cycles", "hypercall_cycles", "mgr_exec_cycles",
    "virq_delivery_cycles", "plirq_entry_cycles",
    "hwreq_entry_cycles", "hwreq_execution_cycles", "hwreq_exit_cycles",
    "hwreq_total_cycles",
    "dpr_entry_cycles", "dpr_decide_cycles", "dpr_pcap_cycles",
    "dpr_resume_cycles", "reconfig_cycles",
)


class TestRunBench:
    def test_schema_shape(self, payload):
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["name"] == "quick"
        assert payload["scenario"] == {
            "guests": 2, "ms": 40.0, "seed": 2,
            "cpu_hz": payload["scenario"]["cpu_hz"]}
        for key in ("cycles", "vm_switches", "hypercalls", "irqs",
                    "manager_requests", "pcap_transfers", "completions"):
            assert key in payload["totals"]
        for name in REQUIRED_SERIES:
            assert name in payload["series"], name

    def test_core_series_have_percentiles(self, payload):
        """The headline latency axes must be populated on a real run."""
        for name in ("vm_switch_cycles", "hypercall_cycles",
                     "virq_delivery_cycles", "reconfig_cycles"):
            s = payload["series"][name]
            assert s["count"] > 0, name
            assert s["p50"] <= s["p90"] <= s["p99"] <= s["max"]
            assert s["min"] > 0 and s["unit"] == "cycles"

    def test_accounting_invariant_in_artifact(self, payload):
        acct = payload["accounting"]
        assert (acct["total_accounted"]
                == payload["totals"]["cycles"] - acct["start_cycle"])
        per_vm = sum(v["cpu_cycles"] for v in acct["vms"])
        assert (acct["kernel_cycles"] + acct["idle_cycles"] + per_vm
                == acct["total_accounted"])

    def test_vm_lifecycle_block_all_zero_when_fault_free(self, payload):
        """Timing neutrality in the artifact itself: a healthy bench run
        schedules no lifecycle events (docs/RECOVERY.md §9)."""
        lc = payload["vm_lifecycle"]
        for key in ("checkpoints", "restarts", "restores", "halts",
                    "virqs_replayed", "virqs_dropped", "virqs_dead_epoch",
                    "client_reclaims"):
            assert lc[key] == 0, key
        assert lc["checkpoint_cycles"]["count"] == 0
        assert lc["restore_cycles"]["count"] == 0

    def test_same_seed_reruns_identical_after_strip(self):
        """The determinism contract of docs/PERFORMANCE.md §5. The
        artifact carries no host time, so nothing is stripped: two
        same-seed runs must be equal as they stand."""
        a = run_bench("quick", guests=1, ms=20.0, seed=9)
        b = run_bench("quick", guests=1, ms=20.0, seed=9)
        assert a == b

    def test_profiles_and_artifact_path(self):
        assert set(PROFILES) == {"paper", "quick"}
        assert default_artifact_path("paper") == "BENCH_paper.json"

    def test_unknown_profile_rejected(self, capsys):
        with pytest.raises(ValueError, match="unknown bench profile 'typo'"):
            run_bench("typo")
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--name", "typo"])
        assert exc.value.code == 2
        assert "invalid choice: 'typo'" in capsys.readouterr().err

    def test_write_bench_round_trips_deterministically(self, tmp_path):
        """The determinism contract of docs/PERFORMANCE.md §5: two
        same-seed CLI runs write byte-identical artifacts."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            assert main(["bench", "--quick", "--ms", "20",
                         "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["name"] == "quick"


def _artifact(series):
    return {"schema_version": SCHEMA_VERSION, "series": series}


def _series(count=10, mean=100.0, p99=200.0):
    return {"count": count, "mean": mean, "p50": mean, "p90": p99,
            "p99": p99, "min": 1.0, "max": p99, "unit": "cycles"}


def _value(value, direction, unit="x/s"):
    return {"count": 1, "kind": "value", "unit": unit,
            "direction": direction, "value": value}


class TestCompare:
    def test_identical_artifacts_pass(self):
        base = _artifact({"x_cycles": _series()})
        regressions, lines = bench_compare.compare(
            base, copy.deepcopy(base), threshold_pct=10.0,
            metrics=("mean", "p99"))
        assert regressions == []
        assert any("ok" in line for line in lines)

    def test_injected_20pct_regression_detected(self):
        base = _artifact({"x_cycles": _series(mean=100.0, p99=200.0)})
        new = _artifact({"x_cycles": _series(mean=120.0, p99=240.0)})
        regressions, lines = bench_compare.compare(
            base, new, threshold_pct=10.0, metrics=("mean", "p99"))
        assert regressions == ["x_cycles"]
        assert any("REGRESS" in line for line in lines)

    def test_improvement_passes(self):
        base = _artifact({"x_cycles": _series(mean=100.0, p99=200.0)})
        new = _artifact({"x_cycles": _series(mean=50.0, p99=90.0)})
        regressions, _ = bench_compare.compare(
            base, new, threshold_pct=10.0, metrics=("mean", "p99"))
        assert regressions == []

    def test_vanished_series_fails(self):
        base = _artifact({"x_cycles": _series()})
        new = _artifact({"x_cycles": _series(count=0, mean=0.0, p99=0.0)})
        regressions, lines = bench_compare.compare(
            base, new, threshold_pct=10.0, metrics=("mean",))
        assert regressions == ["x_cycles"]
        assert any("MISSING" in line for line in lines)

    def test_empty_baseline_series_skipped(self):
        base = _artifact({"x_cycles": _series(count=0, mean=0.0, p99=0.0)})
        new = _artifact({"x_cycles": _series()})
        regressions, lines = bench_compare.compare(
            base, new, threshold_pct=10.0, metrics=("mean",))
        assert regressions == [] and lines == []

    def test_throughput_drop_beyond_threshold_fails(self):
        base = _artifact({"fleet_goodput": _value(50, "higher")})
        new = _artifact({"fleet_goodput": _value(40, "higher")})
        regressions, lines = bench_compare.compare(
            base, new, threshold_pct=10.0, metrics=("mean",))
        assert regressions == ["fleet_goodput"]
        assert any("REGRESS" in line for line in lines)

    def test_throughput_gain_and_small_drop_pass(self):
        base = _artifact({"fleet_goodput": _value(50, "higher")})
        for new_value in (60, 46):       # +20% and -8%
            new = _artifact({"fleet_goodput": _value(new_value, "higher")})
            regressions, _ = bench_compare.compare(
                base, new, threshold_pct=10.0, metrics=("mean",))
            assert regressions == [], new_value

    def test_lower_is_better_value_series_gated_on_increase(self):
        base = _artifact({"rss_bytes": _value(100.0, "lower")})
        new = _artifact({"rss_bytes": _value(150.0, "lower")})
        regressions, _ = bench_compare.compare(
            base, new, threshold_pct=10.0, metrics=("mean",))
        assert regressions == ["rss_bytes"]

    def test_wall_clock_never_gated(self):
        base = _artifact({"wall_clock_s": _value(0.1, "none")})
        new = _artifact({"wall_clock_s": _value(9.9, "none")})
        regressions, lines = bench_compare.compare(
            base, new, threshold_pct=10.0, metrics=("mean",))
        assert regressions == []
        assert any("not gated" in line for line in lines)

    def test_vanished_gated_value_series_fails(self):
        base = _artifact({"fleet_goodput": _value(50, "higher")})
        new = _artifact({})
        regressions, lines = bench_compare.compare(
            base, new, threshold_pct=10.0, metrics=("mean",))
        assert regressions == ["fleet_goodput"]
        assert any("MISSING" in line for line in lines)

    def test_schema_mismatch_exits_2(self):
        base = _artifact({"x_cycles": _series()})
        new = dict(base, schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(SystemExit) as exc:
            bench_compare.compare(base, new, threshold_pct=10.0,
                                  metrics=("mean",))
        assert exc.value.code == 2

    def test_only_series_restricts_gate(self):
        base = _artifact({"a_cycles": _series(), "b_cycles": _series()})
        new = _artifact({"a_cycles": _series(),
                         "b_cycles": _series(mean=130.0, p99=260.0)})
        regressions, _ = bench_compare.compare(
            base, new, threshold_pct=10.0, metrics=("mean",),
            only_series=["a_cycles"])
        assert regressions == []


class TestCompareCli:
    def _write(self, tmp_path, name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    def test_exit_0_on_identical(self, tmp_path, capsys):
        base = _artifact({"x_cycles": _series()})
        a = self._write(tmp_path, "a.json", base)
        b = self._write(tmp_path, "b.json", base)
        assert bench_compare.main([a, b]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_1_on_regression(self, tmp_path, capsys):
        base = _artifact({"x_cycles": _series(mean=100.0, p99=200.0)})
        new = _artifact({"x_cycles": _series(mean=120.0, p99=240.0)})
        a = self._write(tmp_path, "a.json", base)
        b = self._write(tmp_path, "b.json", new)
        assert bench_compare.main([a, b]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_threshold_flag_loosens_gate(self, tmp_path):
        base = _artifact({"x_cycles": _series(mean=100.0, p99=200.0)})
        new = _artifact({"x_cycles": _series(mean=120.0, p99=240.0)})
        a = self._write(tmp_path, "a.json", base)
        b = self._write(tmp_path, "b.json", new)
        assert bench_compare.main([a, b, "--threshold", "25"]) == 0

    def test_exit_2_on_unreadable_artifact(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            bench_compare.main([str(bogus), str(bogus)])
        assert exc.value.code == 2

    def test_exit_2_on_non_artifact(self, tmp_path):
        p = self._write(tmp_path, "p.json", {"no_series": True})
        with pytest.raises(SystemExit) as exc:
            bench_compare.main([p, p])
        assert exc.value.code == 2

    def test_committed_baseline_is_current_schema(self):
        baseline = REPO_ROOT / "benchmarks" / "baselines" / "BENCH_quick.json"
        payload = json.loads(baseline.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["series"]["vm_switch_cycles"]["count"] > 0
