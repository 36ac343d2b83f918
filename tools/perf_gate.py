#!/usr/bin/env python3
"""Same-runner A/B gate on the repository benchmark's host speed.

Usage:
    python tools/perf_gate.py BASE_DIR CHANGE_DIR

Runs each tree's own repository benchmark (``BENCHMARK.json``'s command,
``perfbench/run.py``, with ``--seed 1 --seconds 5 --trace 0``) for every
workload ``BENCHMARK.json`` lists, ``PAIRS`` times per tree.  Base and
change runs alternate on this one machine, and the side that runs first
swaps from pair to pair, so a slow stretch of the host hits both sides.

Each run's last output line is its JSON result.  A run that reports
``correct: false`` or ``failed > 0`` fails the gate.  For every
workload and every end-to-end metric of ``BENCHMARK.json`` (``sim_mcps``,
``setup_s``, ``peak_rss_mb``) the gate compares the change's median with
the base's: worse by more than the metric's ``bound``, in its ``better``
direction, fails.  The table shows the base median with its
interquartile range, the change median and their ratio; a metric whose
base IQR is wider than its bound is flagged ``unresolved``, since its
runs spread more than the regression the gate looks for.

Bounds, directions and workloads come from the *base* tree's
``BENCHMARK.json``, so a change cannot loosen the bound it is judged by.

Exit status: 0 = pass, 1 = regression or failed run, 2 = unusable input
(missing tree or ``BENCHMARK.json``, a run whose last line is not a
benchmark result).

Host time is measured here and in ``perfbench/`` only; the simulator's
own artifacts are pure functions of (code, seed) and are compared with
``cmp`` (docs/BENCHMARKS.md §4).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

#: Alternating (base, change) run pairs per workload.
PAIRS = 3
#: ``--seconds`` of each benchmark run (one run takes about 17 s on a
#: shared 2-core x86 host, setup probes included).
SECONDS = 5
SEED = 1

SIDES = ("base", "change")


def _die(msg: str) -> "NoReturn":
    print(msg, file=sys.stderr)
    sys.exit(2)


def load_spec(tree: Path) -> dict[str, Any]:
    """The tree's ``BENCHMARK.json``: command, workloads, end-to-end
    metrics with their ``better`` direction and ``bound``."""
    path = tree / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
        valid = (isinstance(spec["command"], list)
                 and all(isinstance(w["name"], str)
                         for w in spec["workloads"])
                 and all(m["better"] in ("higher", "lower")
                         and float(m["bound"]) >= 0
                         for m in spec["end_to_end"]))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _die(f"error: cannot read benchmark spec {path}: {exc}")
    if not valid:
        _die(f"error: {path} is not a benchmark spec (command, workloads, "
             f"end_to_end with better/bound)")
    return spec


def parse_run(stdout: str, metrics: list[str]) -> dict[str, Any]:
    """The JSON result on the last line of one benchmark run, which must
    report every one of ``metrics``."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        valid = (isinstance(result["correct"], bool)
                 and isinstance(result["failed"], int)
                 and all(isinstance(result["metrics"][n]["value"],
                                    (int, float)) for n in metrics))
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        valid = False
    if not valid:
        tail = lines[-1][:200] if lines else "<no output>"
        _die(f"error: benchmark run did not end with a result line: {tail}")
    return result


def judge(runs: dict[str, dict[str, list[dict[str, Any]]]],
          spec: dict[str, Any]) -> tuple[list[str], list[str]]:
    """Decide the gate from parsed run results.

    ``runs`` maps workload -> side (``"base"``/``"change"``) -> the
    results of that side's runs.  Returns ``(failures, report_lines)``;
    the gate passes when ``failures`` is empty.
    """
    failures: list[str] = []
    lines: list[str] = []
    for workload, sides in runs.items():
        for side in SIDES:
            for i, r in enumerate(sides[side]):
                if not r["correct"] or r["failed"] > 0:
                    failures.append(
                        f"{workload} {side} run {i}: correct={r['correct']} "
                        f"failed={r['failed']}")
        for m in spec["end_to_end"]:
            name, better, bound = m["name"], m["better"], float(m["bound"])
            base, change = ([r["metrics"][name]["value"] for r in sides[s]]
                            for s in SIDES)
            q1, base_med, q3 = statistics.quantiles(base, n=4,
                                                    method="inclusive")
            change_med = statistics.median(change)
            ratio = change_med / base_med
            worse = 1.0 - ratio if better == "higher" else ratio - 1.0
            iqr = (q3 - q1) / base_med
            status = "ok"
            if worse > bound:
                status = "REGRESS"
                failures.append(f"{workload} {name}: change median "
                                f"{change_med:.4g} vs base {base_med:.4g} "
                                f"({worse:+.1%} worse, bound {bound:.0%})")
            if iqr > bound:
                status += " (unresolved: base IQR wider than bound)"
            lines.append(
                f"{workload:<12} {name:<12} base {base_med:>10.4g} "
                f"(IQR {iqr:6.1%})  change {change_med:>10.4g}  "
                f"ratio {ratio:6.3f}  bound {bound:.0%} {better}  {status}")
    return failures, lines


def run_one(tree: Path, spec: dict[str, Any], workload: str
            ) -> dict[str, Any]:
    """One benchmark run of ``workload`` in ``tree``, parsed."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE,
                              text=True, check=False)
    except OSError as exc:
        _die(f"error: cannot run {' '.join(argv)} in {tree}: {exc}")
    return parse_run(proc.stdout, [m["name"] for m in spec["end_to_end"]])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="base tree (e.g. the merge base)")
    ap.add_argument("change", type=Path, help="candidate tree")
    args = ap.parse_args(argv)
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            _die(f"error: {side} tree {tree} has no perfbench/run.py")
    spec = load_spec(trees["base"])
    runs: dict[str, dict[str, list[dict[str, Any]]]] = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs[wl] = {side: [] for side in SIDES}
        for i in range(PAIRS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                r = run_one(trees[side], spec, wl)
                runs[wl][side].append(r)
                print(f"{wl} pair {i} {side}: "
                      + ", ".join(f"{n} {m['value']:.4g}"
                                  for n, m in sorted(r["metrics"].items())),
                      flush=True)
    failures, lines = judge(runs, spec)
    print(f"perf gate: {trees['change']} against {trees['base']} "
          f"({PAIRS} alternating pairs x {SECONDS} s, seed {SEED})")
    for line in lines:
        print(f"  {line}")
    if failures:
        print(f"FAIL: {'; '.join(failures)}")
        return 1
    print("PASS: no end-to-end metric regressed beyond its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
