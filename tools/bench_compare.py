#!/usr/bin/env python3
"""Diff two BENCH_*.json artifacts and fail on latency regressions.

Usage:
    python tools/bench_compare.py BASELINE NEW [--threshold PCT]
                                  [--metrics mean,p99] [--series NAME ...]

For every latency series present in the baseline with samples, the
selected per-series statistics (default: ``mean`` and ``p99``) are
compared against the new artifact.  A relative increase above the
threshold (default 10%) is a regression; improvements and sub-threshold
noise pass.  A series that has samples in the baseline but is missing or
empty in the new artifact also fails — a silently vanished measurement
is worse than a slow one.  So does a series the new artifact has that
the baseline lacks (unless ``--series`` narrows the comparison): an
ungated measurement means the committed baseline is stale.

The report is a per-series table showing **every** gated statistic
(baseline -> new, relative delta), with statistics beyond the threshold
starred — not just the worst offender — so a two-axis regression is
visible as such.  The failure summary lists every offending series.

Scalar *value* series (``{"kind": "value", "value": ...}``) are gated
by their ``direction`` field: ``"higher"`` means a relative *decrease*
beyond the threshold fails (e.g. ``fleet_goodput``), ``"lower"`` means
an increase fails, and ``"none"`` is reported but never gated (e.g.
``fleet_migrations``).

Artifacts are deterministic, so CI also ``cmp``s them against the
baseline; this tool is the readable per-series diff beside that gate.
Host speed is not in artifacts: see ``tools/perf_gate.py``.

Exit status: 0 = clean, 1 = regression(s), 2 = unusable input (schema
mismatch, unreadable file).

The artifact schema is documented in docs/BENCHMARKS.md; CI runs this
against the committed baseline in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_THRESHOLD_PCT = 10.0
DEFAULT_METRICS = ("mean", "p99")


def _die(msg: str) -> "NoReturn":
    print(msg, file=sys.stderr)
    sys.exit(2)


def load_artifact(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except (OSError, ValueError) as exc:
        _die(f"error: cannot read artifact {path}: {exc}")
    if not isinstance(payload, dict) or "series" not in payload:
        _die(f"error: {path} is not a bench artifact (no 'series' key)")
    series = payload["series"]
    if not isinstance(series, dict) \
            or not all(isinstance(s, dict) for s in series.values()):
        _die(f"error: {path} is not a bench artifact "
             f"('series' must map names to summary dicts)")
    return payload


def format_rows(rows: list[tuple[str, str, list[str]]]) -> list[str]:
    """Column-aligned table lines from ``(status, series, cells)`` rows.

    Cell columns are aligned across rows by position; rows may have
    fewer cells than others (value series have one, MISSING rows carry
    a single explanation).
    """
    if not rows:
        return []
    w_status = max(len(s) for s, _, _ in rows)
    w_name = max(len(n) for _, n, _ in rows)
    widths: list[int] = []
    for _, _, cells in rows:
        for i, cell in enumerate(cells):
            if i >= len(widths):
                widths.append(0)
            widths[i] = max(widths[i], len(cell))
    lines = []
    for status, name, cells in rows:
        padded = "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells))
        lines.append(f"{status:<{w_status}}  {name:<{w_name}}  "
                     f"{padded}".rstrip())
    return lines


def compare(baseline: dict, new: dict, *, threshold_pct: float,
            metrics: tuple[str, ...], only_series: list[str] | None = None
            ) -> tuple[list[str], list[str]]:
    """Returns (regressions, report_lines).

    ``report_lines`` is the aligned per-series table: one row per
    series, one cell per gated statistic (all shown, breaching ones
    starred), plus the sample-count column.
    """
    if baseline.get("schema_version") != new.get("schema_version"):
        _die(f"error: schema_version mismatch "
             f"({baseline.get('schema_version')} vs {new.get('schema_version')})")
    regressions: list[str] = []
    rows: list[tuple[str, str, list[str]]] = []
    base_series = baseline["series"]
    new_series = new["series"]
    names = only_series if only_series else sorted(base_series)
    for name in names:
        base = base_series.get(name)
        if base is None:
            _die(f"error: series {name!r} not in baseline")
        if not base.get("count"):
            continue                    # nothing to regress against
        cur = new_series.get(name)
        if "value" in base:             # scalar value series
            direction = base.get("direction", "none")
            unit = base.get("unit", "")
            if cur is None or "value" not in cur:
                if direction == "none":
                    rows.append(("info", name, ["absent in new artifact"]))
                    continue
                regressions.append(name)
                rows.append(("MISSING", name,
                             ["value series absent in new artifact"]))
                continue
            b, n = float(base["value"]), float(cur["value"])
            if direction == "none" or not b:
                rows.append(("info", name,
                             [f"{b:g} -> {n:g} {unit} (not gated)"]))
                continue
            rel = ((b - n) if direction == "higher" else (n - b)) / b * 100.0
            signed = -rel if direction == "higher" else rel
            regressed = rel > threshold_pct
            if regressed:
                regressions.append(name)
            rows.append(("REGRESS" if regressed else "ok", name,
                         [f"{b:g} -> {n:g} {unit} ({signed:+.1f}%, "
                          f"{direction}-is-better){'*' if regressed else ''}"]))
            continue
        if cur is None or not cur.get("count"):
            regressions.append(name)
            rows.append(("MISSING", name,
                         [f"baseline has {base['count']} samples, "
                          f"new artifact has none"]))
            continue
        cells: list[str] = []
        breached = False
        for metric in metrics:
            b, n = base.get(metric), cur.get(metric)
            if not b or n is None:      # zero/absent baseline: undefined rel
                cells.append(f"{metric} n/a")
                continue
            rel = (n - b) / b * 100.0
            over = rel > threshold_pct
            breached |= over
            cells.append(f"{metric} {b:g} -> {n:g} "
                         f"({rel:+.1f}%){'*' if over else ''}")
        cells.append(f"n {base['count']} -> {cur['count']}")
        if breached:
            regressions.append(name)
        rows.append(("REGRESS" if breached else "ok", name, cells))
    if only_series is None:
        # A series the candidate grew that the baseline never measured is
        # a gate with no reference — fail loudly so the baseline gets
        # regenerated rather than silently leaving the new series ungated.
        for name in sorted(set(new_series) - set(base_series)):
            regressions.append(name)
            rows.append(("EXTRA", name,
                         ["in new artifact but not in baseline — "
                          "regenerate the committed baseline"]))
    return regressions, format_rows(rows)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline BENCH_*.json")
    ap.add_argument("new", help="candidate BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_PCT,
                    metavar="PCT",
                    help="max tolerated relative increase per statistic "
                         f"(default {DEFAULT_THRESHOLD_PCT:g}%%)")
    ap.add_argument("--metrics", default=",".join(DEFAULT_METRICS),
                    help="comma-separated statistics to gate on "
                         f"(default {','.join(DEFAULT_METRICS)})")
    ap.add_argument("--series", nargs="*", default=None,
                    help="restrict the comparison to these series names")
    args = ap.parse_args(argv)

    baseline = load_artifact(args.baseline)
    new = load_artifact(args.new)
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    regressions, lines = compare(baseline, new,
                                 threshold_pct=args.threshold,
                                 metrics=metrics, only_series=args.series)
    print(f"comparing {args.new} against {args.baseline} "
          f"(threshold {args.threshold:g}%, metrics {', '.join(metrics)})")
    for line in lines:
        print(f"  {line}")
    if regressions:
        print(f"FAIL: {len(regressions)} series regressed or mismatched: "
              f"{', '.join(regressions)}")
        return 1
    print("PASS: no series regressed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
