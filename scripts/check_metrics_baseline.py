#!/usr/bin/env python3
"""Compare a `tables --metrics-json` output against a committed baseline.

Usage:

    check_metrics_baseline.py CURRENT.json BASELINE.json [--max-regression 0.25]

Validates that CURRENT.json is well-formed telemetry output (top-level
`counters`, `gauges`, `histograms`, `derived` objects) and fails when a
gated headline figure (`derived.gate_evals_per_sec`, and
`derived.omission_attempts_per_sec` when the baseline records it)
regressed by more than `--max-regression` (default 25%) relative to the
baseline. Improvements never fail.

Resource ceilings are gated the other way around (lower is better):
`derived.peak_rss_bytes` and the `stress/wall_us` gauge fail when the
current value exceeds `baseline * (1 + max_regression)` — but only when
the baseline records them (> 0), so `tables` baselines without a stress
run are unaffected. Remaining print-only fields (imbalance, totals) are
reported for context but not gated, since they vary with machine load.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot load {path}: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="telemetry metrics JSON")
    ap.add_argument("baseline")
    ap.add_argument("--max-regression", type=float, default=0.25)
    args = ap.parse_args()

    failures = []
    current = load(args.current)
    baseline = load(args.baseline)

    for key in ("counters", "gauges", "histograms", "derived"):
        if key not in current or not isinstance(current[key], dict):
            sys.exit(f"error: {args.current} is missing the `{key}` "
                     f"object")

    # gate_evals_per_sec is always gated; omission_attempts_per_sec
    # only once the baseline records it (older baselines predate the
    # metric).
    gated = ["gate_evals_per_sec"]
    if isinstance(baseline["derived"].get("omission_attempts_per_sec"),
                  (int, float)) and \
            baseline["derived"]["omission_attempts_per_sec"] > 0:
        gated.append("omission_attempts_per_sec")

    for metric in gated:
        cur = current["derived"].get(metric)
        base = baseline["derived"].get(metric)
        if not isinstance(cur, (int, float)) or cur <= 0:
            sys.exit(f"error: bad current {metric}: {cur!r}")
        if not isinstance(base, (int, float)) or base <= 0:
            sys.exit(f"error: bad baseline {metric}: {base!r}")
        floor = base * (1.0 - args.max_regression)
        ratio = cur / base
        print(f"{metric}: current {cur:.0f}, baseline {base:.0f} "
              f"(ratio {ratio:.2f}, floor {floor:.0f})")
        if cur < floor:
            failures.append(f"{metric} regressed more than "
                            f"{args.max_regression:.0%} "
                            f"(ratio {ratio:.2f})")

    # Resource ceilings: lower is better, gated only once the baseline
    # records them (tables baselines predate the stress metrics).
    def lookup(doc, section, key):
        value = doc.get(section, {}).get(key)
        return value if isinstance(value, (int, float)) else None

    ceilings = [("derived", "peak_rss_bytes"),
                ("gauges", "stress/wall_us")]
    for section, metric in ceilings:
        base = lookup(baseline, section, metric)
        if base is None or base <= 0:
            continue
        cur = lookup(current, section, metric)
        if cur is None or cur <= 0:
            sys.exit(f"error: bad current {section}.{metric}: {cur!r}")
        ceiling = base * (1.0 + args.max_regression)
        ratio = cur / base
        print(f"{section}.{metric}: current {cur:.0f}, "
              f"baseline {base:.0f} "
              f"(ratio {ratio:.2f}, ceiling {ceiling:.0f})")
        if cur > ceiling:
            failures.append(f"{section}.{metric} grew more than "
                            f"{args.max_regression:.0%} "
                            f"(ratio {ratio:.2f})")

    for field in ("gate_evals_total", "wall_us_total",
                  "partition_imbalance", "omission_attempts_total",
                  "omission_wall_us"):
        c = current["derived"].get(field)
        b = baseline["derived"].get(field)
        print(f"{field}: current {c}, baseline {b}")

    if failures:
        sys.exit("FAIL: " + "; ".join(failures))
    print("OK: metrics within the allowed regression envelope")


if __name__ == "__main__":
    main()
