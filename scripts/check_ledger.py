#!/usr/bin/env python3
"""The performance ledger: perfbench's exact counts and resource ceilings,
checked against one committed baseline, BENCH_ledger.json.

Usage:

    check_ledger.py run DIR             run every workload, save result lines
    check_ledger.py check DIR [LEDGER]  compare saved lines with the ledger
    check_ledger.py baseline            rerun the workloads, rewrite the ledger

The benchmark command, `run_seconds`, the workload names and each
end-to-end metric's bound come from BENCHMARK.json; the seed and, per
workload, the metrics to gate come from the ledger.

`run` runs each workload untraced (`--trace 0`, end-to-end metrics), traced
(`--trace 1`, per-layer metrics) and untraced again, and saves the last
line of each run's standard output as DIR/<workload>.<k>.json, k = 0, 1, 2.

`check` fails unless, for every workload, every line has `correct` true
and `failed` 0, each metric under `exact` equals the ledger's value on
every line that carries it, and each metric under `ceiling` is, on the
faster of the untraced runs, at most the ledger's value times (1 + its
BENCHMARK.json bound). A ceiling in seconds is further multiplied by the
traced run's `host.ref_ms` over the ledger's when that ratio is above 1,
so a slower host is not read as a slower program. Every failure names the
metric with both values.

`baseline` repeats `run` three times and keeps the ledger's metric lists.
An exact value must repeat on every line; a ceiling takes the median over
the repeats of the faster untraced run, and `host.ref_ms` the median over
the traced runs.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
LEDGER = ROOT / "BENCH_ledger.json"
# Untraced, traced, untraced again: a short untraced wall time gets a
# second sample, taken a traced run later.
TRACES = (0, 1, 0)
REPEATS = 3


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot load {path}: {e}")


def run_all(bench, seed, workload):
    """The workload's runs in TRACES order: each run's last stdout line."""
    lines = []
    for trace in TRACES:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        out = proc.stdout.strip().splitlines()
        if not out:
            sys.exit(f"error: `{' '.join(cmd)}` exited {proc.returncode} "
                     f"without a result line")
        lines.append(out[-1])
    return lines


def collect(workload, lines):
    """The failed-run messages of `lines`, and every value each metric
    took across them."""
    failures, seen = [], {}
    for k, line in enumerate(lines):
        if line.get("correct") is not True:
            failures.append(f"{workload} line {k}: correct is "
                            f"{json.dumps(line.get('correct'))}, expected true")
        if line.get("failed") != 0:
            failures.append(f"{workload} line {k}: failed is "
                            f"{json.dumps(line.get('failed'))}, expected 0")
        for name, m in line.get("metrics", {}).items():
            seen.setdefault(name, []).append(m["value"])
    return failures, seen


def run(args):
    bench, ledger = load(BENCHMARK), load(LEDGER)
    out = pathlib.Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    for w in bench["workloads"]:
        for k, line in enumerate(run_all(bench, ledger["seed"], w["name"])):
            (out / f"{w['name']}.{k}.json").write_text(line + "\n")


def check(args):
    bench, ledger = load(BENCHMARK), load(args.ledger)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    failures = []
    for w in bench["workloads"]:
        name = w["name"]
        entry = ledger["workloads"].get(name)
        if entry is None:
            failures.append(f"{name}: no entry in {args.ledger}")
            continue
        lines = [load(pathlib.Path(args.dir) / f"{name}.{k}.json")
                 for k in range(len(TRACES))]
        bad, seen = collect(name, lines)
        failures += bad
        for metric, want in entry["exact"].items():
            got = seen.get(metric, [])
            if not got or any(v != want for v in got):
                failures.append(f"{name} {metric}: measured {got}, "
                                f"ledger {want}")
        host = max(1.0, max(seen.get("host.ref_ms", [0.0]))
                   / entry["host.ref_ms"])
        for metric, base in entry["ceiling"].items():
            spec = specs[metric]
            limit = base * (1.0 + spec["bound"])
            if spec["unit"] == "s":
                limit *= host
            got = min(seen.get(metric, [float("inf")]))
            ok = got <= limit
            print(f"{name} {metric}: {got} {spec['unit']} "
                  f"{'<=' if ok else 'ABOVE'} ceiling {limit:.4g} "
                  f"(ledger {base:.4g}, bound {spec['bound']}, "
                  f"host x{host:.2f})")
            if not ok:
                failures.append(f"{name} {metric}: measured {got}, ceiling "
                                f"{limit:.4g} (ledger {base})")
        print(f"{name}: {len(entry['exact'])} exact metrics checked")
    for f in failures:
        print(f"FAIL {f}")
    if failures:
        sys.exit(f"ledger check failed: {len(failures)} difference(s)")
    print("OK: every result line matches the ledger")


def baseline(args):
    bench, ledger = load(BENCHMARK), load(LEDGER)
    names = [w["name"] for w in bench["workloads"]]
    repeats = {name: [] for name in names}
    # Round-robin over the workloads, so each workload's repeats sample
    # different stretches of the host's drift.
    for _ in range(REPEATS):
        for name in names:
            lines = [json.loads(l) for l in run_all(bench, ledger["seed"], name)]
            bad, seen = collect(name, lines)
            if bad:
                sys.exit("error: " + "; ".join(bad))
            repeats[name].append(seen)
    for name in names:
        entry = ledger["workloads"][name]
        for metric in entry["exact"]:
            got = [v for seen in repeats[name] for v in seen[metric]]
            if any(v != got[0] for v in got):
                sys.exit(f"error: {name} {metric} did not repeat: {got}")
            entry["exact"][metric] = got[0]
        for metric in entry["ceiling"]:
            entry["ceiling"][metric] = statistics.median(
                min(seen[metric]) for seen in repeats[name])
        entry["host.ref_ms"] = statistics.median(
            max(seen["host.ref_ms"]) for seen in repeats[name])
        print(f"{name}: {REPEATS} repeats, every exact metric repeated")
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n")
    print(f"wrote {LEDGER}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("dir")
    p.set_defaults(fn=run)
    p = sub.add_parser("check")
    p.add_argument("dir")
    p.add_argument("ledger", nargs="?", default=str(LEDGER))
    p.set_defaults(fn=check)
    sub.add_parser("baseline").set_defaults(fn=baseline)
    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
