#!/usr/bin/env python3
"""Sanity-check a Chrome trace-event JSON produced by `--trace`.

Usage:

    check_trace_json.py TRACE.json [--require NAME]...

Asserts the file parses, contains a non-empty `traceEvents` array, every
event carries the expected fields, and B/E events balance per thread (a
stack-discipline replay, so nesting is also validated). Each `--require
NAME` also asserts that at least one span is named NAME.
"""

import argparse
import json
import sys
from collections import defaultdict


def main():
    parser = argparse.ArgumentParser(description="Sanity-check a Chrome trace.")
    parser.add_argument("trace", metavar="TRACE.json")
    parser.add_argument("--require", metavar="NAME", action="append", default=[],
                        help="a span name that must occur (repeatable)")
    args = parser.parse_args()
    with open(args.trace, encoding="utf-8") as f:
        trace = json.load(f)

    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        sys.exit("error: traceEvents missing or empty")

    stacks = defaultdict(list)
    for e in events:
        for field in ("name", "ph", "pid", "tid", "ts"):
            if field not in e:
                sys.exit(f"error: event missing `{field}`: {e}")
        if e["ph"] == "B":
            stacks[e["tid"]].append(e["name"])
        elif e["ph"] == "E":
            if not stacks[e["tid"]]:
                sys.exit(f"error: unbalanced E on tid {e['tid']}")
            stacks[e["tid"]].pop()
        else:
            sys.exit(f"error: unexpected phase {e['ph']!r}")
    unbalanced = {tid: s for tid, s in stacks.items() if s}
    if unbalanced:
        sys.exit(f"error: unclosed spans: {unbalanced}")
    names = {e["name"] for e in events if e["ph"] == "B"}
    missing = [n for n in args.require if n not in names]
    if missing:
        sys.exit(f"error: no span named {', '.join(missing)}")

    tids = {e["tid"] for e in events}
    print(f"OK: {len(events)} events across {len(tids)} thread tracks, "
          f"all spans balanced")


if __name__ == "__main__":
    main()
