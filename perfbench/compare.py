#!/usr/bin/env python3
"""Compare two benchmark reports written by ``run.py --report``.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric of both reports with the relative change. Refuses (exit
code 2) to compare reports whose kernel backend, workload or shape differ,
because their numbers do not measure the same thing.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def mismatch(a: dict, b: dict) -> str | None:
    ea, eb = a["environment"], b["environment"]
    for key in ("backend", "workload", "shape"):
        if ea[key] != eb[key]:
            return f"{key} differs: {ea[key]!r} vs {eb[key]!r}"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    a, b = load(argv[0]), load(argv[1])
    reason = mismatch(a, b)
    if reason:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    ea, eb = a["environment"], b["environment"]
    print(f"# {ea['workload']} backend={ea['backend']} seeds {ea['seed']} -> {eb['seed']}")
    for name, entry in a["metrics"].items():
        if name not in b["metrics"]:
            print(f"{name:32s} {entry['value']:>14.6g} {'gone':>14s}")
            continue
        va, vb = entry["value"], b["metrics"][name]["value"]
        change = f"{(vb - va) / va:+.1%}" if va else ""
        print(f"{name:32s} {va:>14.6g} {vb:>14.6g} {entry['unit']:>6s} {change:>8s}")
    for name in b["metrics"]:
        if name not in a["metrics"]:
            print(f"{name:32s} {'new':>14s} {b['metrics'][name]['value']:>14.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
