#!/usr/bin/env python3
"""Summarise gated run records: per workload and end-to-end metric, the median,
the quartiles and the spread between runs, against the metric's bound.

    python3 benchmark/summarize.py DIR [DIR ...]

Each DIR holds the `<workload>-gated.json` records one set of runs wrote with
`--out DIR`. Exits non-zero if a run was not correct or if, for any workload and
metric, the runs differ by more than the bound in BENCHMARK.json:
(max - min) / median with fewer than four runs, else the distance between the
quartiles over the median. Standard library only.
"""

import glob
import json
import os
import statistics
import sys


def main(dirs):
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}

    values = {}  # workload -> metric -> [value per run]
    bad = []
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(d, "*-gated.json"))):
            with open(path) as f:
                rec = json.load(f)
            if not rec["result"]["correct"] or rec["result"]["failed"]:
                bad.append(f"{path}: {rec['problems'] or 'failed transactions'}")
            per = values.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                per.setdefault(name, []).append(m["value"])

    print(f"{'workload':<16} {'metric':<18} {'n':>2} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w in [w["name"] for w in manifest["workloads"]]:
        for name, bound in bounds.items():
            v = values.get(w, {}).get(name)
            if not v:
                bad.append(f"{w}: no {name}")
                continue
            med = statistics.median(v)
            if len(v) >= 4:
                q = statistics.quantiles(v, n=4)
                q1, q3, spread = q[0], q[2], (q[2] - q[0]) / med
            else:
                q1, q3, spread = min(v), max(v), (max(v) - min(v)) / med
            over = spread > bound
            if over:
                bad.append(f"{w} {name}: spread {spread:.1%} exceeds bound {bound:.0%}")
            flag = " OVER" if over else ("" if spread <= bound / 3 else " >1/3")
            print(f"{w:<16} {name:<18} {len(v):>2} {med:>12.3f} {q1:>12.3f} {q3:>12.3f} {spread:>7.1%} {bound:>6.0%}{flag}")
    for b in bad:
        print("summarize:", b)
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
