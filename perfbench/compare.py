#!/usr/bin/env python3
"""Compare two sets of perfbench results, workload by workload.

    python3 perfbench/compare.py BASE CHANGE [--config BENCHMARK.json]

BASE and CHANGE are files, or directories of files, holding run.py's
standard output (`run.py ... >> base.jsonl`); only the full records, the
lines that start with {"schema", are read.  Untraced records are compared on
every end-to-end metric of the config; each workload x metric is reported
as better, worse or unresolved by the rule in perfbench/README.md:

  better / worse  the medians differ by more than the spread (first to
                  third quartile) of the base set's own runs, AND at least
                  nine tenths of all (base, change) run pairs agree on the
                  direction (ties count for neither);
  unresolved      anything else.

A change whose median is worse than the base's by more than the metric's
bound is also flagged "beyond bound".  Exit code 0 always; the table is
the result.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    records = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith('{"schema"'):
                    r = json.loads(line)
                    if not r.get("trace"):
                        records.append(r)
    return records


def by_workload(records):
    out = {}
    for r in records:
        out.setdefault(r["workload"], []).append(r)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, higher_is_better):
    med_b, med_c = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    sign = 1 if higher_is_better else -1
    wins = sum(1 for a in base for b in change if sign * (b - a) > 0)
    losses = sum(1 for a in base for b in change if sign * (b - a) < 0)
    pairs = len(base) * len(change)
    if abs(med_c - med_b) > (q3 - q1):
        if sign * (med_c - med_b) > 0 and wins >= 0.9 * pairs:
            return "better"
        if sign * (med_c - med_b) < 0 and losses >= 0.9 * pairs:
            return "worse"
    return "unresolved"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--config", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.config, encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    base, change = by_workload(load(args.base)), by_workload(load(args.change))
    print(f"{'workload':20s} {'metric':18s} {'base':>12s} {'change':>12s} {'delta':>8s} "
          f"{'base IQR':>8s}  verdict")
    for wl in sorted(set(base) | set(change)):
        if wl not in base or wl not in change:
            print(f"{wl:20s} (only in {'base' if wl in base else 'change'})")
            continue
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            b = [r["end_to_end"][name]["value"] for r in base[wl] if name in r["end_to_end"]]
            c = [r["end_to_end"][name]["value"] for r in change[wl] if name in r["end_to_end"]]
            if not b or not c:
                continue
            mb, mc = statistics.median(b), statistics.median(c)
            q1, q3 = quartiles(b)
            delta = (mc - mb) / mb if mb else 0.0
            v = verdict(b, c, higher)
            worse_share = -delta if higher else delta
            flag = "  beyond bound" if worse_share > m["bound"] else ""
            print(f"{wl:20s} {name:18s} {mb:12.6g} {mc:12.6g} {delta:+8.2%} "
                  f"{(q3 - q1) / mb if mb else 0:8.2%}  {v}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
