#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload, metric by metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the standard output of any number of ``run.py`` runs (the
full records are recognised; other lines are skipped).  Runs are paired by
workload, trace mode and seed, so a file may hold one run per seed only.
Make the pairs by running both commits on the same seeds, alternating which
side runs first.

For every timing it prints each side's median and quartiles, the change of
the median, the pairs the change won, and a verdict:

  improved    the change won at least 9 in 10 of at least 10 pairs and the
              medians differ, in its favour, by more than the parent's
              interquartile range
  no worse    the change's median is worse by no more than the metric's bound
  worse       the change's median is worse by more than the bound
  unresolved  the parent's spread exceeds the bound and not every change run
              beats every parent run; or, for a per-layer timing (which has
              no bound), the gain is not shown

Counts must repeat exactly: they read ``equal`` or ``changed``.  A gain
does not count when the change fails more ops than the parent: every
``improved`` of that workload then reads ``unresolved``.  The exit status is
1 when an end-to-end metric reads ``worse`` or the change fails more ops.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SPEC = json.loads(BENCHMARK.read_text(encoding="utf-8"))


def load(path):
    """Full records of a results file, keyed by (workload, trace, seed).

    A second run with the same key is an error: it could not be paired.
    """
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "perfbench" in record:
                key = record["workload"], record["trace"], record["seed"]
                if key in runs:
                    raise SystemExit(f"{path}: more than one run of {key[0]} with trace "
                                     f"{key[1]} and seed {key[2]}")
                runs[key] = record
    return runs


def failures(runs, workload, trace):
    """(failed, attempted) ops over a side's runs of one workload and trace mode."""
    mine = [r for k, r in runs.items() if k[:2] == (workload, trace)]
    return sum(r["failed"] for r in mine), sum(r["attempted"] for r in mine)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, pairs):
    """The verdict for one timing; ``pairs`` holds (parent, change) values."""
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = _quartiles(parent)
    _, cm, _ = _quartiles(change)
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1:
        return "improved", wins
    if bound is None:
        return "unresolved", wins
    all_better = all(sign * (a - b) > 0 for a in parent for b in change)
    if (p3 - p1) / pm > bound and not all_better:
        return "unresolved", wins
    if sign * (cm - pm) / pm > bound:
        return "worse", wins
    return "no worse", wins


def compare(parent_runs, change_runs):
    """Rows of (workload, metric, unit, parent, change, delta, pairs, verdict)."""
    kinds = {m["name"]: (m, True) for m in SPEC["end_to_end"]}
    kinds.update({m["name"]: (m, False) for m in SPEC["per_layer"]})
    rows = []
    keys = sorted({k[:2] for k in parent_runs} & {k[:2] for k in change_runs})
    for workload, trace in keys:
        a = {k[2]: r for k, r in parent_runs.items() if k[:2] == (workload, trace)}
        b = {k[2]: r for k, r in change_runs.items() if k[:2] == (workload, trace)}
        seeds = sorted(a.keys() & b.keys())
        names = [n for n in next(iter(a.values()))["metrics"] if n in kinds]
        more_failures = (failures(change_runs, workload, trace)[0]
                         > failures(parent_runs, workload, trace)[0])
        for name in names:
            m, end_to_end = kinds[name]
            pv = [r["metrics"][name]["value"] for r in a.values() if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in b.values() if name in r["metrics"]]
            if not pv or not cv:
                continue
            if m["unit"] == "count":
                rows.append((workload, name, m["unit"], _quartiles(pv), _quartiles(cv), None,
                             "", "equal" if set(pv) == set(cv) and len(set(pv)) == 1 else "changed"))
                continue
            pairs = [(a[s]["metrics"][name]["value"], b[s]["metrics"][name]["value"])
                     for s in seeds if name in a[s]["metrics"] and name in b[s]["metrics"]]
            bound = m.get("bound") if end_to_end else None
            result, wins = verdict(pv, cv, m["better"], bound, pairs)
            if result == "improved" and more_failures:
                result = "unresolved"
            pm = _quartiles(pv)[1]
            delta = (_quartiles(cv)[1] - pm) / pm if pm else None
            rows.append((workload, name, m["unit"], _quartiles(pv), _quartiles(cv), delta,
                         f"{wins}/{len(pairs)}", result))
    return rows


def _fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="results of the parent commit")
    parser.add_argument("change", help="results of the change")
    args = parser.parse_args(argv)
    parent_runs, change_runs = load(args.parent), load(args.change)
    rows = compare(parent_runs, change_runs)
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':14} {'metric':40} {'unit':6} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'delta':>8} {'wins':>6}  verdict")
    for workload, name, unit, pq, cq, delta, wins, result in rows:
        shown = "" if delta is None else f"{delta:+.1%}"
        print(f"{workload:14} {name:40} {unit:6} {_fmt(pq):32} {_fmt(cq):32} "
              f"{shown:>8} {wins:>6}  {result}")
    failing = False
    for workload, trace in sorted({k[:2] for k in parent_runs} & {k[:2] for k in change_runs}):
        pf, pa = failures(parent_runs, workload, trace)
        cf, ca = failures(change_runs, workload, trace)
        failing |= cf > pf
        print(f"{workload} trace {trace}: failed ops {pf}/{pa} in the parent, {cf}/{ca} in the change")
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    return 1 if failing or any(r[7] == "worse" and r[1] in end_to_end for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
