#!/usr/bin/env python3
"""spinsq benchmark: one workload, one run, every metric checked and printed.

    python3 perfbench/run.py --workload mc-reference --seed 1 --seconds 36 --trace 0

Workloads (closed loop, one client; see perfbench/README.md):

  mc-reference   run_trials at dicke:10:5, parameter c, Table-2 budgets
  planner-fig9   required_budget for every scheme and N = 4, 6, ..., 20
  cli-roundtrip  spinsq sample + estimate on dicke:10:5:0.9, Table-2 budgets

With ``--trace 0`` the run reports the end-to-end metrics.  ``setup_s`` is
the median over several fresh worker processes of the time from process
start until spinsq is imported, the inputs are built and one warm-up op per
scheme has run.  With ``--trace 1`` it reports the per-layer metrics of a
traced run.  The second-to-last line of standard output is the full record
(provenance, failures, tail percentiles and sample counts); the last line is
the summary ``{"correct", "attempted", "failed", "metrics"}``.
``perfbench/compare.py`` compares two sets of such outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc-reference", "planner-fig9", "cli-roundtrip")
SETUP_PROBES = 2  # setup-only workers; the measuring worker adds one more sample
DEADLINE_S = 170


def _worker(args, extra, deadline):
    """Run one worker to completion; return its last output line as JSON and
    the seconds from its start to its ready mark."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.minimal:
        cmd.append("--minimal")
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - started, 1))
    if proc.returncode:
        raise SystemExit(f"perfbench: worker exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("perfbench: worker printed no result")
    record = json.loads(lines[-1])
    return record, record.pop("ready") - started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--minimal", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--spans", help="with --trace 1, write every span to this CSV file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_worker(args, ["--setup-only"], deadline)[1])
        extra = ["--spans", args.spans] if args.trace and args.spans else []
        record, setup = _worker(args, extra, deadline)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: run did not finish within {DEADLINE_S} s")
    metrics = record["metrics"]
    if not args.trace:
        setups.append(setup)
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s",
                               "samples": setups}, **metrics}
    detail = {"perfbench": 1, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "minimal": args.minimal,
              **record, "metrics": metrics}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
