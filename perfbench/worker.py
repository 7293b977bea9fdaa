"""Benchmark worker: sets up one workload in a fresh process, then measures it.

``run.py`` starts this script and times it from process start until it
reports ready (import, inputs, warm-up).  With ``--setup-only`` it exits
there; otherwise it runs whole passes for ``--seconds`` and prints one JSON
record as its last line of standard output.

spinsq is imported from the ``src`` directory beside this benchmark's own
directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_spinsq():
    """Import spinsq from the checkout's ``src``; exit if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import spinsq
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import spinsq from {SRC}: {exc}")
    if Path(spinsq.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: spinsq was imported from {spinsq.__file__}, not {SRC}")
    return spinsq


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinsq").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(spinsq, seed, threads) -> dict:
    """What ran, where: machine, versions, backend, threads, code and seed."""
    import numpy as np

    try:
        from spinsq import _kernels
        backend = _kernels.active_backend()
    except (ImportError, AttributeError):
        backend = None
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "spinsq": getattr(spinsq, "__version__", None),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend,
        "SPINSQ_BACKEND": os.environ.get("SPINSQ_BACKEND"),
        "threads": threads,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "workload_seed": seed,
    }


def run_passes(run_pass, budget_s, first=0):
    """Whole passes for about ``budget_s``; at least one.

    Another pass starts while it is expected to end less than half a pass
    after the budget, so a run overruns or underruns it by at most half a
    pass.  Returns ``(seconds, ops)`` per pass.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = run_pass(first + len(passes))
        seconds = time.perf_counter() - t0
        passes.append((seconds, ops))
        if time.perf_counter() - start + seconds / 2 > budget_s:
            return passes


def tail(values):
    """(value, percentile, samples): the highest percentile with at least ten
    samples beyond it, or the maximum when there are fewer than 30 samples.

    Below 30 samples that percentile is at most the 67th (at 20 samples, the
    median), which is no tail; and on a shared host a mid percentile follows
    the share of the run spent in slow periods, so it spreads more from run to
    run than the maximum does.
    """
    xs = sorted(values)
    rank = len(xs) - 10 if len(xs) >= 30 else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs)


def end_to_end(passes):
    """``pass_s`` and each scheme's op time and tail, from untraced passes.

    ``<scheme>.op_ms`` is the median over passes of the scheme's mean op time
    in the pass, so a pass of ops of different sizes (the planner's N) counts
    as one sample; the tail is taken over the single ops.
    """
    per_op = {s: [] for s in spans.SCHEMES}
    per_pass = {s: [] for s in spans.SCHEMES}
    for _, ops in passes:
        times = {s: [] for s in spans.SCHEMES}
        for op in ops:
            times[op.scheme].append(op.seconds / op.weight * 1e3)
        for s, values in times.items():
            per_op[s] += values
            per_pass[s].append(statistics.fmean(values))
    metrics = {"pass_s": {"value": statistics.median(p for p, _ in passes), "unit": "s",
                          "samples": len(passes)}}
    for s in spans.SCHEMES:
        metrics[f"{s}.op_ms"] = {"value": statistics.median(per_pass[s]), "unit": "ms",
                                 "samples": len(per_op[s])}
    for s in spans.SCHEMES:
        value, percentile, samples = tail(per_op[s])
        metrics[f"{s}.op_ms.tail"] = {"value": value, "unit": "ms",
                                      "percentile": percentile, "samples": samples}
    return metrics


def _outcome(ops):
    failures = [f"{op.scheme}: {op.error}" for op in ops if op.error]
    return {"attempted": len(ops), "failed": len(failures),
            "failed_frac": len(failures) / len(ops), "failures": failures[:10]}


def _ops(passes):
    return [op for _, ops in passes for op in ops]


def timed_run(workload, seconds):
    """Untraced passes: the end-to-end metrics."""
    passes = run_passes(workload.run_pass, seconds)
    return {"metrics": end_to_end(passes), **_outcome(workload.finish(_ops(passes)))}


def traced_run(workload, seconds, threads, spans_out=None):
    """Untraced passes for the baseline, then traced passes: the per-layer metrics.

    mc-reference adds one untraced pass on ``threads`` threads, from which the
    parallel efficiency t(1 thread) / (threads * t(threads)) of each scheme is
    taken; its timed passes run on one thread.
    """
    start = time.perf_counter()
    base = run_passes(workload.run_pass, 0.4 * seconds)
    efficiency = None
    parallel = []
    if workload.name == "mc-reference":
        parallel = workload.run_pass(len(base), threads=threads)
        one = end_to_end(base)
        efficiency = {
            op.scheme: one[f"{op.scheme}.op_ms"]["value"] / (threads * op.seconds / op.weight * 1e3)
            for op in parallel
        }
    tracer = spans.Tracer()
    tracer.install()
    try:
        remaining = seconds - (time.perf_counter() - start)
        traced = run_passes(lambda i: workload.run_pass(i, tracer), remaining,
                            first=len(base) + 1)
    finally:
        tracer.uninstall()
    overhead = (statistics.median(p for p, _ in traced)
                / statistics.median(p for p, _ in base) - 1)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in spans.layer_metrics(tracer, efficiency, overhead).items()}
    if spans_out:
        tracer.write_csv(spans_out)
    return {"metrics": metrics,
            **_outcome(workload.finish(_ops(base) + parallel + _ops(traced)))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--minimal", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    spinsq = load_spinsq()
    import workloads

    # timed calls run on one thread: on a few shared cores a second thread
    # measures the neighbours' load more than the program
    threads = 1
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, threads, args.minimal, workdir)
        workload.warmup()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        if args.trace:
            record = traced_run(workload, args.seconds, nproc(), args.spans)
        else:
            record = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # not empty: another worker's directory is in it
            pass
    record.update(ready=ready, provenance=provenance(spinsq, args.seed, threads))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
